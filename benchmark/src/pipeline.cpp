#include "pipeline.h"

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "baselines/registry.h"
#include "core/cost_model.h"
#include "core/envelope_store.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "util/json.h"

namespace esva::bench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double to_us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

std::string u64_field(std::uint64_t v) {
  std::string out = "\"";
  out += std::to_string(v);
  return out + '"';
}

/// Opens a span on construction and closes it on destruction; inert when
/// the pipeline is untraced.
class Scope {
 public:
  Scope(Tracer* tracer, SpanName name) : tracer_(tracer), name_(name) {
    if (tracer_) tracer_->begin(name_);
  }
  ~Scope() {
    if (tracer_ && open_) tracer_->end(name_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Closes the span early; returns its duration (0 when untraced).
  std::int64_t close() {
    if (!tracer_ || !open_) return 0;
    open_ = false;
    return tracer_->end(name_);
  }

 private:
  Tracer* tracer_;
  SpanName name_;
  bool open_ = true;
};

}  // namespace

const char* span_label(SpanName name) {
  switch (name) {
    case SpanName::kOp: return "op";
    case SpanName::kDecode: return "wire.decode_request";
    case SpanName::kAdvance: return "engine.advance_to";
    case SpanName::kFault: return "engine.apply_fault";
    case SpanName::kRetire: return "engine.retire_vm";
    case SpanName::kSubmit: return "engine.submit";
    case SpanName::kHorizon: return "engine.pre_place";
    case SpanName::kPlaceOne: return "scan.place_one";
    case SpanName::kShadow: return "shadow";
    case SpanName::kTriage: return "shadow.classify";
    case SpanName::kTreeProbe: return "shadow.can_fit";
    case SpanName::kScore: return "shadow.incremental_cost";
    case SpanName::kResolve: return "daemon.resolve";
    case SpanName::kEncode: return "journal.encode";
    case SpanName::kAppend: return "journal.append";
    case SpanName::kSnapshot: return "snapshot.write";
    case SpanName::kRespond: return "daemon.respond";
    case SpanName::kCount: break;
  }
  return "?";
}

Layer layer_of(SpanName name) {
  switch (name) {
    case SpanName::kDecode: return Layer::kWire;
    case SpanName::kAdvance:
    case SpanName::kFault:
    case SpanName::kRetire:
    case SpanName::kSubmit:
    case SpanName::kHorizon: return Layer::kEngine;
    case SpanName::kPlaceOne: return Layer::kScan;
    case SpanName::kShadow:
    case SpanName::kTriage:
    case SpanName::kTreeProbe:
    case SpanName::kScore: return Layer::kShadow;
    case SpanName::kEncode:
    case SpanName::kAppend: return Layer::kJournal;
    case SpanName::kSnapshot: return Layer::kSnapshot;
    case SpanName::kOp:
    case SpanName::kResolve:
    case SpanName::kRespond:
    case SpanName::kCount: break;
  }
  return Layer::kDaemon;
}

// --- Tracer ------------------------------------------------------------------

void Tracer::begin(SpanName name) {
  Span span;
  span.name = name;
  span.request = request_;
  span.parent = stack_.empty() ? -1 : stack_.back().index;
  span.start_ns = now_ns();
  spans_.push_back(span);
  stack_.push_back({static_cast<std::int32_t>(spans_.size() - 1), 0});
}

std::int64_t Tracer::end(SpanName name) {
  const std::int64_t t = now_ns();
  if (stack_.empty() || spans_[static_cast<std::size_t>(stack_.back().index)]
                                .name != name)
    throw std::logic_error(std::string("tracer: unbalanced end of ") +
                           span_label(name));
  const Open open = stack_.back();
  stack_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(open.index)];
  span.end_ns = t;
  const std::int64_t dur = t - span.start_ns;
  const auto k = static_cast<std::size_t>(name);
  self_ns_[k] += dur - open.child_ns;
  total_ns_[k] += dur;
  ++count_[k];
  if (!stack_.empty()) stack_.back().child_ns += dur;
  return dur;
}

std::int64_t Tracer::end_if_open(SpanName name) {
  if (stack_.empty() ||
      spans_[static_cast<std::size_t>(stack_.back().index)].name != name)
    return -1;
  return end(name);
}

std::int64_t Tracer::layer_self_ns(Layer layer) const {
  std::int64_t total = 0;
  for (std::size_t k = 0; k < static_cast<std::size_t>(SpanName::kCount); ++k)
    if (layer_of(static_cast<SpanName>(k)) == layer) total += self_ns_[k];
  return total;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  static const char* const kLayerNames[] = {"daemon",  "wire",     "engine",
                                            "scan",    "journal",  "snapshot",
                                            "shadow"};
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) throw std::runtime_error("cannot open trace file '" + path + "'");
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", span_label(s.name),
                 kLayerNames[static_cast<std::size_t>(layer_of(s.name))],
                 to_us(s.start_ns - origin), to_us(s.end_ns - s.start_ns), i,
                 s.parent, static_cast<unsigned long long>(s.request));
  }
  std::fputs("]}\n", out);
  if (std::fclose(out) != 0)
    throw std::runtime_error("cannot write trace file '" + path + "'");
}

// --- the place_one decorator -------------------------------------------------

/// Forwards every call to the allocator's own policy. When traced, it closes
/// the submit's pre-place span, times the forwarded place_one and, on a
/// sample of calls, runs the shadow calls on the same cluster state (const
/// calls only, so no decision changes).
class Pipeline::TimedPolicy final : public PlacementPolicy {
 public:
  TimedPolicy(PlacementPolicy& inner, Tracer* tracer, CostOptions cost,
              PipelineSamples& samples)
      : inner_(inner), tracer_(tracer), cost_(cost), samples_(samples) {}

  std::string name() const override { return inner_.name(); }
  void begin(const ClusterState& cluster, Rng& rng) override {
    inner_.begin(cluster, rng);
  }
  void finish(std::size_t requests, std::size_t unallocated) override {
    inner_.finish(requests, unallocated);
  }

  PlacementDecision place_one(const ClusterState& cluster, const VmSpec& vm,
                              Rng& rng) override {
    if (!tracer_) return inner_.place_one(cluster, vm, rng);
    last_pre_place_ns_ = tracer_->end_if_open(SpanName::kHorizon);
    // The shadow runs on every kShadowEvery-th call only, so its cache
    // footprint barely perturbs the layers it measures; it alternates
    // between just before and just after place_one, so the one that runs
    // second (on a warmer cache) is place_one and the shadow equally often.
    const bool sampled = calls_ % kShadowEvery == 0;
    const bool before = (calls_ / kShadowEvery) % 2 == 0;
    ++calls_;
    double shadow_us = 0;
    if (sampled && before) shadow_us = shadow(cluster, vm);
    tracer_->begin(SpanName::kPlaceOne);
    const PlacementDecision decision = inner_.place_one(cluster, vm, rng);
    const double us = to_us(tracer_->end(SpanName::kPlaceOne));
    samples_.place_one_us.push_back(us);
    if (sampled) {
      if (!before) shadow_us = shadow(cluster, vm);
      counters_.shadow_us.push_back(shadow_us);
      counters_.place_one_us.push_back(us);
    }
    return decision;
  }

  const ShadowCounters& counters() const { return counters_; }
  /// Duration of the pre-place span closed by the latest place_one (-1 when
  /// that call did not come straight from submit).
  std::int64_t last_pre_place_ns() const { return last_pre_place_ns_; }
  void reset_pre_place() { last_pre_place_ns_ = -1; }

 private:
  /// Triage, tree probes and scoring as three separate const passes over the
  /// fleet; returns the sum of the three, microseconds.
  double shadow(const ClusterState& cluster, const VmSpec& vm) {
    Scope shadow(tracer_, SpanName::kShadow);
    const std::vector<ServerTimeline>& timelines = cluster.timelines();
    const std::size_t n = timelines.size();
    verdicts_.resize(n);
    std::int64_t parts_ns = 0;
    {
      Scope triage(tracer_, SpanName::kTriage);
      cluster.envelopes().classify(EnvelopeStore::probe_of(vm),
                                   verdicts_.data());
      parts_ns += triage.close();
    }
    std::int64_t probes = 0;
    {
      Scope probe(tracer_, SpanName::kTreeProbe);
      for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<QuickFit>(verdicts_[i]) != QuickFit::kUnknown) continue;
        const bool fits = timelines[i].can_fit(vm);
        verdicts_[i] = static_cast<std::uint8_t>(fits ? QuickFit::kFits
                                                      : QuickFit::kCannotFit);
        ++probes;
        counters_.tree_fits += fits ? 1 : 0;
      }
      parts_ns += probe.close();
    }
    {
      Scope score(tracer_, SpanName::kScore);
      double sink = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<QuickFit>(verdicts_[i]) != QuickFit::kFits) continue;
        sink += incremental_cost(timelines[i], vm, cost_);
        ++counters_.scored;
      }
      counters_.score_sink += sink;
      parts_ns += score.close();
    }
    ++counters_.calls;
    counters_.servers += static_cast<std::int64_t>(n);
    counters_.decided += static_cast<std::int64_t>(n) - probes;
    counters_.tree_probes += probes;
    return to_us(parts_ns);
  }

  static constexpr std::int64_t kShadowEvery = 8;

  PlacementPolicy& inner_;
  Tracer* tracer_;
  CostOptions cost_;
  PipelineSamples& samples_;
  ShadowCounters counters_;
  std::int64_t calls_ = 0;
  std::int64_t last_pre_place_ns_ = -1;
  std::vector<std::uint8_t> verdicts_;
};

// --- Pipeline ----------------------------------------------------------------

Pipeline::Pipeline(std::vector<ServerSpec> servers,
                   const serve::DaemonOptions& options, Tracer* tracer)
    : options_(options), tracer_(tracer), rng_(options_.seed) {
  // The shadow calls read envelope verdicts by server index, which is the
  // storage order only for the single-shard layout the daemon runs with.
  if (options_.scan.shards != 1)
    throw std::invalid_argument("pipeline: only the unsharded scan is traced");
  // From here to the engine: serve::Daemon's constructor, step for step.
  allocator_ = make_allocator(options_.allocator);
  allocator_->set_scan_config(options_.scan);
  inner_ = allocator_->make_policy();
  if (!inner_)
    throw std::invalid_argument("allocator '" + options_.allocator +
                                "' has no streaming policy");
  policy_ = std::make_unique<TimedPolicy>(*inner_, tracer_, options_.cost,
                                          samples_);
  EngineOptions eopts;
  eopts.initial_horizon = 0;
  eopts.auto_advance = true;
  eopts.account_energy = true;
  eopts.cost = options_.cost;
  eopts.tolerate_late_arrivals = true;
  eopts.faults = nullptr;
  eopts.retry = options_.retry;
  eopts.migration_cost_per_gib = options_.migration_cost_per_gib;
  eopts.shard = options_.scan.shard_options();
  engine_ = std::make_unique<PlacementEngine>(std::move(servers), *policy_,
                                              rng_, eopts);
  if (!options_.wal_path.empty()) {
    serve::WalHeader header;
    header.allocator = options_.allocator;
    header.seed = options_.seed;
    header.num_servers = engine_->cluster().num_servers();
    header.retry = options_.retry;
    wal_ = std::make_unique<serve::WalWriter>(options_.wal_path, header,
                                              options_.wal_sync_every);
  }
}

Pipeline::~Pipeline() = default;

const ShadowCounters& Pipeline::shadow() const { return policy_->counters(); }

void Pipeline::sync_resolutions() {
  const std::vector<Resolution>& rs = engine_->resolutions();
  for (; resolutions_applied_ < rs.size(); ++resolutions_applied_)
    assignment_[rs[resolutions_applied_].vm] = rs[resolutions_applied_].server;
}

void Pipeline::journal(const std::string& record) {
  ++next_seq_;
  if (!wal_) return;  // the untraced reference keeps no journal
  {
    Scope append(tracer_, SpanName::kAppend);
    const bool committed = wal_->append(record);
    const double us = to_us(append.close());
    samples_.append_us.push_back(us);
    if (committed) samples_.commit_append_us.push_back(us);
  }
  samples_.record_bytes += static_cast<std::int64_t>(record.size() + 1);
  ++samples_.records;
  if (options_.snapshot_every == 0 ||
      ++ops_since_snapshot_ < options_.snapshot_every ||
      options_.snapshot_path.empty())
    return;
  snapshot(options_.snapshot_path);
  ops_since_snapshot_ = 0;
}

void Pipeline::snapshot(const std::string& path) {
  // Daemon::do_snapshot: journal durable first, then the atomic snapshot.
  Scope span(tracer_, SpanName::kSnapshot);
  if (wal_) wal_->sync();
  serve::SnapshotData snap;
  snap.allocator = options_.allocator;
  snap.seed = options_.seed;
  snap.num_servers = engine_->cluster().num_servers();
  snap.wal_seq = next_seq_ - 1;
  snap.engine = engine_->export_state();
  snap.rng = rng_.state();
  snap.assignment.assign(assignment_.begin(), assignment_.end());
  serve::write_snapshot_atomic(path, snap);
  samples_.snapshot_ms.push_back(to_us(span.close()) * 1e-3);
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0)
    samples_.snapshot_bytes = static_cast<std::int64_t>(st.st_size);
}

std::string Pipeline::handle(const std::string& line, std::uint64_t request) {
  if (tracer_) tracer_->set_request(request);
  Scope op(tracer_, SpanName::kOp);
  serve::Request req;
  {
    Scope decode(tracer_, SpanName::kDecode);
    req = serve::decode_request(line);
  }
  std::string out = "{\"ok\":true";
  const auto respond_seq = [&](std::uint64_t seq) {
    out += ",\"op\":" + json::escape(serve::to_string(req.op));
    out += ",\"seq\":" + u64_field(seq);
  };
  const std::uint64_t seq = next_seq_;
  switch (req.op) {
    case serve::OpKind::kPlace: {
      // The explicit advance is the step submit would take first
      // (auto_advance); afterwards submit's own advance is a no-op, so the
      // decisions are unchanged and the advance gets its own span.
      {
        Scope advance(tracer_, SpanName::kAdvance);
        engine_->advance_to(req.vm.start);
        if (tracer_) samples_.advance_us.push_back(to_us(advance.close()));
      }
      const Time horizon_before = engine_->cluster().horizon();
      PlacementDecision decision;
      {
        Scope submit(tracer_, SpanName::kSubmit);
        if (tracer_) {
          policy_->reset_pre_place();
          tracer_->begin(SpanName::kHorizon);
        }
        decision = engine_->submit(req.vm);
        if (tracer_) tracer_->end_if_open(SpanName::kHorizon);
      }
      if (tracer_ && engine_->cluster().horizon() != horizon_before) {
        ++samples_.horizon_growths;
        samples_.horizon_growth_ns += std::max<std::int64_t>(
            0, policy_->last_pre_place_ns());
      }
      {
        Scope resolve(tracer_, SpanName::kResolve);
        sync_resolutions();
        assignment_[req.vm.id] = decision.server;
      }
      last_server_ = decision.server;
      std::string record;
      {
        Scope encode(tracer_, SpanName::kEncode);
        record = serve::encode_place_record(seq, options_.allocator, req.vm,
                                            decision, engine_->total_energy());
      }
      journal(record);
      Scope respond(tracer_, SpanName::kRespond);
      respond_seq(seq);
      out += ",\"vm\":" + std::to_string(req.vm.id);
      out += ",\"server\":";
      out += decision.server == kNoServer ? "null"
                                          : std::to_string(decision.server);
      out += ",\"reject\":" + json::escape(esva::to_string(decision.reject));
      out += '}';
      break;
    }
    case serve::OpKind::kRetire: {
      ServerId host = kNoServer;
      {
        Scope retire(tracer_, SpanName::kRetire);
        host = engine_->retire_vm(req.vm_id);
      }
      {
        Scope resolve(tracer_, SpanName::kResolve);
        sync_resolutions();
        assignment_[req.vm_id] = kNoServer;
      }
      std::string record;
      {
        Scope encode(tracer_, SpanName::kEncode);
        record = serve::encode_retire_record(seq, req.vm_id, host);
      }
      journal(record);
      Scope respond(tracer_, SpanName::kRespond);
      respond_seq(seq);
      out += ",\"vm\":" + std::to_string(req.vm_id);
      out += ",\"server\":";
      out += host == kNoServer ? "null" : std::to_string(host);
      out += '}';
      break;
    }
    case serve::OpKind::kAdvance: {
      {
        Scope advance(tracer_, SpanName::kAdvance);
        engine_->advance_to(req.to);
      }
      {
        Scope resolve(tracer_, SpanName::kResolve);
        sync_resolutions();
      }
      std::string record;
      {
        Scope encode(tracer_, SpanName::kEncode);
        record = serve::encode_advance_record(seq, req.to);
      }
      journal(record);
      Scope respond(tracer_, SpanName::kRespond);
      respond_seq(seq);
      out += ",\"frontier\":" +
             std::to_string(engine_->cluster().frontier()) + '}';
      break;
    }
    case serve::OpKind::kFault: {
      {
        Scope fault(tracer_, SpanName::kFault);
        engine_->apply_fault(req.fault);
      }
      {
        Scope resolve(tracer_, SpanName::kResolve);
        sync_resolutions();
      }
      std::string record;
      {
        Scope encode(tracer_, SpanName::kEncode);
        record = serve::encode_fault_record(seq, req.fault);
      }
      journal(record);
      Scope respond(tracer_, SpanName::kRespond);
      respond_seq(seq);
      out += '}';
      break;
    }
    case serve::OpKind::kStats:
    case serve::OpKind::kSnapshot:
    case serve::OpKind::kDrain:
      throw std::invalid_argument("pipeline: only state-changing ops are sent");
  }
  return out;
}

}  // namespace esva::bench
