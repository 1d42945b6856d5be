#include "obs/trace.h"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/json.h"
#include "util/parse.h"

namespace esva {

void MemoryTraceSink::on_decision(const VmDecisionTrace& decision) {
  std::lock_guard<std::mutex> lock(mutex_);
  decisions_.push_back(decision);
}

std::vector<VmDecisionTrace> MemoryTraceSink::decisions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return decisions_;
}

std::size_t MemoryTraceSink::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return decisions_.size();
}

void MemoryTraceSink::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  decisions_.clear();
}

JsonlTraceSink::JsonlTraceSink(std::ostream& out) : out_(&out) {}

JsonlTraceSink::JsonlTraceSink(const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path);
  if (!*file)
    throw std::runtime_error("cannot open trace file '" + path + "'");
  owned_ = std::move(file);
  out_ = owned_.get();
}

JsonlTraceSink::~JsonlTraceSink() = default;

void JsonlTraceSink::on_decision(const VmDecisionTrace& decision) {
  const std::string line = to_jsonl(decision);
  std::lock_guard<std::mutex> lock(mutex_);
  *out_ << line << '\n';
  out_->flush();
}

// ---------------------------------------------------------------------------
// JSONL serialization
// ---------------------------------------------------------------------------

namespace {

std::string fmt_energy(Energy e) {
  std::ostringstream out;
  out.precision(12);
  out << e;
  return out.str();
}

}  // namespace

std::string to_jsonl(const VmDecisionTrace& decision) {
  std::string out = "{\"allocator\":";
  out += json::escape(decision.allocator);
  out += ",\"vm\":" + std::to_string(decision.vm);
  out += ",\"chosen\":";
  out += decision.chosen == kNoServer ? "null"
                                      : std::to_string(decision.chosen);
  out += ",\"chosen_delta\":";
  out += decision.has_chosen_delta ? fmt_energy(decision.chosen_delta) : "null";
  if (!decision.note.empty()) {
    out += ",\"note\":";
    out += json::escape(decision.note);
  }
  out += ",\"candidates\":[";
  bool first = true;
  for (const CandidateTrace& candidate : decision.candidates) {
    if (!first) out += ',';
    first = false;
    out += "{\"server\":" + std::to_string(candidate.server);
    out += ",\"feasible\":";
    out += candidate.feasible ? "true" : "false";
    if (!candidate.feasible) {
      out += ",\"reject\":";
      out += json::escape(to_string(candidate.reject));
      out += ",\"at\":" + std::to_string(candidate.reject_at);
    }
    out += ",\"delta\":";
    out += candidate.has_delta ? fmt_energy(candidate.delta) : "null";
    out += '}';
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// JSONL parsing — built on the shared minimal JSON reader (util/json.h).
// Unknown keys are ignored, which is what lets the serve journal write a
// superset of this schema (op/seq/spec/... fields) while every place/retire
// journal line stays loadable as a decision record (src/serve/journal.h).
// ---------------------------------------------------------------------------

namespace {

FitReject reject_from_string(const std::string& s) {
  if (s == "none") return FitReject::None;
  if (s == "horizon") return FitReject::Horizon;
  if (s == "cpu") return FitReject::Cpu;
  if (s == "mem") return FitReject::Mem;
  throw std::runtime_error("unknown reject reason '" + s + "'");
}

constexpr const char* kCtx = "trace record";

/// "chosen"/"server" fields: an integral server id, with -1 (and null, for
/// "chosen") meaning kNoServer. Anything below -1, fractional, non-finite,
/// or beyond ServerId range is a structured error — the old unchecked
/// double -> int32 cast was UB on exactly those inputs.
ServerId server_from_field(const json::Value& obj, const std::string& key) {
  return static_cast<ServerId>(json::require_integer(
      obj, key, kNoServer, std::numeric_limits<ServerId>::max(), kCtx));
}

}  // namespace

std::vector<VmDecisionTrace> load_trace_jsonl(std::istream& in) {
  std::vector<VmDecisionTrace> decisions;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const json::Value root = json::parse(line);
    if (root.kind != json::Value::Kind::Object)
      throw std::runtime_error("trace line is not a JSON object");

    VmDecisionTrace decision;
    if (const json::Value* v = root.find("allocator");
        v && v->kind == json::Value::Kind::String)
      decision.allocator = v->string;
    decision.vm = static_cast<VmId>(json::require_integer(
        root, "vm", 0, std::numeric_limits<VmId>::max(), kCtx));
    // "chosen": null marks a VM the allocator could not place.
    if (const json::Value* v = root.find("chosen"); v && v->is_null())
      decision.chosen = kNoServer;
    else
      decision.chosen = server_from_field(root, "chosen");
    if (const json::Value* v = root.find("chosen_delta");
        v && v->kind == json::Value::Kind::Number) {
      decision.has_chosen_delta = true;
      decision.chosen_delta = v->number;
    }
    if (const json::Value* v = root.find("note");
        v && v->kind == json::Value::Kind::String)
      decision.note = v->string;
    if (const json::Value* v = root.find("candidates");
        v && v->kind == json::Value::Kind::Array) {
      for (const json::Value& entry : v->array) {
        CandidateTrace candidate;
        candidate.server = server_from_field(entry, "server");
        if (const json::Value* f = entry.find("feasible");
            f && f->kind == json::Value::Kind::Bool)
          candidate.feasible = f->boolean;
        if (const json::Value* r = entry.find("reject");
            r && r->kind == json::Value::Kind::String)
          candidate.reject = reject_from_string(r->string);
        if (const json::Value* a = entry.find("at");
            a && a->kind == json::Value::Kind::Number)
          candidate.reject_at = static_cast<Time>(checked_integer(
              a->number, std::numeric_limits<Time>::min(),
              std::numeric_limits<Time>::max(), "trace record: field 'at'"));
        if (const json::Value* d = entry.find("delta");
            d && d->kind == json::Value::Kind::Number) {
          candidate.has_delta = true;
          candidate.delta = d->number;
        }
        decision.candidates.push_back(std::move(candidate));
      }
    }
    decisions.push_back(std::move(decision));
  }
  return decisions;
}

std::vector<VmDecisionTrace> load_trace_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file '" + path + "'");
  return load_trace_jsonl(in);
}

std::vector<ServerId> assignment_from_trace(
    const std::vector<VmDecisionTrace>& decisions, std::size_t num_vms) {
  std::vector<ServerId> assignment(num_vms, kNoServer);
  for (const VmDecisionTrace& decision : decisions) {
    if (decision.vm < 0 ||
        static_cast<std::size_t>(decision.vm) >= num_vms)
      throw std::runtime_error("trace names VM " + std::to_string(decision.vm) +
                               " outside the instance");
    assignment[static_cast<std::size_t>(decision.vm)] = decision.chosen;
  }
  return assignment;
}

// ---------------------------------------------------------------------------
// DecisionBuilder
// ---------------------------------------------------------------------------

DecisionBuilder::DecisionBuilder(const ObsContext& obs, std::string allocator,
                                 VmId vm)
    : sink_(obs.trace) {
  if (!sink_) return;
  decision_.allocator = std::move(allocator);
  decision_.vm = vm;
}

void DecisionBuilder::add_feasible(ServerId server, Energy delta) {
  if (!sink_) return;
  CandidateTrace candidate;
  candidate.server = server;
  candidate.feasible = true;
  candidate.has_delta = true;
  candidate.delta = delta;
  decision_.candidates.push_back(std::move(candidate));
}

void DecisionBuilder::add_rejected(ServerId server, const FitCheck& fit) {
  if (!sink_) return;
  CandidateTrace candidate;
  candidate.server = server;
  candidate.feasible = false;
  candidate.reject = fit.reject;
  candidate.reject_at = fit.at;
  decision_.candidates.push_back(std::move(candidate));
}

void DecisionBuilder::set_note(std::string note) {
  if (!sink_) return;
  decision_.note = std::move(note);
}

void DecisionBuilder::commit(ServerId chosen) {
  if (!sink_) return;
  decision_.chosen = chosen;
  for (const CandidateTrace& candidate : decision_.candidates) {
    if (candidate.server == chosen && candidate.has_delta) {
      decision_.has_chosen_delta = true;
      decision_.chosen_delta = candidate.delta;
      break;
    }
  }
  sink_->on_decision(decision_);
}

}  // namespace esva
