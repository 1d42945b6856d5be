#include "obs/timeseries.h"

#include <limits>
#include <ostream>
#include <string>

#include "util/csv.h"

namespace esva {

TimeSeriesSampler::TimeSeriesSampler(TimeSeriesOptions options)
    : options_(options) {
  if (options_.every < 1) options_.every = 1;
  if (options_.capacity > 0) ring_.reserve(options_.capacity);
}

void TimeSeriesSampler::record(const FleetSample& sample) {
  if (options_.capacity == 0 || ring_.size() < options_.capacity) {
    ring_.push_back(sample);
  } else {
    ring_[head_] = sample;
    head_ = (head_ + 1) % options_.capacity;
    ++dropped_;
  }
  constexpr Time kMaxTime = std::numeric_limits<Time>::max();
  next_due_ = sample.t > kMaxTime - options_.every ? kMaxTime
                                                   : sample.t + options_.every;
}

std::size_t TimeSeriesSampler::size() const { return ring_.size(); }

const FleetSample* TimeSeriesSampler::latest() const {
  if (ring_.empty()) return nullptr;
  const std::size_t last =
      head_ == 0 ? ring_.size() - 1 : head_ - 1;
  // Before the ring wraps, head_ is 0 and the newest sample is at the back.
  return dropped_ == 0 && head_ == 0 ? &ring_.back() : &ring_[last];
}

std::vector<FleetSample> TimeSeriesSampler::samples() const {
  std::vector<FleetSample> out;
  out.reserve(ring_.size());
  // Oldest first: once the ring wrapped, head_ points at the oldest slot.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

const char* TimeSeriesSampler::csv_header() {
  return "t,active_vms,busy_servers,idle_servers,drained_servers,"
         "failed_servers,total_power_w,spare_cpu,spare_mem,"
         "retry_queue_depth,requests,evacuated,displaced,rejected_final,"
         "total_energy";
}

void TimeSeriesSampler::write_csv(std::ostream& out) const {
  out << csv_header() << '\n';
  CsvWriter writer(out);
  for (const FleetSample& s : samples()) {
    writer.typed_row(static_cast<int>(s.t), static_cast<long long>(s.active_vms),
                     static_cast<long long>(s.busy_servers),
                     static_cast<long long>(s.idle_servers),
                     static_cast<long long>(s.drained_servers),
                     static_cast<long long>(s.failed_servers), s.total_power_w,
                     s.spare_cpu, s.spare_mem,
                     static_cast<long long>(s.retry_queue_depth),
                     static_cast<long long>(s.requests),
                     static_cast<long long>(s.evacuated),
                     static_cast<long long>(s.displaced),
                     static_cast<long long>(s.rejected_final), s.total_energy);
  }
}

void TimeSeriesSampler::write_jsonl(std::ostream& out) const {
  // Keys are fixed identifiers (no escaping needed); numbers use the same
  // shortest round-trip formatting as the CSV export.
  const auto num = [](double v) { return CsvWriter::field_to_string(v); };
  for (const FleetSample& s : samples()) {
    out << "{\"t\":" << s.t << ",\"active_vms\":" << s.active_vms
        << ",\"busy_servers\":" << s.busy_servers
        << ",\"idle_servers\":" << s.idle_servers
        << ",\"drained_servers\":" << s.drained_servers
        << ",\"failed_servers\":" << s.failed_servers
        << ",\"total_power_w\":" << num(s.total_power_w)
        << ",\"spare_cpu\":" << num(s.spare_cpu)
        << ",\"spare_mem\":" << num(s.spare_mem)
        << ",\"retry_queue_depth\":" << s.retry_queue_depth
        << ",\"requests\":" << s.requests
        << ",\"evacuated\":" << s.evacuated
        << ",\"displaced\":" << s.displaced
        << ",\"rejected_final\":" << s.rejected_final
        << ",\"total_energy\":" << num(s.total_energy) << "}\n";
  }
}

}  // namespace esva
