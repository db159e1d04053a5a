#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>
#include <tuple>

#include "common/macros.h"

namespace blockplane {

HotPathStats& hotpath_stats() {
  static HotPathStats stats;
  return stats;
}

TransportStats& transport_stats() {
  static TransportStats stats;
  return stats;
}

PipelineStats& pipeline_stats() {
  static PipelineStats stats;
  return stats;
}

RobustnessStats& robustness_stats() {
  static RobustnessStats stats;
  return stats;
}

CongestionStats& congestion_stats() {
  static CongestionStats stats;
  return stats;
}

QcStats& qc_stats() {
  static QcStats stats;
  return stats;
}

// --- MetricsRegistry ---------------------------------------------------------

namespace {

/// A stats block's counters, each under its BP_STATS name.
template <typename Stats>
std::map<std::string, int64_t> StatsSnapshot(const Stats& stats) {
  std::map<std::string, int64_t> out;
  std::string_view names = Stats::kStatNames;  // "a, b, c"
  auto next_name = [&names]() {
    const size_t comma = std::min(names.find(','), names.size());
    std::string_view name = names.substr(0, comma);
    names.remove_prefix(std::min(comma + 1, names.size()));
    while (!name.empty() && name.front() == ' ') name.remove_prefix(1);
    while (!name.empty() && name.back() == ' ') name.remove_suffix(1);
    return std::string(name);
  };
  std::apply(
      [&](const auto&... value) { (out.emplace(next_name(), value), ...); },
      stats.StatFields());
  return out;
}

template <typename Stats>
void RegisterStats(MetricsRegistry* registry, std::string name,
                   Stats& (*block)()) {
  registry->Register(
      std::move(name), [block]() { return StatsSnapshot(block()); },
      [block]() { block().Reset(); });
}

}  // namespace

MetricsRegistry::MetricsRegistry() {
  // Built-in groups: the process-wide counter blocks.
  RegisterStats(this, "hotpath", hotpath_stats);
  RegisterStats(this, "transport", transport_stats);
  RegisterStats(this, "pipeline", pipeline_stats);
  RegisterStats(this, "robustness", robustness_stats);
  RegisterStats(this, "congestion", congestion_stats);
  RegisterStats(this, "qc", qc_stats);
}

int64_t MetricsRegistry::Register(std::string name, SnapshotFn snapshot,
                                  ResetFn reset) {
  int64_t handle = next_handle_++;
  entries_[handle] = Entry{std::move(name), std::move(snapshot),
                           std::move(reset)};
  return handle;
}

void MetricsRegistry::Unregister(int64_t handle) { entries_.erase(handle); }

std::map<std::string, std::map<std::string, int64_t>>
MetricsRegistry::Snapshot() const {
  std::map<std::string, std::map<std::string, int64_t>> out;
  // First pass: find duplicated group names so they can be suffixed.
  std::map<std::string, int> name_counts;
  for (const auto& [handle, entry] : entries_) ++name_counts[entry.name];
  for (const auto& [handle, entry] : entries_) {
    std::string key = entry.name;
    if (name_counts[entry.name] > 1) {
      key += "#" + std::to_string(handle);
    }
    out[key] = entry.snapshot ? entry.snapshot()
                              : std::map<std::string, int64_t>{};
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  for (auto& [handle, entry] : entries_) {
    if (entry.reset) entry.reset();
  }
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\n";
  auto snapshot = Snapshot();
  bool first_group = true;
  for (const auto& [group, counters] : snapshot) {
    if (!first_group) out += ",\n";
    first_group = false;
    out += "  \"" + group + "\": {";
    bool first_counter = true;
    for (const auto& [name, value] : counters) {
      if (!first_counter) out += ",";
      first_counter = false;
      out += "\n    \"" + name + "\": " + std::to_string(value);
    }
    out += counters.empty() ? "}" : "\n  }";
  }
  out += "\n}\n";
  return out;
}

MetricsRegistry& metrics_registry() {
  static MetricsRegistry registry;
  return registry;
}

void Histogram::Add(double value) {
  samples_.push_back(value);
  sorted_ = false;
}

void Histogram::Clear() {
  samples_.clear();
  sorted_ = true;
}

void Histogram::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Histogram::Mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double Histogram::Min() const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  return samples_.front();
}

double Histogram::Max() const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  return samples_.back();
}

double Histogram::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  BP_CHECK(p >= 0.0 && p <= 100.0);
  EnsureSorted();
  if (p <= 0.0) return samples_.front();
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  if (rank == 0) rank = 1;
  return samples_[rank - 1];
}

}  // namespace blockplane
