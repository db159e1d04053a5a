#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

MetricsRegistry::MetricsRegistry() {
  // Built-in groups: the process-wide counter blocks.
  Register(
      "hotpath",
      []() {
        const HotPathStats& s = hotpath_stats();
        return std::map<std::string, int64_t>{
            {"sig_cache_hits", s.sig_cache_hits},
            {"sig_cache_misses", s.sig_cache_misses},
            {"encodes_elided", s.encodes_elided},
            {"bytes_copied_saved", s.bytes_copied_saved},
            {"hmac_precomputed_ops", s.hmac_precomputed_ops},
            {"verify_cache_evictions", s.verify_cache_evictions},
        };
      },
      []() { hotpath_stats().Reset(); });
  Register(
      "transport",
      []() {
        const TransportStats& s = transport_stats();
        return std::map<std::string, int64_t>{
            {"frames_sent", s.frames_sent},
            {"retransmissions", s.retransmissions},
            {"discarded_corrupt", s.discarded_corrupt},
            {"frames_abandoned", s.frames_abandoned},
            {"bytes_copied_saved", s.bytes_copied_saved},
            {"rtt_samples", s.rtt_samples},
        };
      },
      []() { transport_stats().Reset(); });
  Register(
      "pipeline",
      []() {
        const PipelineStats& s = pipeline_stats();
        return std::map<std::string, int64_t>{
            {"pbft_proposals", s.pbft_proposals},
            {"pbft_inflight_peak", s.pbft_inflight_peak},
            {"pbft_admission_rejects", s.pbft_admission_rejects},
            {"pbft_window_stalls", s.pbft_window_stalls},
            {"pbft_ooo_commits", s.pbft_ooo_commits},
            {"participant_inflight_peak", s.participant_inflight_peak},
            {"participant_ooo_completions", s.participant_ooo_completions},
            {"participant_window_stalls", s.participant_window_stalls},
            {"daemon_window_stalls", s.daemon_window_stalls},
        };
      },
      []() { pipeline_stats().Reset(); });
  Register(
      "robustness",
      []() {
        const RobustnessStats& s = robustness_stats();
        return std::map<std::string, int64_t>{
            {"viewchange_attempts", s.viewchange_attempts},
            {"viewchange_backoff_ms", s.viewchange_backoff_ms},
            {"geo_quarantined", s.geo_quarantined},
            {"geo_quarantine_released", s.geo_quarantine_released},
            {"geo_quarantine_dropped", s.geo_quarantine_dropped},
            {"geo_gap_notices", s.geo_gap_notices},
            {"geo_gap_nudges", s.geo_gap_nudges},
            {"mirror_gap_fetches", s.mirror_gap_fetches},
            {"mirror_gap_filled", s.mirror_gap_filled},
            {"mirror_bases_installed", s.mirror_bases_installed},
            {"receiver_moves", s.receiver_moves},
        };
      },
      []() { robustness_stats().Reset(); });
  Register(
      "congestion",
      []() {
        const CongestionStats& s = congestion_stats();
        return std::map<std::string, int64_t>{
            {"controllers_created", s.controllers_created},
            {"rtt_samples", s.rtt_samples},
            {"increases", s.increases},
            {"decreases", s.decreases},
            {"loss_events", s.loss_events},
            {"viewchange_decreases", s.viewchange_decreases},
        };
      },
      []() { congestion_stats().Reset(); });
  Register(
      "qc",
      []() {
        const QcStats& s = qc_stats();
        return std::map<std::string, int64_t>{
            {"certs_built", s.certs_built},
            {"certs_verified", s.certs_verified},
            {"cache_hits", s.cache_hits},
            {"verifies_elided", s.verifies_elided},
            {"proof_sig_verifies", s.proof_sig_verifies},
        };
      },
      []() { qc_stats().Reset(); });
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
