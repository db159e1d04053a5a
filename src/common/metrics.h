// Measurement helpers used by the benchmark harness and tests: latency
// histograms with percentiles and simple counters.
#ifndef BLOCKPLANE_COMMON_METRICS_H_
#define BLOCKPLANE_COMMON_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/macros.h"

namespace blockplane {

/// Lists a *Stats block's counters once, inside the struct, as BP_WIRE
/// lists a wire struct's members. The list must name every member (a
/// static_assert against kMemberCount), defines Reset(), and is where the
/// registry's snapshot of the block takes its keys: each counter under its
/// own name, in list order.
#define BP_STATS(Type, ...)                                                \
  auto StatFields() const { return std::tie(__VA_ARGS__); }                \
  static constexpr const char* kStatNames = #__VA_ARGS__;                  \
  void Reset() {                                                           \
    static_assert(::blockplane::kMemberCount<Type> ==                      \
                      std::tuple_size_v<decltype(StatFields())>,           \
                  "every counter of a stats block must be in BP_STATS");   \
    *this = {};                                                            \
  }

/// Collects double-valued samples (typically latencies in milliseconds) and
/// reports summary statistics.
class Histogram {
 public:
  void Add(double value);
  void Clear();

  size_t count() const { return samples_.size(); }
  double Mean() const;
  double Min() const;
  double Max() const;
  /// p in [0, 100]; nearest-rank on sorted samples.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  void EnsureSorted() const;
};

/// Process-wide counters for the byzantizing hot path (encode-once /
/// verify-once / zero-copy; see DESIGN.md §"Hot path & caching").
///
/// These are observability-only: nothing reads them to make protocol
/// decisions, so they cannot perturb determinism. Plain int64 fields keep
/// the increment cost to one add on paths that run once per signature or
/// per broadcast fan-out. Benchmarks and tests snapshot/Reset() them.
struct HotPathStats {
  /// Signature verifications answered from a verify-once cache (the HMAC
  /// recomputation was skipped entirely).
  int64_t sig_cache_hits = 0;
  /// Verifications that had to run the full HMAC (and seeded the cache).
  int64_t sig_cache_misses = 0;
  /// Canonical-body/header encodes skipped because a memoized verdict or a
  /// shared already-encoded buffer made re-encoding unnecessary.
  int64_t encodes_elided = 0;
  /// Payload bytes that would have been deep-copied by broadcast fan-out,
  /// retransmission buffers, or out-of-order receive buffering before the
  /// switch to shared (refcounted) payloads.
  int64_t bytes_copied_saved = 0;
  /// MACs computed through a PrecomputedHmacKey midstate (2 compressions)
  /// instead of the naive schedule (4 compressions + setup).
  int64_t hmac_precomputed_ops = 0;
  /// Entries evicted from bounded verify-once caches.
  int64_t verify_cache_evictions = 0;

  BP_STATS(HotPathStats, sig_cache_hits, sig_cache_misses, encodes_elided,
           bytes_copied_saved, hmac_precomputed_ops, verify_cache_evictions)
};

/// The process-wide hot-path counter block.
HotPathStats& hotpath_stats();

/// Process-wide counters for the reliable transport. Like HotPathStats,
/// observability-only: plain int64 increments, snapshotted via the metrics
/// registry and reset by benches/tests.
struct TransportStats {
  /// Data frames sent for the first time (excludes retransmissions).
  int64_t frames_sent = 0;
  /// Timeout-driven retransmissions.
  int64_t retransmissions = 0;
  /// Frames or acks discarded because their checksum failed.
  int64_t discarded_corrupt = 0;
  /// In-flight frames abandoned after max_retries — the sender gave up on
  /// the peer. Each one also fires the transport's on_drop callback; a
  /// non-zero count with no drop handler installed means some upper layer
  /// may be waiting forever on a dead peer.
  int64_t frames_abandoned = 0;
  /// Payload bytes NOT copied thanks to the rvalue Send path (the old
  /// by-value signature deep-copied every payload once at the API boundary
  /// before the frame encoder copied it again).
  int64_t bytes_copied_saved = 0;
  /// Clean per-peer RTT samples fed into the retransmission-timer
  /// estimator (acks of never-retransmitted frames; Karn's rule).
  int64_t rtt_samples = 0;

  BP_STATS(TransportStats, frames_sent, retransmissions,
           discarded_corrupt, frames_abandoned, bytes_copied_saved,
           rtt_samples)
};

/// The process-wide transport counter block.
TransportStats& transport_stats();

/// Process-wide counters for the sliding-window commit pipeline (pipelined
/// PBFT + windowed geo-commit + daemon flights; DESIGN.md §9). Like the
/// other stat blocks these are observability-only: nothing reads them to make
/// protocol decisions, so they cannot perturb determinism.
struct PipelineStats {
  /// Pre-prepares sent by unit leaders (each is one pipelined instance).
  int64_t pbft_proposals = 0;
  /// Peak number of concurrently outstanding (proposed-but-unexecuted)
  /// PBFT instances observed at any leader.
  int64_t pbft_inflight_peak = 0;
  /// Values the leader-side admission projection rejected at propose time
  /// (these are dropped, mirroring the seed's propose-time verifier drops).
  int64_t pbft_admission_rejects = 0;
  /// Times a leader had a queued value but could not propose because the
  /// window was full or the high watermark (checkpoint lag) was reached.
  int64_t pbft_window_stalls = 0;
  /// Commit certificates that completed out of sequence order and had to
  /// wait for an earlier instance before executing.
  int64_t pbft_ooo_commits = 0;
  /// Peak number of concurrently in-flight participant geo ops.
  int64_t participant_inflight_peak = 0;
  /// Ops whose completion callback was held back to preserve submission
  /// order (the geo round finished before an earlier op's round).
  int64_t participant_ooo_completions = 0;
  /// Distinct episodes in which a participant had queued ops but its geo
  /// window was full. An episode ends when any op is admitted (partial
  /// drain), not only when the queue empties.
  int64_t participant_window_stalls = 0;
  /// Distinct episodes in which a comm daemon had committed communication
  /// records to ship but its flight window was full. Episode semantics as
  /// above: any admission closes the episode.
  int64_t daemon_window_stalls = 0;

  BP_STATS(PipelineStats, pbft_proposals, pbft_inflight_peak,
           pbft_admission_rejects, pbft_window_stalls, pbft_ooo_commits,
           participant_inflight_peak, participant_ooo_completions,
           participant_window_stalls, daemon_window_stalls)
};

/// The process-wide pipeline counter block.
PipelineStats& pipeline_stats();

/// Process-wide aggregate counters for the per-destination window
/// controllers (DESIGN.md §13). Each live controller additionally registers
/// its own "congestion.<label>" gauge group with the registry; this block
/// sums the events across all controllers (and outlives them, so tests can
/// assert on totals after a deployment is torn down). Observability-only.
struct CongestionStats {
  /// WindowController instances constructed.
  int64_t controllers_created = 0;
  /// Clean RTT samples accepted by controllers (Karn-filtered).
  int64_t rtt_samples = 0;
  /// Additive window increases (regrowth toward the knob).
  int64_t increases = 0;
  /// Multiplicative decreases actually applied (spike threshold crossed or
  /// view-change churn, rate-limited to one per RTO).
  int64_t decreases = 0;
  /// Raw loss signals observed (retransmission timeouts); a spike of these
  /// within one RTO is what triggers a decrease.
  int64_t loss_events = 0;
  /// Decreases attributed to view-change churn rather than loss spikes.
  int64_t viewchange_decreases = 0;

  BP_STATS(CongestionStats, controllers_created, rtt_samples,
           increases, decreases, loss_events, viewchange_decreases)
};

/// The process-wide congestion counter block.
CongestionStats& congestion_stats();

/// Process-wide counters for robustness machinery: view-change retry
/// backoff and the commit-time geo-contiguity quarantine (DESIGN.md §10).
/// Observability-only, like the other stat blocks — nothing reads them to
/// make protocol decisions.
struct RobustnessStats {
  /// View-change escalations: each increment is one failed view-change
  /// attempt that re-armed the (backed-off) escalation timer.
  int64_t viewchange_attempts = 0;
  /// Cumulative milliseconds of escalation-timer delay scheduled across
  /// all view-change attempts (jitter included). Dividing by
  /// viewchange_attempts gives the mean per-attempt backoff.
  int64_t viewchange_backoff_ms = 0;
  /// API records whose geo_pos arrived ahead of the contiguous stream and
  /// were quarantined (side effects deferred) at apply time.
  int64_t geo_quarantined = 0;
  /// Quarantined records later released in geo order once the gap filled.
  int64_t geo_quarantine_released = 0;
  /// Records dropped from the api stream: stale/duplicate geo positions or
  /// positions beyond the quarantine bound (byzantine-injected garbage).
  int64_t geo_quarantine_dropped = 0;
  /// kGeoGapNotice messages sent by unit nodes to their participant.
  int64_t geo_gap_notices = 0;
  /// Participant-side gap-fill nudges (pending-request rebroadcasts
  /// triggered by a gap notice).
  int64_t geo_gap_nudges = 0;
  /// Mirror-side gap backfill (§V outage recovery): kMirrorFetch rounds a
  /// lagging mirror group's leader issued to its peer mirrors.
  int64_t mirror_gap_fetches = 0;
  /// Backfilled mirror entries submitted for commit to close a gap.
  int64_t mirror_gap_filled = 0;
  /// Peer mirror groups' certified bases a lagging mirror group executed
  /// instead of the entries below them (counted by the group's leader).
  int64_t mirror_bases_installed = 0;
  /// Sticky body receivers that moved to the next node of their group:
  /// a transmission or geo replicate first sent to the current receiver
  /// was retried (DESIGN.md §5 item 5). 0 on a fault-free, lossless run.
  int64_t receiver_moves = 0;

  BP_STATS(RobustnessStats, viewchange_attempts,
           viewchange_backoff_ms, geo_quarantined, geo_quarantine_released,
           geo_quarantine_dropped, geo_gap_notices, geo_gap_nudges,
           mirror_gap_fetches, mirror_gap_filled, mirror_bases_installed,
           receiver_moves)
};

/// The process-wide robustness counter block.
RobustnessStats& robustness_stats();

/// Process-wide counters for quorum-certificate aggregation (DESIGN.md §14).
/// Observability-only, like the other stat blocks — nothing reads them to
/// make protocol decisions.
struct QcStats {
  /// Certificates assembled from completed attestation sets (plus the
  /// participant's one-signer certs on mirror-acting commits).
  int64_t certs_built = 0;
  /// Certificates that ran the full MAC-recompute verification (cold path —
  /// the cache had no entry, or caching was disabled).
  int64_t certs_verified = 0;
  /// Cert-cache probes that answered a verification outright.
  int64_t cache_hits = 0;
  /// Individual MAC verifications skipped thanks to cert-cache hits (each
  /// hit elides the certificate's full signer count).
  int64_t verifies_elided = 0;
  /// Individual MAC recomputations performed while checking proofs: one
  /// per listed signer in a cold cert verification.
  int64_t proof_sig_verifies = 0;

  BP_STATS(QcStats, certs_built, certs_verified, cache_hits,
           verifies_elided, proof_sig_verifies)
};

/// The process-wide quorum-certificate counter block.
QcStats& qc_stats();

/// Named counters, useful for asserting message complexity in tests
/// (e.g. "wide-area messages sent").
class CounterSet {
 public:
  void Increment(const std::string& name, int64_t delta = 1) {
    counters_[name] += delta;
  }
  int64_t Get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  void Clear() { counters_.clear(); }
  const std::map<std::string, int64_t>& all() const { return counters_; }

 private:
  std::map<std::string, int64_t> counters_;
};

/// One registry to rule the counters: unifies HotPathStats, TransportStats,
/// per-Network CounterSets, and anything else behind a named
/// snapshot/reset/JSON interface, so `bench_*` binaries and scripts/check.sh
/// can dump every perf counter in one call instead of knowing each source.
///
/// Groups register a snapshot function (name -> value) and an optional
/// reset function. The built-in "hotpath" and "transport" groups are
/// registered on first access; Network instances register/unregister
/// themselves in their constructor/destructor. Duplicate group names are
/// disambiguated with a "#<handle>" suffix in snapshots, keeping output
/// deterministic when e.g. two simulations coexist in one test binary.
class MetricsRegistry {
 public:
  using SnapshotFn = std::function<std::map<std::string, int64_t>()>;
  using ResetFn = std::function<void()>;

  MetricsRegistry();
  BP_DISALLOW_COPY_AND_ASSIGN(MetricsRegistry);

  /// Registers a counter group; returns a handle for Unregister.
  int64_t Register(std::string name, SnapshotFn snapshot,
                   ResetFn reset = nullptr);
  void Unregister(int64_t handle);

  /// group name (possibly "#<handle>"-suffixed) -> counter name -> value.
  std::map<std::string, std::map<std::string, int64_t>> Snapshot() const;

  /// Resets every group that registered a reset function.
  void ResetAll();

  /// The full snapshot as pretty-printed JSON (stable key order).
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    SnapshotFn snapshot;
    ResetFn reset;
  };
  std::map<int64_t, Entry> entries_;  // keyed by handle: deterministic order
  int64_t next_handle_ = 1;
};

/// The process-wide registry (built-in groups pre-registered).
MetricsRegistry& metrics_registry();

}  // namespace blockplane

#endif  // BLOCKPLANE_COMMON_METRICS_H_
