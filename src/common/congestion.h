// Per-destination pipeline window controller (DESIGN.md §13).
//
// Every pipeline window in the system is one WindowController: a comm
// daemon's flight window toward a remote site, a participant's geo-round
// window toward a mirror site, and a PBFT replica's proposal window. The
// controller starts at its static knob, which is also its ceiling, so a
// lossless run keeps the static schedule exactly. It is AIMD over a
// smoothed per-destination RTT (common/rtt_estimator.h): clean acks grow
// the window by one per window of acks, back up to the knob, and two
// signals halve it:
//
//   * Loss *spikes*, not single losses. The simulated WAN (and a real one
//     under BFT traffic) drops messages at random even when nothing is
//     congested; halving on every isolated timeout would starve long-RTT
//     destinations for no benefit. Callers additionally gate OnLoss on the
//     head-of-line item: receivers commit in order, so one dropped head
//     makes every trailing flight's timer fire even though those records
//     arrived — only the oldest outstanding item's timeout is evidence of
//     loss. A decrease fires when spike_threshold() head timeouts land
//     inside a spike_threshold()*RTO bucket — sustained bursts, partitions.
//   * Completed view changes (churn), unconditionally.
//
// Decreases are rate-limited to one per RTO so a burst of correlated
// signals counts once.
//
// Every controller registers a "congestion.<label>" gauge group with the
// process MetricsRegistry for the lifetime of the controller, and feeds
// the aggregate CongestionStats block. Integer arithmetic throughout
// (bplint BP005): controllers run on consensus-adjacent paths.
#ifndef BLOCKPLANE_COMMON_CONGESTION_H_
#define BLOCKPLANE_COMMON_CONGESTION_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/rtt_estimator.h"
#include "sim/sim_time.h"

namespace blockplane::common {

/// Floor of every window: a controller never stops its pipeline.
inline constexpr uint64_t kMinWindow = 1;
/// Floor for RTT-derived retransmission timeouts: a too-optimistic
/// estimate must not cause a spurious-retransmission storm.
inline constexpr sim::SimTime kMinRto = sim::Milliseconds(5);

class WindowController {
 public:
  /// `max_window` is the static knob: the starting window and the ceiling
  /// regrowth stops at (raised to kMinWindow if smaller); `rtt_prior`
  /// seeds the estimator, typically the topology RTT plus a commit
  /// allowance; `label` names the registry gauge group
  /// ("congestion.<label>").
  WindowController(uint64_t max_window, sim::SimTime rtt_prior,
                   std::string label);
  ~WindowController();

  WindowController(const WindowController&) = delete;
  WindowController& operator=(const WindowController&) = delete;

  /// A clean (Karn-filtered) round trip completed: feed the estimator and
  /// grow the window.
  void OnAck(sim::SimTime rtt);
  /// A round trip completed but involved a retransmission: grow the
  /// window (delivery progressed) without polluting the RTT estimate.
  void OnAckNoSample();
  /// A loss signal — a retransmission timeout of the *head-of-line* item
  /// (callers must not report trailing timeouts; see file comment).
  /// Decreases the window only when signals spike; see file comment.
  void OnLoss(sim::SimTime now);
  /// A view change completed: unconditional multiplicative decrease
  /// (still rate-limited to one per RTO).
  void OnViewChange(sim::SimTime now);

  uint64_t window() const { return window_; }
  /// Head-of-line loss signals within a spike_threshold()*RTO bucket
  /// required to trigger a decrease. An isolated random drop recovers on
  /// the first retransmit and never reaches it; a partition or sustained
  /// burst stalls the head once per RTO and crosses it within ~3 RTOs.
  uint64_t spike_threshold() const;
  sim::SimTime srtt() const { return rtt_.srtt(); }
  /// Retransmission timeout derived from the smoothed estimate, clamped
  /// to [floor, cap].
  sim::SimTime RetryTimeout(sim::SimTime floor, sim::SimTime cap) const;

  uint64_t min_window_seen() const { return min_window_seen_; }
  int64_t decreases() const { return decreases_; }
  int64_t loss_events() const { return loss_events_; }
  const std::string& label() const { return label_; }

  /// Gauge snapshot, as registered with the MetricsRegistry. Its eight
  /// keys: window (flights / geo rounds / proposals), min_window_seen
  /// (low-water mark over the controller's lifetime), srtt_us and
  /// rttvar_us (the RTT estimate, microseconds), rtt_samples (clean,
  /// Karn-filtered samples accepted), increases and decreases (window
  /// steps applied) and loss_events (raw retransmission-timeout signals).
  std::map<std::string, int64_t> SnapshotGauges() const;

 private:
  void Grow();
  /// Applies one multiplicative decrease if the per-RTO rate limit allows.
  void Decrease(sim::SimTime now, bool from_viewchange);

  RttEstimator rtt_;
  std::string label_;

  uint64_t max_window_;
  uint64_t window_;
  /// Acks accumulated toward the next +1.
  uint64_t ack_credit_ = 0;

  /// Spike detection: loss signals observed in the window starting at
  /// spike_started_.
  sim::SimTime spike_started_ = 0;
  uint64_t spike_count_ = 0;
  /// Rate limit: virtual time of the last applied decrease (< 0 = never).
  sim::SimTime last_decrease_ = -1;

  uint64_t min_window_seen_;
  int64_t rtt_samples_ = 0;
  int64_t increases_ = 0;
  int64_t decreases_ = 0;
  int64_t loss_events_ = 0;

  int64_t registry_handle_ = 0;
};

}  // namespace blockplane::common

#endif  // BLOCKPLANE_COMMON_CONGESTION_H_
