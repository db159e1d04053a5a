#include "common/congestion.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"

namespace blockplane::common {

WindowController::WindowController(uint64_t max_window,
                                   sim::SimTime rtt_prior, std::string label)
    : rtt_(rtt_prior),
      label_(std::move(label)),
      max_window_(std::max(kMinWindow, max_window)),
      window_(max_window_),
      min_window_seen_(max_window_) {
  congestion_stats().controllers_created++;
  registry_handle_ = metrics_registry().Register(
      "congestion." + label_, [this]() { return SnapshotGauges(); });
}

WindowController::~WindowController() {
  metrics_registry().Unregister(registry_handle_);
}

uint64_t WindowController::spike_threshold() const { return 3; }

void WindowController::OnAck(sim::SimTime rtt) {
  rtt_.AddSample(rtt);
  ++rtt_samples_;
  congestion_stats().rtt_samples++;
  Grow();
}

void WindowController::OnAckNoSample() { Grow(); }

void WindowController::Grow() {
  // +1 per full window of acks, never past the knob.
  if (window_ >= max_window_) {
    ack_credit_ = 0;
    return;
  }
  if (++ack_credit_ >= window_) {
    ack_credit_ = 0;
    ++window_;
    ++increases_;
    congestion_stats().increases++;
  }
}

void WindowController::OnLoss(sim::SimTime now) {
  ++loss_events_;
  congestion_stats().loss_events++;
  // Head-of-line loss signals are bucketed into spike windows of
  // spike_threshold() RTOs: isolated timeouts retransmit but keep the
  // window; back-to-back head stalls — a partition or a sustained burst
  // fires one per RTO — cross the threshold and mean the path is genuinely
  // degraded.
  sim::SimTime rto = rtt_.Rto(kMinRto);
  if (spike_count_ == 0 ||
      now - spike_started_ > static_cast<sim::SimTime>(spike_threshold()) *
                                 rto) {
    spike_started_ = now;
    spike_count_ = 0;
  }
  ++spike_count_;
  if (spike_count_ >= spike_threshold()) {
    Decrease(now, /*from_viewchange=*/false);
  }
}

void WindowController::OnViewChange(sim::SimTime now) {
  Decrease(now, /*from_viewchange=*/true);
}

void WindowController::Decrease(sim::SimTime now, bool from_viewchange) {
  // One decrease per RTO: a burst of correlated loss signals (every
  // in-flight item timing out at once) is one congestion event.
  sim::SimTime rto = rtt_.Rto(kMinRto);
  if (last_decrease_ >= 0 && now - last_decrease_ < rto) return;
  last_decrease_ = now;
  spike_count_ = 0;
  window_ = std::max(kMinWindow, window_ / 2);
  ack_credit_ = 0;
  if (window_ < min_window_seen_) min_window_seen_ = window_;
  ++decreases_;
  congestion_stats().decreases++;
  if (from_viewchange) congestion_stats().viewchange_decreases++;
}

sim::SimTime WindowController::RetryTimeout(sim::SimTime floor,
                                            sim::SimTime cap) const {
  sim::SimTime rto = rtt_.Rto(kMinRto);
  if (rto < floor) rto = floor;
  if (rto > cap) rto = cap;
  return rto;
}

std::map<std::string, int64_t> WindowController::SnapshotGauges() const {
  return {
      {"window", static_cast<int64_t>(window_)},
      {"min_window_seen", static_cast<int64_t>(min_window_seen_)},
      {"srtt_us", rtt_.srtt() / 1000},
      {"rttvar_us", rtt_.rttvar() / 1000},
      {"rtt_samples", rtt_samples_},
      {"increases", increases_},
      {"decreases", decreases_},
      {"loss_events", loss_events_},
  };
}

}  // namespace blockplane::common
