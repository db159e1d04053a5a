// Smoothed round-trip-time estimation shared by the reliable transport and
// the pipeline window controllers (DESIGN.md §13).
//
// This is the RFC 6298 estimator in pure integer arithmetic: srtt and
// rttvar use the standard 1/8 and 1/4 gains, computed with int64 division
// on nanosecond SimTime values. Consensus-adjacent code must stay
// float-free (BP005, DESIGN.md §11), and integer math keeps the estimator
// bit-for-bit deterministic across hosts.
#ifndef BLOCKPLANE_COMMON_RTT_ESTIMATOR_H_
#define BLOCKPLANE_COMMON_RTT_ESTIMATOR_H_

#include <cstdint>

#include "sim/sim_time.h"

namespace blockplane::common {

class RttEstimator {
 public:
  RttEstimator() = default;
  /// Seeds srtt/rttvar with a prior (typically the topology RTT plus a
  /// commit-latency allowance) so timeouts are sane before the first
  /// measured sample. The first real sample replaces the prior outright.
  explicit RttEstimator(sim::SimTime prior) {
    if (prior > 0) {
      srtt_ = prior;
      rttvar_ = prior / 2;
    }
  }

  /// Feeds one measured round trip. Callers are responsible for Karn's
  /// rule: never sample a round trip that involved a retransmission,
  /// because the ack cannot be matched to a specific attempt.
  void AddSample(sim::SimTime rtt) {
    if (rtt < 0) return;
    ++samples_;
    if (samples_ == 1) {
      // First measurement wins over any construction-time prior.
      srtt_ = rtt;
      rttvar_ = rtt / 2;
      return;
    }
    sim::SimTime err = rtt - srtt_;
    sim::SimTime abs_err = err < 0 ? -err : err;
    rttvar_ += (abs_err - rttvar_) / 4;
    srtt_ += err / 8;
  }

  bool has_sample() const { return samples_ > 0; }
  int64_t samples() const { return samples_; }
  sim::SimTime srtt() const { return srtt_; }
  sim::SimTime rttvar() const { return rttvar_; }

  /// Retransmission timeout: srtt + max(4*rttvar, srtt, granularity).
  /// The srtt term keeps the timeout at >= 2x the smoothed RTT even once
  /// rttvar has decayed on a quiet link — in this system the ack path
  /// includes a consensus commit at the peer, whose queueing delay can
  /// exceed what a shrunken variance term would cover.
  sim::SimTime Rto(sim::SimTime granularity) const {
    sim::SimTime var = 4 * rttvar_;
    if (var < srtt_) var = srtt_;
    if (var < granularity) var = granularity;
    return srtt_ + var;
  }

 private:
  sim::SimTime srtt_ = 0;
  sim::SimTime rttvar_ = 0;
  int64_t samples_ = 0;
};

}  // namespace blockplane::common

#endif  // BLOCKPLANE_COMMON_RTT_ESTIMATOR_H_
