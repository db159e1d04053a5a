// A PBFT client: submits requests to the leader and accepts a result once
// f+1 replicas send matching replies (up to f repliers may be lying).
// Retransmits by broadcasting to all replicas, which triggers a view change
// if the leader is censoring the request.
//
// "Matching" means matching on (seq, result_digest): a reply carries the
// replica's post-execution state digest, so f+1 replicas that agree on the
// sequence number but diverge on state can never complete a request (they
// did in an earlier version of this client — see byzantine_test.cc's
// DivergentRepliesDoNotComplete regression test).
//
// Blockplane's Participant handle uses a PbftClient per unit to drive
// local-commit (§IV-B); clients are their own (co-located) network nodes.
#ifndef BLOCKPLANE_PBFT_CLIENT_H_
#define BLOCKPLANE_PBFT_CLIENT_H_

#include <functional>
#include <map>
#include <set>
#include <utility>

#include "common/trace.h"
#include "net/network.h"
#include "pbft/config.h"
#include "pbft/message.h"
#include "sim/timer.h"

namespace blockplane::pbft {

class PbftClient : public net::Host {
 public:
  /// Called with the sequence number the group assigned to the request.
  using DoneCallback = std::function<void(uint64_t seq)>;

  PbftClient(net::Network* network, PbftConfig config, net::NodeId self);
  ~PbftClient() override;
  BP_DISALLOW_COPY_AND_ASSIGN(PbftClient);

  /// Submits a value for total-order commit. Multiple requests may be
  /// outstanding; each completes via its own callback. `trace_id` (if
  /// non-zero) tags every message of the request's PBFT round for causal
  /// tracing.
  void Submit(Bytes value, DoneCallback done, TraceId trace_id = kNoTrace);

  void HandleMessage(const net::Message& msg) override;

  /// Immediately re-broadcasts every pending request (same req_ids — never
  /// a re-Submit, which would mint new ids and risk double commits) and
  /// re-arms the retry timers. Used by the participant's geo gap-fill path:
  /// the broadcast reaches the backups, whose censored-request watchdogs
  /// then force a view change against a geo-reordering leader
  /// (DESIGN.md §10).
  void NudgePending();

  net::NodeId self() const { return self_; }
  uint64_t completed() const { return completed_; }
  size_t pending() const { return pending_.size(); }

 private:
  struct PendingRequest {
    explicit PendingRequest(sim::Simulator* simulator)
        : retry_timer(simulator) {}

    Bytes value;
    DoneCallback done;
    /// (seq, result digest) -> replica indices that replied with exactly
    /// that outcome. Keying on the digest too is what makes f+1 "matching"
    /// replies actually match (seq alone cannot tell divergent states
    /// apart).
    std::map<std::pair<uint64_t, crypto::Digest>, std::set<int32_t>> votes;
    sim::Timer retry_timer;
    bool broadcast = false;
    TraceId trace = kNoTrace;
    sim::SimTime submitted_at = 0;
  };

  void SendRequest(uint64_t req_id, bool broadcast);
  void ArmRetry(uint64_t req_id);

  net::Network* network_;
  sim::Simulator* sim_;
  PbftConfig config_;
  net::NodeId self_;
  uint64_t token_;
  uint64_t next_req_id_ = 1;
  uint64_t completed_ = 0;
  /// Best guess of the current leader (updated from reply views).
  uint64_t view_hint_ = 0;
  std::map<uint64_t, PendingRequest> pending_;
};

}  // namespace blockplane::pbft

#endif  // BLOCKPLANE_PBFT_CLIENT_H_
