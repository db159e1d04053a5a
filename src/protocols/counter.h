// The paper's running example (Algorithm 1): a distributed counting
// protocol byzantized through Blockplane.
//
// Each participant holds a counter, initially 0. A user triggers a request
// at participant A naming a destination B; A log-commits the request info
// and sends a message to B; when B receives it, B log-commits an
// increment event and bumps its counter.
//
// The example demonstrates all three verification routines from §III-C:
//   * the UserRequest log-commit routine checks the request comes from a
//     trusted user,
//   * the send routine checks a matching user request was committed and
//     not already consumed by an earlier send,
//   * the increment routine checks a received message backs the increment
//     (the f_i+1-signature check itself is Blockplane's built-in receive
//     verification).
#ifndef BLOCKPLANE_PROTOCOLS_COUNTER_H_
#define BLOCKPLANE_PROTOCOLS_COUNTER_H_

#include <memory>
#include <set>

#include "common/hash.h"
#include "core/deployment.h"

namespace blockplane::protocols {

class CounterProtocol {
 public:
  /// Verification-routine ids used by the protocol.
  static constexpr uint64_t kVerifyUserRequest = 11;
  static constexpr uint64_t kVerifySend = 12;
  static constexpr uint64_t kVerifyIncrement = 13;

  /// Installs the protocol at every participant of the deployment.
  explicit CounterProtocol(core::Deployment* deployment);
  BP_DISALLOW_COPY_AND_ASSIGN(CounterProtocol);

  /// Algorithm 1's UserRequest event at `site`: log-commit the request,
  /// then send to `destination`. `user` identifies the requester; only
  /// "trusted" users pass verification.
  void UserRequest(net::SiteId site, net::SiteId destination,
                   const std::string& user);

  /// The counter value at a participant (from its replicated state).
  int64_t counter(net::SiteId site) const { return counters_.at(site); }

 private:
  /// Per-node replica state maintained by the apply hook and consulted by
  /// the verification routines (each Blockplane node has its own copy).
  struct NodeState {
    std::set<uint64_t> committed_requests;  // request ids seen
    std::set<uint64_t> sent_requests;       // ids consumed by a send
    uint64_t receives = 0;                  // received messages
    uint64_t increments = 0;                // committed increments
  };

  void InstallAt(net::SiteId site);

  core::Deployment* deployment_;
  std::map<net::SiteId, int64_t> counters_;
  std::map<net::SiteId, uint64_t> next_request_id_;
  common::HashMap<net::NodeId, std::shared_ptr<NodeState>, net::NodeIdHash>
      node_states_;
};

}  // namespace blockplane::protocols

#endif  // BLOCKPLANE_PROTOCOLS_COUNTER_H_
