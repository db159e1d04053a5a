// Hierarchical PBFT (Fig. 7's third baseline): PBFT locally within each
// datacenter, with the local SMR logs used to communicate events committed
// globally via a paxos-style exchange — "the same communication patterns
// of Blockplane-paxos but without the overhead of API separation".
//
// Concretely, a replication round from the leader site is:
//   1. locally PBFT-commit the proposal at the leader site's unit,
//   2. push the value to every other site's coordinator (raw wide-area
//      message — no signature-collection round, no separate send record),
//   3. each remote site locally PBFT-commits the received value and acks,
//   4. on a majority of acks, the leader site locally PBFT-commits the
//      decision.
#ifndef BLOCKPLANE_PROTOCOLS_HIER_PBFT_H_
#define BLOCKPLANE_PROTOCOLS_HIER_PBFT_H_

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "crypto/signer.h"
#include "pbft/client.h"
#include "pbft/replica.h"

namespace blockplane::protocols {

class HierPbft {
 public:
  /// Builds a 3f+1-node PBFT unit per site plus a per-site coordinator.
  HierPbft(net::Network* network, crypto::KeyStore* keys, int f);
  BP_DISALLOW_COPY_AND_ASSIGN(HierPbft);

  /// Runs one global replication round led by `leader_site`; `done` fires
  /// when the decision is locally committed at the leader site.
  void Replicate(net::SiteId leader_site, Bytes value,
                 std::function<void(uint64_t round)> done);

  /// Rounds a site knows to be decided.
  uint64_t decided_rounds(net::SiteId site) const {
    return coordinators_.at(site)->decided;
  }

 private:
  struct Coordinator : public net::Host {
    HierPbft* owner = nullptr;
    net::SiteId site = -1;
    net::NodeId self;
    std::unique_ptr<pbft::PbftClient> client;
    uint64_t decided = 0;
    // Leader-side round state.
    uint64_t round = 0;
    std::set<net::SiteId> acks;
    std::function<void(uint64_t)> done;

    void HandleMessage(const net::Message& msg) override;
  };

  net::Network* network_;
  int majority_;
  std::map<net::SiteId,
           std::vector<std::unique_ptr<pbft::PbftReplica>>>
      units_;
  std::map<net::SiteId, std::unique_ptr<Coordinator>> coordinators_;
};

}  // namespace blockplane::protocols

#endif  // BLOCKPLANE_PROTOCOLS_HIER_PBFT_H_
