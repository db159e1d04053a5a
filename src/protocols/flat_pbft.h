// The geo-distributed ("flat") PBFT baseline of Fig. 7: one PBFT replica
// per datacenter, agreement over wide-area links, f_i = (n-1)/3.
#ifndef BLOCKPLANE_PROTOCOLS_FLAT_PBFT_H_
#define BLOCKPLANE_PROTOCOLS_FLAT_PBFT_H_

#include <memory>
#include <vector>

#include "crypto/signer.h"
#include "pbft/client.h"
#include "pbft/replica.h"

namespace blockplane::protocols {

class FlatPbft {
 public:
  /// One replica per site of `network`'s topology; the leader is the
  /// replica at `leader_site` (chosen by rotating the view).
  FlatPbft(net::Network* network, crypto::KeyStore* keys,
           net::SiteId leader_site);
  BP_DISALLOW_COPY_AND_ASSIGN(FlatPbft);

  /// Commits a value and invokes `done(seq)` once f+1 replicas reply to
  /// the (leader-site co-located) client.
  void Commit(Bytes value, pbft::PbftClient::DoneCallback done);

  pbft::PbftReplica* replica(net::SiteId site) {
    return replicas_[site].get();
  }

 private:
  std::vector<std::unique_ptr<pbft::PbftReplica>> replicas_;
  std::unique_ptr<pbft::PbftClient> client_;
};

}  // namespace blockplane::protocols

#endif  // BLOCKPLANE_PROTOCOLS_FLAT_PBFT_H_
