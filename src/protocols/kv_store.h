// A byzantized, geo-sharded key-value store on Blockplane.
//
// Keys are partitioned across participants by hash: each participant's unit
// is the byzantine-masked system of record for its shard. Writes to the
// local shard are log-commits; writes to a remote shard travel through
// Blockplane's send/receive as verified cross-participant messages. Reads
// use the §VI-A strategies (read-1 by default; quorum or linearizable on
// request).
//
// Verification routines enforce op well-formedness and shard ownership: a
// byzantine Blockplane node cannot commit a write for a key its participant
// does not own, nor forge a remote write (f_i+1 source signatures required).
#ifndef BLOCKPLANE_PROTOCOLS_KV_STORE_H_
#define BLOCKPLANE_PROTOCOLS_KV_STORE_H_

#include <map>
#include <memory>
#include <string>

#include "common/hash.h"
#include "core/deployment.h"

namespace blockplane::protocols {

class KvStore {
 public:
  static constexpr uint64_t kVerifyWrite = 41;

  using PutCallback = std::function<void(Status)>;
  using GetCallback = std::function<void(Status, std::string value)>;

  explicit KvStore(core::Deployment* deployment);
  BP_DISALLOW_COPY_AND_ASSIGN(KvStore);

  /// The participant owning `key`'s shard.
  net::SiteId OwnerOf(const std::string& key) const;

  /// Writes `key = value`, issued at participant `site`. If the key's
  /// shard lives elsewhere the write is forwarded through Blockplane.
  /// `done` fires when the write is durable at the owner (for remote
  /// writes: when the forwarding communication record is committed — the
  /// owner applies it on delivery).
  void Put(net::SiteId site, const std::string& key,
           const std::string& value, PutCallback done = nullptr);

  /// Deletes a key (same routing as Put).
  void Delete(net::SiteId site, const std::string& key,
              PutCallback done = nullptr);

  /// Reads `key` from its owner's user-space state (instantaneous within
  /// the simulation; see ReadEntry for log-backed reads).
  bool Get(const std::string& key, std::string* value) const;

  /// Number of committed write records at a participant's shard.
  uint64_t writes_at(net::SiteId site) const { return writes_.at(site); }

  /// The value of `key` according to node `index` of the owner's unit
  /// (for divergence checks).
  bool NodeGet(net::SiteId site, int index, const std::string& key,
               std::string* value) const;

 private:
  struct Shard {
    std::map<std::string, std::string> data;

    bool Apply(const core::LogRecord& record);
  };

  void InstallAt(net::SiteId site);
  static bool CheckOp(const core::LogRecord& record, net::SiteId owner,
                      int num_sites);

  core::Deployment* deployment_;
  std::map<net::SiteId, Shard> user_state_;
  std::map<net::SiteId, uint64_t> writes_;
  common::HashMap<net::NodeId, std::shared_ptr<Shard>, net::NodeIdHash>
      node_state_;
};

}  // namespace blockplane::protocols

#endif  // BLOCKPLANE_PROTOCOLS_KV_STORE_H_
