#include "protocols/kv_store.h"

#include "common/codec.h"
#include "crypto/sha256.h"

namespace blockplane::protocols {

namespace {

enum KvOpKind : uint8_t {
  kPut = 1,
  kDelete = 2,
};

Status WireGet(Decoder* dec, KvOpKind* kind) {
  return WireGetEnum(dec, kind, kPut, kDelete);
}

struct KvOp {
  KvOpKind kind = kPut;
  std::string key;
  std::string value;

  BP_WIRE(KvOp, kind, key, value)
};

/// Deterministic shard assignment by key hash.
net::SiteId ShardOf(const std::string& key, int num_sites) {
  crypto::Digest digest = crypto::Sha256Digest(key);
  return static_cast<net::SiteId>(digest[0] % num_sites);
}

}  // namespace

bool KvStore::Shard::Apply(const core::LogRecord& record) {
  KvOp op;
  if (!KvOp::Decode(record.payload, &op).ok()) return false;
  if (op.kind == kPut) {
    data[op.key] = op.value;
  } else {
    data.erase(op.key);
  }
  return true;
}

bool KvStore::CheckOp(const core::LogRecord& record, net::SiteId owner,
                      int num_sites) {
  KvOp op;
  if (!KvOp::Decode(record.payload, &op).ok()) return false;
  if (op.key.empty()) return false;
  // Shard ownership: only the owner's Local Log may hold writes for a key.
  // Remote writes arrive as received records (whose f_i+1 source
  // signatures Blockplane already verified); local commits of remote keys
  // are forgeries.
  net::SiteId shard = ShardOf(op.key, num_sites);
  if (record.type == core::RecordType::kLogCommit) return shard == owner;
  if (record.type == core::RecordType::kReceived) return shard == owner;
  if (record.type == core::RecordType::kCommunication) {
    return shard == record.dest_site;  // forwarding to the right owner
  }
  return false;
}

KvStore::KvStore(core::Deployment* deployment) : deployment_(deployment) {
  for (net::SiteId site = 0; site < deployment_->num_sites(); ++site) {
    user_state_[site] = Shard{};
    writes_[site] = 0;
    InstallAt(site);
  }
}

void KvStore::InstallAt(net::SiteId site) {
  int num_sites = deployment_->num_sites();
  for (int i = 0; i < 3 * deployment_->options().fi + 1; ++i) {
    core::BlockplaneNode* node = deployment_->node(site, i);
    auto shard = std::make_shared<Shard>();
    node_state_[node->self()] = shard;
    node->SetApplyHook(
        [shard](uint64_t pos, const core::LogRecord& record) {
          if (record.type == core::RecordType::kLogCommit ||
              record.type == core::RecordType::kReceived) {
            shard->Apply(record);
          }
        });
    node->RegisterVerifier(kVerifyWrite,
                           [site, num_sites](const core::LogRecord& record) {
                             return CheckOp(record, site, num_sites);
                           });
  }

  // Remote writes arrive here and apply to the user-space shard view.
  core::Participant* participant = deployment_->participant(site);
  participant->SetReceiveHandler(
      [this, site](net::SiteId src, const Bytes& payload) {
        core::LogRecord as_record;
        as_record.type = core::RecordType::kReceived;
        as_record.payload = payload;
        user_state_[site].Apply(as_record);
        ++writes_[site];
      });
}

net::SiteId KvStore::OwnerOf(const std::string& key) const {
  return ShardOf(key, deployment_->num_sites());
}

void KvStore::Put(net::SiteId site, const std::string& key,
                  const std::string& value, PutCallback done) {
  KvOp op;
  op.kind = kPut;
  op.key = key;
  op.value = value;
  net::SiteId owner = OwnerOf(key);
  if (owner == site) {
    deployment_->participant(site)->LogCommit(
        op.Encode(), kVerifyWrite,
        [this, site, key, value, done](uint64_t) {
          user_state_[site].data[key] = value;
          ++writes_[site];
          if (done) done(Status::OK());
        });
    return;
  }
  deployment_->participant(site)->Send(
      owner, op.Encode(), kVerifyWrite, [done](uint64_t) {
        if (done) done(Status::OK());
      });
}

void KvStore::Delete(net::SiteId site, const std::string& key,
                     PutCallback done) {
  KvOp op;
  op.kind = kDelete;
  op.key = key;
  net::SiteId owner = OwnerOf(key);
  if (owner == site) {
    deployment_->participant(site)->LogCommit(
        op.Encode(), kVerifyWrite, [this, site, key, done](uint64_t) {
          user_state_[site].data.erase(key);
          ++writes_[site];
          if (done) done(Status::OK());
        });
    return;
  }
  deployment_->participant(site)->Send(owner, op.Encode(), kVerifyWrite,
                                       [done](uint64_t) {
                                         if (done) done(Status::OK());
                                       });
}

bool KvStore::Get(const std::string& key, std::string* value) const {
  const Shard& shard = user_state_.at(OwnerOf(key));
  auto it = shard.data.find(key);
  if (it == shard.data.end()) return false;
  *value = it->second;
  return true;
}

bool KvStore::NodeGet(net::SiteId site, int index, const std::string& key,
                      std::string* value) const {
  auto node = deployment_->node(site, index);
  const auto& shard = node_state_.at(node->self());
  auto it = shard->data.find(key);
  if (it == shard->data.end()) return false;
  *value = it->second;
  return true;
}

}  // namespace blockplane::protocols
