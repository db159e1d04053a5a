#include "crypto/signer.h"

#include <algorithm>

#include "common/codec.h"
#include "common/metrics.h"

namespace blockplane::crypto {

size_t KeyStore::VerifiedSigHash::Hash(const net::NodeId& signer,
                                       const Digest& mac) {
  // FNV-1a over the discriminating prefix. The MAC is 32 bytes of
  // (pseudo)random data, so hashing its first 16 bytes plus the signer id
  // spreads perfectly; equality still compares the full triple, so hash
  // collisions are correctness-neutral.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) {
    h = (h ^ x) * 0x100000001b3ULL;
  };
  mix(static_cast<uint64_t>(static_cast<uint32_t>(signer.site)) << 32 |
      static_cast<uint32_t>(signer.index));
  for (int i = 0; i < 16; i += 8) {
    uint64_t word = 0;
    for (int j = 0; j < 8; ++j) {
      word |= static_cast<uint64_t>(mac[i + j]) << (8 * j);
    }
    mix(word);
  }
  return static_cast<size_t>(h);
}

bool KeyStore::CacheLookup(const VerifiedSigView& probe) const {
  return verified_cur_.contains(probe) || verified_prev_.contains(probe);
}

void KeyStore::CacheInsert(VerifiedSig entry) const {
  if (verify_cache_capacity_ == 0) return;
  if (verified_cur_.size() >= std::max<size_t>(1, verify_cache_capacity_ / 2)) {
    hotpath_stats().verify_cache_evictions +=
        static_cast<int64_t>(verified_prev_.size());
    verified_prev_ = std::move(verified_cur_);
    verified_cur_.clear();
  }
  verified_cur_.insert(std::move(entry));
}

std::unique_ptr<Signer> KeyStore::RegisterNode(net::NodeId node) {
  auto it = keys_.find(node);
  if (it == keys_.end()) {
    // Deterministic per-node key material derived from a store-local seed.
    Encoder enc;
    enc.PutU64(next_key_seed_++);
    enc.PutU32(static_cast<uint32_t>(node.site));
    enc.PutU32(static_cast<uint32_t>(node.index));
    Digest key = Sha256Digest(enc.buffer());
    Bytes raw(key.begin(), key.end());
    PrecomputedHmacKey hmac(raw);
    keys_.emplace(node, KeyEntry{std::move(raw), std::move(hmac)});
  }
  return std::unique_ptr<Signer>(new Signer(this, node));
}

Digest KeyStore::SignAs(net::NodeId node, const Bytes& msg) const {
  auto it = keys_.find(node);
  BP_CHECK_MSG(it != keys_.end(), "signing for unregistered node");
  return it->second.hmac.Sign(msg);
}

bool KeyStore::Verify(const Bytes& msg, const Signature& sig) const {
  auto it = keys_.find(sig.signer);
  if (it == keys_.end()) return false;
  if (verify_cache_capacity_ > 0) {
    // A hit copies nothing; only a verified miss copies the message in.
    if (CacheLookup(VerifiedSigView{sig.signer, sig.mac, msg})) {
      hotpath_stats().sig_cache_hits++;
      return true;
    }
    bool ok = it->second.hmac.Verify(msg, sig.mac);
    hotpath_stats().sig_cache_misses++;
    if (ok) CacheInsert(VerifiedSig{sig.signer, sig.mac, msg});
    return ok;
  }
  return it->second.hmac.Verify(msg, sig.mac);
}

}  // namespace blockplane::crypto
