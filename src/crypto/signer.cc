#include "crypto/signer.h"

#include <algorithm>

#include "common/codec.h"
#include "common/metrics.h"

namespace blockplane::crypto {

size_t KeyStore::ProofHash(const Signature& sig) {
  // FNV-1a over the discriminating prefix. The MAC is 32 bytes of
  // (pseudo)random data, so hashing its first 16 bytes plus the signer id
  // spreads perfectly; equality still compares the full triple, so hash
  // collisions are correctness-neutral.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) {
    h = (h ^ x) * 0x100000001b3ULL;
  };
  mix(static_cast<uint64_t>(static_cast<uint32_t>(sig.signer.site)) << 32 |
      static_cast<uint32_t>(sig.signer.index));
  for (int i = 0; i < 16; i += 8) {
    uint64_t word = 0;
    for (int j = 0; j < 8; ++j) {
      word |= static_cast<uint64_t>(sig.mac[i + j]) << (8 * j);
    }
    mix(word);
  }
  return static_cast<size_t>(h);
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
    if (sig_cache_.Contains(sig, msg)) {
      hotpath_stats().sig_cache_hits++;
      return true;
    }
    bool ok = it->second.hmac.Verify(msg, sig.mac);
    hotpath_stats().sig_cache_misses++;
    if (ok) sig_cache_.Insert(sig, msg, verify_cache_capacity_);
    return ok;
  }
  return it->second.hmac.Verify(msg, sig.mac);
}

}  // namespace blockplane::crypto
