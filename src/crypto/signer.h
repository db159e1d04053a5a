// Node signatures and multi-signature proofs.
//
// The paper's deployment assumes "the set of nodes and their public keys are
// known to all nodes". We model digital signatures with HMAC-SHA256 under a
// per-node secret held in a shared KeyStore: Sign(node, msg) succeeds only
// when called through the node's own Signer handle, while any node can
// Verify. This preserves the property the protocol needs — a byzantine node
// cannot forge another node's signature — without pulling in a big-number
// public-key implementation. (The paper's own prototype skipped signature
// creation/checking entirely; see DESIGN.md §1.)
#ifndef BLOCKPLANE_CRYPTO_SIGNER_H_
#define BLOCKPLANE_CRYPTO_SIGNER_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "common/codec.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/status.h"
#include "crypto/hmac.h"
#include "net/node_id.h"

namespace blockplane::crypto {

/// A 32-byte signature over a message, attributable to a node.
struct Signature {
  net::NodeId signer;
  Digest mac{};

  BP_WIRE(Signature, signer, mac)
  /// Decode cap on a list of signatures (PBFT proofs).
  static constexpr uint64_t kWireListCap = 4096;

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.signer == b.signer && a.mac == b.mac;
  }
};

class Signer;

/// A compact certificate (crypto/quorum_cert.h, DESIGN.md §14):
/// `signer_bits` distinct nodes of `site` signed one canonical message,
/// and `agg` is SHA-256 over their MACs in ascending signer-index order.
struct QuorumCert {
  net::SiteId site = -1;
  /// The node index bit 0 maps to. Signer groups are dense but not always
  /// zero-based: unit nodes are 0..3f_i, while mirror groups occupy a
  /// disjoint range per mirrored origin (100*(origin+1)+k). The base keeps
  /// the bitmap 64 bits regardless of where the group sits.
  int32_t index_base = 0;
  /// Bit k set = node index `index_base + k` of `site` contributed its
  /// MAC. A group is 3f_i+1 nodes, so 64 bits covers f_i <= 21; signers
  /// further than 64 from the base cannot be certified.
  uint64_t signer_bits = 0;
  /// SHA-256 over the constituent MACs, ascending signer index.
  Digest agg{};

  /// Number of distinct signers (popcount of the bitmap).
  int signer_count() const;

  BP_WIRE(QuorumCert, site, index_base, signer_bits, agg)
  /// Decode cap on a list of certs (the proof fields of core records).
  static constexpr uint64_t kWireListCap = 64;

  friend bool operator==(const QuorumCert& a, const QuorumCert& b) {
    return a.site == b.site && a.index_base == b.index_base &&
           a.signer_bits == b.signer_bits && a.agg == b.agg;
  }
};

/// Registry of node keys for one simulated deployment.
///
/// Hot-path design (see DESIGN.md §"Hot path & caching"):
///   * every key is stored alongside its PrecomputedHmacKey, so signing and
///     verifying cost 2 SHA-256 compressions instead of 4 plus schedule
///     setup — keys are long-lived per node, the midstates are computed
///     once at registration;
///   * Verify() consults a bounded verify-once cache of (signer, mac,
///     message) triples that have already verified. Quorum re-deliveries,
///     retransmissions, and certificates re-checked by every replica hit
///     the cache and skip the HMAC entirely. Only *successful*
///     verifications are cached, and a hit requires the full triple to
///     match byte-for-byte, so a forged or corrupted signature can never
///     ride a cache entry: it misses and takes (and fails) the full check.
class KeyStore {
 public:
  KeyStore() = default;
  BP_DISALLOW_COPY_AND_ASSIGN(KeyStore);

  /// Generates and registers a key for `node` (idempotent), returning the
  /// node's private signing handle.
  std::unique_ptr<Signer> RegisterNode(net::NodeId node);

  /// Verifies that `sig` is `sig.signer`'s signature over `msg`.
  bool Verify(const Bytes& msg, const Signature& sig) const;

  /// Verifies a quorum certificate (crypto/quorum_cert.h, DESIGN.md §14),
  /// the only proof format cross-site records carry: at least `threshold`
  /// signers in the bitmap, every listed MAC recomputed from registered
  /// key material, aggregate compared. Consults the digest-keyed
  /// two-generation cert cache first, so retransmissions, go-back-N
  /// trailing flights, backfill replays, and re-submissions cost one probe
  /// instead of f_i+1 signature checks.
  bool VerifyCert(const Bytes& msg, const QuorumCert& cert,
                  int threshold) const;

  /// Bounds the verify-once caches (total entries across both generations,
  /// applied to the signature cache and the cert cache independently).
  /// 0 disables caching; the default keeps roughly one WAN round's worth of
  /// certificates for a 4-site deployment.
  void set_verify_cache_capacity(size_t capacity) {
    verify_cache_capacity_ = capacity;
    if (capacity == 0) {
      sig_cache_.Clear();
      cert_cache_.Clear();
    }
  }
  size_t verify_cache_capacity() const { return verify_cache_capacity_; }

 private:
  friend class Signer;
  Digest SignAs(net::NodeId node, const Bytes& msg) const;
  /// The uncached half of VerifyCert: recomputes every listed signer's MAC
  /// and compares the aggregate.
  bool RecomputeCert(const Bytes& msg, const QuorumCert& cert) const;

  struct KeyEntry {
    Bytes raw;
    PrecomputedHmacKey hmac;
  };
  common::HashMap<net::NodeId, KeyEntry, net::NodeIdHash> keys_;
  uint64_t next_key_seed_ = 0x517cc1b727220a95ULL;

  /// One verified (proof, message) pair, where a proof is a Signature or
  /// a QuorumCert: the key covers every byte a forgery could vary.
  template <typename Proof>
  struct Verified {
    Proof proof;
    Bytes msg;
  };
  /// A cache probe that borrows the proof and the message instead of
  /// copying them.
  template <typename Proof>
  struct VerifiedView {
    const Proof& proof;
    const Bytes& msg;
  };
  /// Hash and equality over entries and views alike (transparent lookup).
  struct VerifiedHash {
    using is_transparent = void;
    template <typename V>
    size_t operator()(const V& v) const {
      return ProofHash(v.proof);
    }
  };
  struct VerifiedEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return a.proof == b.proof && a.msg == b.msg;
    }
  };
  static size_t ProofHash(const Signature& sig);
  static size_t ProofHash(const QuorumCert& cert);

  /// A two-generation bounded cache: inserts go to `cur`; when `cur` fills
  /// to half the capacity, it becomes `prev` and a fresh `cur` starts.
  /// Lookups consult both, so entries survive between half-capacity and
  /// capacity insertions — O(1) amortized, strictly bounded memory. A
  /// lookup copies nothing; only an insert copies the message.
  template <typename Proof>
  struct VerifyCache {
    common::HashSet<Verified<Proof>, VerifiedHash, VerifiedEq> cur;
    common::HashSet<Verified<Proof>, VerifiedHash, VerifiedEq> prev;

    bool Contains(const Proof& proof, const Bytes& msg) const {
      const VerifiedView<Proof> probe{proof, msg};
      return cur.contains(probe) || prev.contains(probe);
    }
    void Insert(const Proof& proof, const Bytes& msg, size_t capacity) {
      if (capacity == 0) return;
      if (cur.size() >= std::max<size_t>(1, capacity / 2)) {
        hotpath_stats().verify_cache_evictions +=
            static_cast<int64_t>(prev.size());
        prev = std::move(cur);
        cur.clear();
      }
      cur.insert(Verified<Proof>{proof, msg});
    }
    void Clear() {
      cur.clear();
      prev.clear();
    }
  };

  /// The signature cache keys (signer, mac, msg) triples; the cert cache
  /// keys whole certificates (DESIGN.md §14).
  size_t verify_cache_capacity_ = 8192;
  mutable VerifyCache<Signature> sig_cache_;
  mutable VerifyCache<QuorumCert> cert_cache_;
};

/// A node's private signing capability. Only the KeyStore can mint these.
class Signer {
 public:
  /// Signs a message as this node.
  Signature Sign(const Bytes& msg) const {
    return Signature{node_, store_->SignAs(node_, msg)};
  }

  net::NodeId node() const { return node_; }

 private:
  friend class KeyStore;
  Signer(const KeyStore* store, net::NodeId node)
      : store_(store), node_(node) {}

  const KeyStore* store_;
  net::NodeId node_;
};

}  // namespace blockplane::crypto

#endif  // BLOCKPLANE_CRYPTO_SIGNER_H_
