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

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/codec.h"
#include "common/macros.h"
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
struct QuorumCert;  // crypto/quorum_cert.h

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
      verified_cur_.clear();
      verified_prev_.clear();
      cert_cur_.clear();
      cert_prev_.clear();
    }
  }
  size_t verify_cache_capacity() const { return verify_cache_capacity_; }

 private:
  friend class Signer;
  Digest SignAs(net::NodeId node, const Bytes& msg) const;
  /// The uncached half of VerifyCert: recomputes every listed signer's MAC
  /// and compares the aggregate.
  bool RecomputeCert(const Bytes& msg, const QuorumCert& cert) const;

  /// One verified (signer, mac, message) triple.
  struct VerifiedSig {
    net::NodeId signer;
    Digest mac;
    Bytes msg;
  };
  /// A cache probe that borrows the message instead of copying it.
  struct VerifiedSigView {
    const net::NodeId& signer;
    const Digest& mac;
    const Bytes& msg;
  };
  /// Hash and equality over entries and views alike (transparent lookup).
  struct VerifiedSigHash {
    using is_transparent = void;
    size_t operator()(const VerifiedSig& v) const {
      return Hash(v.signer, v.mac);
    }
    size_t operator()(const VerifiedSigView& v) const {
      return Hash(v.signer, v.mac);
    }
    static size_t Hash(const net::NodeId& signer, const Digest& mac);
  };
  struct VerifiedSigEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return a.signer == b.signer && a.mac == b.mac && a.msg == b.msg;
    }
  };
  using VerifiedSet =
      std::unordered_set<VerifiedSig, VerifiedSigHash, VerifiedSigEq>;

  bool CacheLookup(const VerifiedSigView& probe) const;
  void CacheInsert(VerifiedSig entry) const;

  struct KeyEntry {
    Bytes raw;
    PrecomputedHmacKey hmac;
  };
  std::unordered_map<net::NodeId, KeyEntry, net::NodeIdHash> keys_;
  uint64_t next_key_seed_ = 0x517cc1b727220a95ULL;

  /// One verified (site, bitmap, aggregate, message) certificate — the
  /// cert cache key covers every byte a forgery could vary.
  struct VerifiedCert {
    net::SiteId site;
    int32_t index_base;
    uint64_t signer_bits;
    Digest agg;
    Bytes msg;

    friend bool operator==(const VerifiedCert& a, const VerifiedCert& b) {
      return a.site == b.site && a.index_base == b.index_base &&
             a.signer_bits == b.signer_bits && a.agg == b.agg &&
             a.msg == b.msg;
    }
  };
  struct VerifiedCertHash {
    size_t operator()(const VerifiedCert& v) const;
  };
  using CertSet = std::unordered_set<VerifiedCert, VerifiedCertHash>;

  bool CertCacheLookup(const VerifiedCert& entry) const;
  void CertCacheInsert(VerifiedCert entry) const;

  /// Two-generation bounded caches: inserts go to `cur`; when `cur` fills
  /// to half the capacity, it becomes `prev` and a fresh `cur` starts.
  /// Lookups consult both, so entries survive between half-capacity and
  /// capacity insertions — O(1) amortized, strictly bounded memory. The
  /// signature cache keys (signer, mac, msg) triples (PR 1); the cert
  /// cache keys whole certificates (DESIGN.md §14).
  size_t verify_cache_capacity_ = 8192;
  mutable VerifiedSet verified_cur_;
  mutable VerifiedSet verified_prev_;
  mutable CertSet cert_cur_;
  mutable CertSet cert_prev_;
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
