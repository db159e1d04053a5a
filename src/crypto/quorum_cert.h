// Quorum certificates: the one proof format cross-site records carry
// (DESIGN.md §14).
//
// A source collects f_i+1 individual HMAC attestations and compresses
// them into
//
//   * the site whose nodes signed,
//   * a sorted signer bitmap (bit k set = node index k contributed), and
//   * one aggregated digest over the constituent MACs in ascending
//     signer-index order.
//
// The bitmap makes duplicate signers *unrepresentable* (a bit cannot be
// set twice), the aggregate binds every MAC byte-for-byte, and the whole
// certificate costs 48 wire bytes where the f_i+1 signatures would cost
// 40 bytes each. Verification recomputes each listed signer's MAC from
// the shared KeyStore and compares the aggregate — once; repeats hit the
// KeyStore's digest-keyed cert cache (see KeyStore::VerifyCert).
#ifndef BLOCKPLANE_CRYPTO_QUORUM_CERT_H_
#define BLOCKPLANE_CRYPTO_QUORUM_CERT_H_

#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "crypto/signer.h"
#include "net/node_id.h"

namespace blockplane::crypto {

/// A compact certificate: `signer_bits` distinct nodes of `site` signed
/// one canonical message, and `agg` is SHA-256 over their MACs in
/// ascending signer-index order.
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

/// Builds the certificate aggregating `sigs` (all signatures whose signer
/// belongs to `site`; other sites' entries and out-of-range indices are
/// ignored, duplicates keep the first occurrence). The constituent MACs
/// are assumed verified by the caller — honest builders aggregate only
/// signatures they collected and checked themselves.
QuorumCert BuildQuorumCert(net::SiteId site,
                           const std::vector<Signature>& sigs);

}  // namespace blockplane::crypto

#endif  // BLOCKPLANE_CRYPTO_QUORUM_CERT_H_
