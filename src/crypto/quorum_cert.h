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

// QuorumCert itself is defined in crypto/signer.h, beside the KeyStore that
// verifies and caches it.

/// Builds the certificate aggregating `sigs` (all signatures whose signer
/// belongs to `site`; other sites' entries and out-of-range indices are
/// ignored, duplicates keep the first occurrence). The constituent MACs
/// are assumed verified by the caller — honest builders aggregate only
/// signatures they collected and checked themselves.
QuorumCert BuildQuorumCert(net::SiteId site,
                           const std::vector<Signature>& sigs);

}  // namespace blockplane::crypto

#endif  // BLOCKPLANE_CRYPTO_QUORUM_CERT_H_
