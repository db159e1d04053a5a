// HMAC-SHA256 (RFC 2104).
//
// Two implementations share one algorithm:
//
//   * HmacSha256() — the stateless reference path. Rebuilds the key block
//     and ipad/opad schedule on every call (4 compressions + setup for a
//     short message). Kept as the equivalence oracle for tests and as the
//     "naive" baseline for bench_hotpath.
//   * PrecomputedHmacKey — caches the inner/outer SHA-256 midstates of a
//     long-lived key (keys live for a whole deployment per node pair), so
//     each subsequent Sign/Verify costs 2 compressions for a short message
//     instead of 4 plus schedule setup. Bit-identical output by
//     construction: the midstate *is* the state after absorbing ipad/opad.
#ifndef BLOCKPLANE_CRYPTO_HMAC_H_
#define BLOCKPLANE_CRYPTO_HMAC_H_

#include "crypto/sha256.h"

namespace blockplane::crypto {

/// Computes HMAC-SHA256(key, message). Stateless reference path.
Digest HmacSha256(const Bytes& key, const uint8_t* data, size_t len);
inline Digest HmacSha256(const Bytes& key, const Bytes& data) {
  return HmacSha256(key, data.data(), data.size());
}
inline Digest HmacSha256(const Bytes& key, std::string_view s) {
  return HmacSha256(key, reinterpret_cast<const uint8_t*>(s.data()),
                    s.size());
}

/// A long-lived HMAC-SHA256 key with the per-key work hoisted out of the
/// per-message path: the key block, the ipad/opad XOR schedule, and the
/// first compression of both the inner and outer hash are done once at
/// construction and replayed from captured midstates on every Sign/Verify.
///
/// Output is bit-identical to HmacSha256() for every key length (keys
/// longer than the 64-byte block are pre-hashed, exactly as RFC 2104
/// specifies); tests/crypto_test.cc holds the property test.
class PrecomputedHmacKey {
 public:
  explicit PrecomputedHmacKey(const Bytes& key);

  /// HMAC-SHA256(key, data), from the cached midstates.
  Digest Sign(const uint8_t* data, size_t len) const;
  Digest Sign(const Bytes& data) const { return Sign(data.data(), data.size()); }
  Digest Sign(std::string_view s) const {
    return Sign(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  /// Constant-shape verify: recomputes the MAC and compares.
  bool Verify(const Bytes& data, const Digest& mac) const {
    return Sign(data) == mac;
  }

 private:
  Sha256Midstate inner_;  // state after absorbing key ^ ipad
  Sha256Midstate outer_;  // state after absorbing key ^ opad
};

}  // namespace blockplane::crypto

#endif  // BLOCKPLANE_CRYPTO_HMAC_H_
