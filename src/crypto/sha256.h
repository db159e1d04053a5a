// SHA-256 (FIPS 180-4), implemented from scratch. Used for message digests
// in PBFT pre-prepares and as the MAC core for node signatures. Whole blocks
// are compressed by the x86 SHA extensions when the CPU has them and by a
// portable scalar kernel otherwise (sha256_kernels.h); digests are the same
// on every host.
#ifndef BLOCKPLANE_CRYPTO_SHA256_H_
#define BLOCKPLANE_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"

namespace blockplane::crypto {

/// A 32-byte SHA-256 digest.
using Digest = std::array<uint8_t, 32>;

/// A captured compression-function state after a whole number of 64-byte
/// blocks. Lets long-lived keys amortize their first block (HMAC ipad/opad)
/// across many MAC computations; see PrecomputedHmacKey in hmac.h.
struct Sha256Midstate {
  uint32_t state[8];
  /// Bytes already absorbed into `state` (always a multiple of 64).
  uint64_t processed_bytes;
};

/// Streaming SHA-256 context.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  /// Finalizes and returns the digest; the context must be Reset() before
  /// reuse.
  Digest Finish();

  /// Captures the current compression state. Only valid when the byte count
  /// so far is a multiple of the 64-byte block size (no buffered partial
  /// block); checked.
  Sha256Midstate CaptureMidstate() const;

  /// Resets the context to a previously captured midstate, as if the bytes
  /// it covers had just been absorbed.
  void RestoreMidstate(const Sha256Midstate& midstate);

 private:
  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[64];
  size_t buffer_len_ = 0;
};

/// One-shot convenience.
Digest Sha256Digest(const uint8_t* data, size_t len);
inline Digest Sha256Digest(const Bytes& data) {
  return Sha256Digest(data.data(), data.size());
}
inline Digest Sha256Digest(std::string_view s) {
  return Sha256Digest(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

std::string DigestToHex(const Digest& d);
inline Bytes DigestToBytes(const Digest& d) {
  return Bytes(d.begin(), d.end());
}

/// The compression kernel this process selected: "sha-ni" or "scalar".
const char* Sha256Backend();

}  // namespace blockplane::crypto

#endif  // BLOCKPLANE_CRYPTO_SHA256_H_
