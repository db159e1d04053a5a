#include "crypto/hmac.h"

#include <cstring>

#include "common/metrics.h"

namespace blockplane::crypto {

namespace {

constexpr size_t kBlock = 64;

/// Expands `key` into the 64-byte HMAC key block (hash-then-pad for
/// oversized keys, zero-pad otherwise).
void BuildKeyBlock(const Bytes& key, uint8_t key_block[kBlock]) {
  std::memset(key_block, 0, kBlock);
  if (key.size() > kBlock) {
    Digest kd = Sha256Digest(key);
    std::memcpy(key_block, kd.data(), kd.size());
  } else if (!key.empty()) {
    // The empty-key guard matters: memcpy from a null source is undefined
    // even for zero bytes, and an empty Bytes has data() == nullptr.
    std::memcpy(key_block, key.data(), key.size());
  }
}

}  // namespace

Digest HmacSha256(const Bytes& key, const uint8_t* data, size_t len) {
  uint8_t key_block[kBlock];
  BuildKeyBlock(key, key_block);

  uint8_t ipad[kBlock];
  uint8_t opad[kBlock];
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.Update(ipad, kBlock);
  inner.Update(data, len);
  Digest inner_digest = inner.Finish();

  Sha256 outer;
  outer.Update(opad, kBlock);
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

PrecomputedHmacKey::PrecomputedHmacKey(const Bytes& key) {
  uint8_t key_block[kBlock];
  BuildKeyBlock(key, key_block);

  uint8_t pad[kBlock];
  Sha256 ctx;
  for (size_t i = 0; i < kBlock; ++i) pad[i] = key_block[i] ^ 0x36;
  ctx.Update(pad, kBlock);
  inner_ = ctx.CaptureMidstate();

  ctx.Reset();
  for (size_t i = 0; i < kBlock; ++i) pad[i] = key_block[i] ^ 0x5c;
  ctx.Update(pad, kBlock);
  outer_ = ctx.CaptureMidstate();
}

Digest PrecomputedHmacKey::Sign(const uint8_t* data, size_t len) const {
  hotpath_stats().hmac_precomputed_ops++;
  Sha256 ctx;
  ctx.RestoreMidstate(inner_);
  ctx.Update(data, len);
  Digest inner_digest = ctx.Finish();

  ctx.RestoreMidstate(outer_);
  ctx.Update(inner_digest.data(), inner_digest.size());
  return ctx.Finish();
}

}  // namespace blockplane::crypto
