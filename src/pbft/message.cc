#include "pbft/message.h"

#include "crypto/sha256.h"

namespace blockplane::pbft {

uint64_t ClientToken(net::NodeId id) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(id.site)) << 32) |
         static_cast<uint32_t>(id.index);
}

net::NodeId ClientFromToken(uint64_t token) {
  return net::NodeId{static_cast<int32_t>(token >> 32),
                     static_cast<int32_t>(token & 0xffffffffu)};
}

Digest ChainDigest(const Digest& prev, uint64_t seq,
                   const Digest& value_digest) {
  uint8_t seq_le[8];
  for (size_t i = 0; i < sizeof(seq_le); ++i) {
    seq_le[i] = static_cast<uint8_t>(seq >> (8 * i));
  }
  crypto::Sha256 ctx;
  ctx.Update(prev.data(), prev.size());
  ctx.Update(seq_le, sizeof(seq_le));
  ctx.Update(value_digest.data(), value_digest.size());
  return ctx.Finish();
}

Digest RequestDigest(uint64_t client_token, uint64_t req_id,
                     const Digest& value_digest) {
  uint8_t ids[16];
  for (size_t i = 0; i < 8; ++i) {
    ids[i] = static_cast<uint8_t>(client_token >> (8 * i));
    ids[8 + i] = static_cast<uint8_t>(req_id >> (8 * i));
  }
  crypto::Sha256 ctx;
  ctx.Update(ids, sizeof(ids));
  ctx.Update(value_digest.data(), value_digest.size());
  return ctx.Finish();
}

Digest CheckpointState::StateDigest() const {
  return crypto::Sha256Digest(Encode());
}

}  // namespace blockplane::pbft
