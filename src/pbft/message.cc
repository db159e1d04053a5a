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

Digest ChainDigest(const Digest& prev, const Digest& value_digest) {
  crypto::Sha256 ctx;
  ctx.Update(prev.data(), prev.size());
  ctx.Update(value_digest.data(), value_digest.size());
  return ctx.Finish();
}

}  // namespace blockplane::pbft
