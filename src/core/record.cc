#include "core/record.h"

namespace blockplane::core {

namespace {

void PutSite(Encoder* enc, net::SiteId site) {
  enc->PutU32(static_cast<uint32_t>(site));
}

/// Streams `v` into `ctx` in Encoder's fixed-width little-endian layout.
template <typename T>
void HashFixed(crypto::Sha256* ctx, T v) {
  uint8_t bytes[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  ctx->Update(bytes, sizeof(T));
}

/// Streams `v` into `ctx` in Encoder's varint layout.
void HashVarint(crypto::Sha256* ctx, uint64_t v) {
  uint8_t bytes[10];
  size_t n = 0;
  while (v >= 0x80) {
    bytes[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  bytes[n++] = static_cast<uint8_t>(v);
  ctx->Update(bytes, n);
}

/// SHA-256 over the identity fields of a record (not the proofs, which vary
/// by which f_i+1 nodes happened to sign), fed to the hash in the exact byte
/// layout LogRecord::Encode gives them, without building that encoding.
crypto::Digest IdentityDigest(RecordType type, uint64_t routine_id,
                              const Bytes& payload, net::SiteId dest_site,
                              net::SiteId src_site, uint64_t src_log_pos,
                              uint64_t prev_src_log_pos, uint64_t geo_pos) {
  crypto::Sha256 ctx;
  HashFixed(&ctx, static_cast<uint8_t>(type));
  HashVarint(&ctx, routine_id);
  HashVarint(&ctx, payload.size());
  ctx.Update(payload);
  HashFixed(&ctx, static_cast<uint32_t>(dest_site));
  HashFixed(&ctx, static_cast<uint32_t>(src_site));
  HashFixed(&ctx, src_log_pos);
  HashFixed(&ctx, prev_src_log_pos);
  HashFixed(&ctx, geo_pos);
  return ctx.Finish();
}

}  // namespace

crypto::Digest LogRecord::ContentDigest() const {
  // The digest covers the identity fields and leaves out the two proof
  // lists. A new member must be put on one side or the other on purpose.
  static_assert(kMemberCount<LogRecord> == 10,
                "decide whether IdentityDigest covers the new LogRecord "
                "member, then update this count");
  return IdentityDigest(type, routine_id, payload, dest_site, src_site,
                        src_log_pos, prev_src_log_pos, geo_pos);
}

Bytes AttestCanonical(AttestPurpose purpose, net::SiteId site, uint64_t pos,
                      const crypto::Digest& digest) {
  // purpose, site, position, digest.
  const size_t size = 1 + 4 + 8 + digest.size();
  Encoder enc;
  enc.Reserve(size);
  enc.PutU8(static_cast<uint8_t>(purpose));
  PutSite(&enc, site);
  enc.PutU64(pos);
  enc.PutRaw(digest.data(), digest.size());
  BP_CHECK(enc.size() == size);
  return enc.Take();
}

crypto::Digest TransmissionRecord::ContentDigest() const {
  // The digest of the kReceived record this transmission becomes, without
  // copying the payload and proofs into one.
  return IdentityDigest(RecordType::kReceived, routine_id, payload, dest_site,
                        src_site, src_log_pos, prev_src_log_pos, geo_pos);
}

LogRecord TransmissionRecord::ToReceivedRecord() const {
  LogRecord record;
  record.type = RecordType::kReceived;
  record.routine_id = routine_id;
  record.payload = payload;
  record.dest_site = dest_site;
  record.src_site = src_site;
  record.src_log_pos = src_log_pos;
  record.prev_src_log_pos = prev_src_log_pos;
  record.geo_pos = geo_pos;
  record.proof = proof;
  record.geo_proof = geo_proof;
  return record;
}

}  // namespace blockplane::core
