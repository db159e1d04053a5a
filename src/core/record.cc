#include "core/record.h"

namespace blockplane::core {

namespace {

void PutSite(Encoder* enc, net::SiteId site) {
  enc->PutU32(static_cast<uint32_t>(site));
}

Status GetSite(Decoder* dec, net::SiteId* site) {
  uint32_t v = 0;
  BP_RETURN_NOT_OK(dec->GetU32(&v));
  *site = static_cast<net::SiteId>(v);
  return Status::OK();
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

Bytes LogRecord::Encode() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutVarint(routine_id);
  enc.PutBytes(payload);
  PutSite(&enc, dest_site);
  PutSite(&enc, src_site);
  enc.PutU64(src_log_pos);
  enc.PutU64(prev_src_log_pos);
  enc.PutU64(geo_pos);
  crypto::EncodeCertList(&enc, proof);
  crypto::EncodeCertList(&enc, geo_proof);
  return enc.Take();
}

Status LogRecord::Decode(const Bytes& buf, LogRecord* out) {
  Decoder dec(buf);
  uint8_t type = 0;
  BP_RETURN_NOT_OK(dec.GetU8(&type));
  if (type < 1 || type > 4) return Status::Corruption("bad record type");
  out->type = static_cast<RecordType>(type);
  BP_RETURN_NOT_OK(dec.GetVarint(&out->routine_id));
  BP_RETURN_NOT_OK(dec.GetBytes(&out->payload));
  BP_RETURN_NOT_OK(GetSite(&dec, &out->dest_site));
  BP_RETURN_NOT_OK(GetSite(&dec, &out->src_site));
  BP_RETURN_NOT_OK(dec.GetU64(&out->src_log_pos));
  BP_RETURN_NOT_OK(dec.GetU64(&out->prev_src_log_pos));
  BP_RETURN_NOT_OK(dec.GetU64(&out->geo_pos));
  BP_RETURN_NOT_OK(crypto::DecodeCertList(&dec, &out->proof));
  return crypto::DecodeCertList(&dec, &out->geo_proof);
}

crypto::Digest LogRecord::ContentDigest() const {
  return IdentityDigest(type, routine_id, payload, dest_site, src_site,
                        src_log_pos, prev_src_log_pos, geo_pos);
}

Bytes AttestCanonical(AttestPurpose purpose, net::SiteId site, uint64_t pos,
                      const crypto::Digest& digest) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(purpose));
  PutSite(&enc, site);
  enc.PutU64(pos);
  enc.PutRaw(digest.data(), digest.size());
  return enc.Take();
}

crypto::Digest TransmissionRecord::ContentDigest() const {
  // The digest of the kReceived record this transmission becomes, without
  // copying the payload and proofs into one.
  return IdentityDigest(RecordType::kReceived, routine_id, payload, dest_site,
                        src_site, src_log_pos, prev_src_log_pos, geo_pos);
}

Bytes TransmissionRecord::Encode() const {
  Encoder enc;
  PutSite(&enc, src_site);
  PutSite(&enc, dest_site);
  enc.PutU64(src_log_pos);
  enc.PutU64(prev_src_log_pos);
  enc.PutVarint(routine_id);
  enc.PutBytes(payload);
  enc.PutU64(geo_pos);
  crypto::EncodeCertList(&enc, proof);
  crypto::EncodeCertList(&enc, geo_proof);
  return enc.Take();
}

Status TransmissionRecord::Decode(const Bytes& buf, TransmissionRecord* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(GetSite(&dec, &out->src_site));
  BP_RETURN_NOT_OK(GetSite(&dec, &out->dest_site));
  BP_RETURN_NOT_OK(dec.GetU64(&out->src_log_pos));
  BP_RETURN_NOT_OK(dec.GetU64(&out->prev_src_log_pos));
  BP_RETURN_NOT_OK(dec.GetVarint(&out->routine_id));
  BP_RETURN_NOT_OK(dec.GetBytes(&out->payload));
  BP_RETURN_NOT_OK(dec.GetU64(&out->geo_pos));
  BP_RETURN_NOT_OK(crypto::DecodeCertList(&dec, &out->proof));
  return crypto::DecodeCertList(&dec, &out->geo_proof);
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
