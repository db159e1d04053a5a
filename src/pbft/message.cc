#include "pbft/message.h"

#include "crypto/sha256.h"

namespace blockplane::pbft {

namespace {

void PutDigest(Encoder* enc, const Digest& d) {
  enc->PutRaw(d.data(), d.size());
}

Status GetDigest(Decoder* dec, Digest* d) {
  return dec->GetRaw(d->data(), d->size());
}

}  // namespace

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

// --- RequestMsg --------------------------------------------------------------

Bytes RequestMsg::Encode() const {
  Encoder enc;
  enc.PutU64(client_token);
  enc.PutU64(req_id);
  enc.PutBytes(value);
  return enc.Take();
}

Status RequestMsg::Decode(const Bytes& buf, RequestMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->client_token));
  BP_RETURN_NOT_OK(dec.GetU64(&out->req_id));
  BP_RETURN_NOT_OK(dec.GetBytes(&out->value));
  return Status::OK();
}

// --- PrePrepareMsg -----------------------------------------------------------

Bytes PrePrepareMsg::CanonicalHeader() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(kPrePrepare));
  enc.PutU64(view);
  enc.PutU64(seq);
  PutDigest(&enc, digest);
  enc.PutU64(client_token);
  enc.PutU64(req_id);
  return enc.Take();
}

Bytes PrePrepareMsg::Encode() const {
  Encoder enc;
  enc.PutU64(view);
  enc.PutU64(seq);
  PutDigest(&enc, digest);
  enc.PutU64(client_token);
  enc.PutU64(req_id);
  crypto::EncodeSignature(&enc, sig);
  enc.PutBytes(value);
  return enc.Take();
}

Status PrePrepareMsg::Decode(const Bytes& buf, PrePrepareMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->view));
  BP_RETURN_NOT_OK(dec.GetU64(&out->seq));
  BP_RETURN_NOT_OK(GetDigest(&dec, &out->digest));
  BP_RETURN_NOT_OK(dec.GetU64(&out->client_token));
  BP_RETURN_NOT_OK(dec.GetU64(&out->req_id));
  BP_RETURN_NOT_OK(crypto::DecodeSignature(&dec, &out->sig));
  BP_RETURN_NOT_OK(dec.GetBytes(&out->value));
  return Status::OK();
}

// --- VoteMsg -----------------------------------------------------------------

Bytes VoteMsg::CanonicalBody() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutU64(view);
  enc.PutU64(seq);
  PutDigest(&enc, digest);
  return enc.Take();
}

Bytes VoteMsg::Encode() const {
  Encoder enc;
  enc.PutU64(view);
  enc.PutU64(seq);
  PutDigest(&enc, digest);
  crypto::EncodeSignature(&enc, sig);
  return enc.Take();
}

Status VoteMsg::Decode(PbftMessageType type, const Bytes& buf, VoteMsg* out) {
  out->type = type;
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->view));
  BP_RETURN_NOT_OK(dec.GetU64(&out->seq));
  BP_RETURN_NOT_OK(GetDigest(&dec, &out->digest));
  BP_RETURN_NOT_OK(crypto::DecodeSignature(&dec, &out->sig));
  return Status::OK();
}

// --- ReplyMsg ----------------------------------------------------------------

Bytes ReplyMsg::Encode() const {
  Encoder enc;
  enc.PutU64(view);
  enc.PutU64(req_id);
  enc.PutU64(seq);
  enc.PutU32(static_cast<uint32_t>(replica));
  PutDigest(&enc, result_digest);
  return enc.Take();
}

Status ReplyMsg::Decode(const Bytes& buf, ReplyMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->view));
  BP_RETURN_NOT_OK(dec.GetU64(&out->req_id));
  BP_RETURN_NOT_OK(dec.GetU64(&out->seq));
  uint32_t replica = 0;
  BP_RETURN_NOT_OK(dec.GetU32(&replica));
  out->replica = static_cast<int32_t>(replica);
  BP_RETURN_NOT_OK(GetDigest(&dec, &out->result_digest));
  return Status::OK();
}

// --- CheckpointMsg -----------------------------------------------------------

Bytes CheckpointMsg::CanonicalBody() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(kCheckpoint));
  enc.PutU64(seq);
  PutDigest(&enc, state_digest);
  return enc.Take();
}

Bytes CheckpointMsg::Encode() const {
  Encoder enc;
  enc.PutU64(seq);
  PutDigest(&enc, state_digest);
  crypto::EncodeSignature(&enc, sig);
  return enc.Take();
}

Status CheckpointMsg::Decode(const Bytes& buf, CheckpointMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->seq));
  BP_RETURN_NOT_OK(GetDigest(&dec, &out->state_digest));
  BP_RETURN_NOT_OK(crypto::DecodeSignature(&dec, &out->sig));
  return Status::OK();
}

// --- PreparedProof -----------------------------------------------------------

void PreparedProof::EncodeTo(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU64(seq);
  PutDigest(enc, digest);
  enc->PutU64(client_token);
  enc->PutU64(req_id);
  enc->PutBytes(value);
  crypto::EncodeSignature(enc, preprepare_sig);
  crypto::EncodeProof(enc, prepare_sigs);
}

Status PreparedProof::DecodeFrom(Decoder* dec, PreparedProof* out) {
  BP_RETURN_NOT_OK(dec->GetU64(&out->view));
  BP_RETURN_NOT_OK(dec->GetU64(&out->seq));
  BP_RETURN_NOT_OK(GetDigest(dec, &out->digest));
  BP_RETURN_NOT_OK(dec->GetU64(&out->client_token));
  BP_RETURN_NOT_OK(dec->GetU64(&out->req_id));
  BP_RETURN_NOT_OK(dec->GetBytes(&out->value));
  BP_RETURN_NOT_OK(crypto::DecodeSignature(dec, &out->preprepare_sig));
  BP_RETURN_NOT_OK(crypto::DecodeProof(dec, &out->prepare_sigs));
  return Status::OK();
}

// --- FetchCommittedMsg / CommittedEntryMsg ------------------------------------

Bytes FetchCommittedMsg::Encode() const {
  Encoder enc;
  enc.PutU64(from_seq);
  return enc.Take();
}

Status FetchCommittedMsg::Decode(const Bytes& buf, FetchCommittedMsg* out) {
  Decoder dec(buf);
  return dec.GetU64(&out->from_seq);
}

Bytes CommittedEntryMsg::Encode() const {
  Encoder enc;
  enc.PutU64(seq);
  enc.PutU64(view);
  PutDigest(&enc, digest);
  enc.PutU64(client_token);
  enc.PutU64(req_id);
  enc.PutBytes(value);
  crypto::EncodeProof(&enc, commit_sigs);
  return enc.Take();
}

Status CommittedEntryMsg::Decode(const Bytes& buf, CommittedEntryMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->seq));
  BP_RETURN_NOT_OK(dec.GetU64(&out->view));
  BP_RETURN_NOT_OK(GetDigest(&dec, &out->digest));
  BP_RETURN_NOT_OK(dec.GetU64(&out->client_token));
  BP_RETURN_NOT_OK(dec.GetU64(&out->req_id));
  BP_RETURN_NOT_OK(dec.GetBytes(&out->value));
  BP_RETURN_NOT_OK(crypto::DecodeProof(&dec, &out->commit_sigs));
  return Status::OK();
}

// --- SnapshotMsg --------------------------------------------------------------

Bytes SnapshotMsg::Encode() const {
  Encoder enc;
  enc.PutU64(seq);
  PutDigest(&enc, state_digest);
  crypto::EncodeProof(&enc, cert);
  return enc.Take();
}

Status SnapshotMsg::Decode(const Bytes& buf, SnapshotMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->seq));
  BP_RETURN_NOT_OK(GetDigest(&dec, &out->state_digest));
  return crypto::DecodeProof(&dec, &out->cert);
}

// --- ViewChangeMsg -----------------------------------------------------------

Bytes ViewChangeMsg::CanonicalBody() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(kViewChange));
  enc.PutU64(new_view);
  enc.PutU64(last_stable);
  return enc.Take();
}

Bytes ViewChangeMsg::Encode() const {
  Encoder enc;
  enc.PutU64(new_view);
  enc.PutU64(last_stable);
  enc.PutVarint(prepared.size());
  for (const PreparedProof& p : prepared) p.EncodeTo(&enc);
  crypto::EncodeSignature(&enc, sig);
  return enc.Take();
}

Status ViewChangeMsg::Decode(const Bytes& buf, ViewChangeMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->new_view));
  BP_RETURN_NOT_OK(dec.GetU64(&out->last_stable));
  uint64_t n = 0;
  BP_RETURN_NOT_OK(dec.GetVarint(&n));
  if (n > 100000) return Status::Corruption("oversized view-change");
  out->prepared.clear();
  for (uint64_t i = 0; i < n; ++i) {
    PreparedProof p;
    BP_RETURN_NOT_OK(PreparedProof::DecodeFrom(&dec, &p));
    out->prepared.push_back(std::move(p));
  }
  BP_RETURN_NOT_OK(crypto::DecodeSignature(&dec, &out->sig));
  return Status::OK();
}

// --- NewViewMsg --------------------------------------------------------------

Bytes NewViewMsg::CanonicalBody() const {
  Encoder inner;
  inner.PutVarint(view_changes.size());
  for (const Bytes& vc : view_changes) inner.PutBytes(vc);
  Digest set_digest = crypto::Sha256Digest(inner.buffer());

  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(kNewView));
  enc.PutU64(view);
  PutDigest(&enc, set_digest);
  return enc.Take();
}

Bytes NewViewMsg::Encode() const {
  Encoder enc;
  enc.PutU64(view);
  enc.PutVarint(view_changes.size());
  for (const Bytes& vc : view_changes) enc.PutBytes(vc);
  crypto::EncodeSignature(&enc, sig);
  return enc.Take();
}

Status NewViewMsg::Decode(const Bytes& buf, NewViewMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->view));
  uint64_t n = 0;
  BP_RETURN_NOT_OK(dec.GetVarint(&n));
  if (n > 10000) return Status::Corruption("oversized new-view");
  out->view_changes.clear();
  for (uint64_t i = 0; i < n; ++i) {
    Bytes vc;
    BP_RETURN_NOT_OK(dec.GetBytes(&vc));
    out->view_changes.push_back(std::move(vc));
  }
  BP_RETURN_NOT_OK(crypto::DecodeSignature(&dec, &out->sig));
  return Status::OK();
}

}  // namespace blockplane::pbft
