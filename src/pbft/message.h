// bplint:wire-coverage — every field below must appear in Encode,
// Decode, and the canonical (signed) body (BP003).
// PBFT wire messages and their binary encodings.
//
// Every control message is signed over a canonical body that includes a
// message-type tag (so a prepare cannot be replayed as a commit). The
// pre-prepare's signature covers the header + payload digest, not the
// payload itself — payload integrity comes from the digest, exactly as in
// Castro & Liskov's protocol.
#ifndef BLOCKPLANE_PBFT_MESSAGE_H_
#define BLOCKPLANE_PBFT_MESSAGE_H_

#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "crypto/signer.h"
#include "net/message.h"

namespace blockplane::pbft {

/// Network message-type tags for the PBFT module.
enum PbftMessageType : net::MessageType {
  kRequest = 101,
  kPrePrepare = 102,
  kPrepare = 103,
  kCommit = 104,
  kReply = 105,
  kCheckpoint = 106,
  kViewChange = 107,
  kNewView = 108,
  kFetchCommitted = 109,
  kCommittedEntry = 110,
  kFetchSnapshot = 111,
  kSnapshot = 112,
};

using crypto::Digest;
using crypto::Signature;

/// Packs a client NodeId into a routing token carried inside requests.
uint64_t ClientToken(net::NodeId id);
net::NodeId ClientFromToken(uint64_t token);

/// One link of the executed-state digest chain: SHA-256(prev || value_digest).
/// Replicas chain every executed value's digest; Blockplane nodes keep the
/// same chain to verify synced logs against a certified checkpoint.
Digest ChainDigest(const Digest& prev, const Digest& value_digest);

struct RequestMsg {
  uint64_t client_token = 0;
  uint64_t req_id = 0;
  Bytes value;

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, RequestMsg* out);
};

struct PrePrepareMsg {
  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest{};
  uint64_t client_token = 0;
  uint64_t req_id = 0;
  // bplint:allow(BP003) integrity bound via the digest field, as in PBFT
  Bytes value;
  Signature sig;  // over the canonical header

  /// Canonical signed header (type tag, view, seq, digest, client, req_id).
  Bytes CanonicalHeader() const;
  Bytes Encode() const;
  static Status Decode(const Bytes& buf, PrePrepareMsg* out);
};

/// Prepare and commit share a shape; the type tag in the canonical body
/// keeps their signatures distinct.
struct VoteMsg {
  // kPrepare or kCommit.
  // bplint:allow(BP003) type rides the net::Message envelope; Decode takes it
  PbftMessageType type = kPrepare;
  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest{};
  Signature sig;

  Bytes CanonicalBody() const;
  Bytes Encode() const;
  static Status Decode(PbftMessageType type, const Bytes& buf, VoteMsg* out);
};

struct ReplyMsg {
  uint64_t view = 0;
  uint64_t req_id = 0;
  uint64_t seq = 0;  // sequence number assigned to the request
  int32_t replica = -1;
  /// The replica's rolling state digest after executing `seq`. Honest
  /// replicas agree on it; a client therefore accepts a result only once
  /// f+1 replies match on (seq, result_digest) — f+1 replies that agree on
  /// seq alone could still hide up to f divergent (lying) states.
  Digest result_digest{};

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, ReplyMsg* out);
};

struct CheckpointMsg {
  uint64_t seq = 0;
  Digest state_digest{};
  Signature sig;

  Bytes CanonicalBody() const;
  Bytes Encode() const;
  static Status Decode(const Bytes& buf, CheckpointMsg* out);
};

/// A prepared certificate carried in view changes: the instance plus its
/// prepare-phase evidence — the leader's pre-prepare signature and 2f
/// prepare signatures, i.e. 2f+1 distinct endorsers, so any replica can
/// verify a value really prepared in `view`.
struct PreparedProof {
  uint64_t view = 0;  // view in which it prepared
  uint64_t seq = 0;
  Digest digest{};
  uint64_t client_token = 0;
  uint64_t req_id = 0;
  Bytes value;
  Signature preprepare_sig;             // over PrePrepareMsg canonical header
  std::vector<Signature> prepare_sigs;  // over VoteMsg canonical body

  void EncodeTo(Encoder* enc) const;
  static Status DecodeFrom(Decoder* dec, PreparedProof* out);
};

/// State transfer (§VI-B of the paper: a recovering replica "reads the
/// state of the Local Log from other nodes to catch up"). A lagging replica
/// broadcasts kFetchCommitted{from_seq}; peers answer with committed
/// entries plus their 2f+1 commit-signature certificates.
struct FetchCommittedMsg {
  uint64_t from_seq = 0;

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, FetchCommittedMsg* out);
};

struct CommittedEntryMsg {
  uint64_t seq = 0;
  uint64_t view = 0;  // view whose commit votes form the certificate
  Digest digest{};
  uint64_t client_token = 0;
  uint64_t req_id = 0;
  Bytes value;
  std::vector<Signature> commit_sigs;  // over VoteMsg(kCommit) canonical body

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, CommittedEntryMsg* out);
};

/// Snapshot transfer for nodes that fell behind the stable-checkpoint
/// garbage-collection window. The certificate — 2f+1 checkpoint signatures
/// over (seq, state digest) — proves the digest; the application layer then
/// fetches the log contents from any single peer and verifies them against
/// the certified digest chain.
struct SnapshotMsg {
  uint64_t seq = 0;
  Digest state_digest{};
  std::vector<Signature> cert;  // over CheckpointMsg canonical body

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, SnapshotMsg* out);
};

struct ViewChangeMsg {
  uint64_t new_view = 0;
  uint64_t last_stable = 0;
  // bplint:allow(BP003) each PreparedProof carries its own 2f+1 signatures
  std::vector<PreparedProof> prepared;
  Signature sig;  // over (tag, new_view, last_stable)

  Bytes CanonicalBody() const;
  Bytes Encode() const;
  static Status Decode(const Bytes& buf, ViewChangeMsg* out);
};

/// The new leader's NEW-VIEW carries the full set of 2f+1 signed
/// view-change messages. Every replica recomputes the carried-over
/// proposals from that set deterministically, so a byzantine new leader
/// cannot smuggle in or suppress a prepared value.
struct NewViewMsg {
  uint64_t view = 0;
  std::vector<Bytes> view_changes;  // encoded, individually signed
  Signature sig;                    // over (tag, view, digest(view_changes))

  Bytes CanonicalBody() const;
  Bytes Encode() const;
  static Status Decode(const Bytes& buf, NewViewMsg* out);
};

}  // namespace blockplane::pbft

#endif  // BLOCKPLANE_PBFT_MESSAGE_H_
