// PBFT wire messages. Each lists its members once, in wire order
// (common/codec.h).
//
// Every control message is signed over a canonical body: a message-type
// tag (so a prepare cannot be replayed as a commit) followed by every field
// listed before the signature. The pre-prepare's signature covers the
// header and the request digest, not the payload itself — payload
// integrity comes from the digest (RequestDigest), exactly as in Castro &
// Liskov's protocol.
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
  // 109 and 110 are retired.
  kFetchSnapshot = 111,
  kSnapshot = 112,
};

using crypto::Digest;
using crypto::Signature;

/// Packs a client NodeId into a routing token carried inside requests.
uint64_t ClientToken(net::NodeId id);
net::NodeId ClientFromToken(uint64_t token);

/// One link of the executed-state digest chain:
/// SHA-256(prev || seq || value_digest). Replicas chain every value they
/// execute. No-ops and duplicates execute nothing and leave no link, so the
/// sequence number pins each value to its position: a catch-up page cannot
/// move a value across such a gap.
Digest ChainDigest(const Digest& prev, uint64_t seq,
                   const Digest& value_digest);

/// The digest an instance's votes endorse: SHA-256(client_token || req_id
/// || value_digest). Like Castro and Liskov's D(m) over the whole request,
/// it binds the client and id that the dedup window records, so a leader
/// cannot give replicas one value under two ids and a commit certificate
/// proves the id a catch-up page carries.
Digest RequestDigest(uint64_t client_token, uint64_t req_id,
                     const Digest& value_digest);

struct RequestMsg {
  uint64_t client_token = 0;
  uint64_t req_id = 0;
  Bytes value;

  BP_WIRE(RequestMsg, client_token, req_id, value)
};

struct PrePrepareMsg {
  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest{};
  uint64_t client_token = 0;
  uint64_t req_id = 0;
  Bytes value;
  Signature sig;

  // `value` rides after the signature: `digest` binds it.
  BP_WIRE_SIGNED(PrePrepareMsg, kPrePrepare,
                 (view, seq, digest, client_token, req_id), sig, value)
};

/// Prepare and commit share a shape; the type tag in the canonical body
/// keeps their signatures distinct.
struct VoteMsg {
  // kPrepare or kCommit.
  PbftMessageType type = kPrepare;
  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest{};
  Signature sig;

  // `type` travels in the net::Message and tags the signed body.
  BP_WIRE_SIGNED(VoteMsg, type, (Envelope(type), view, seq, digest), sig)
  static Status Decode(PbftMessageType type, const Bytes& buf, VoteMsg* out) {
    out->type = type;
    return Decode(buf, out);
  }
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

  BP_WIRE(ReplyMsg, view, req_id, seq, replica, result_digest)
};

struct CheckpointMsg {
  uint64_t seq = 0;
  Digest state_digest{};
  Signature sig;

  BP_WIRE_SIGNED(CheckpointMsg, kCheckpoint, (seq, state_digest), sig)
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
  Signature preprepare_sig;             // over PrePrepareMsg canonical body
  std::vector<Signature> prepare_sigs;  // over VoteMsg canonical body

  BP_WIRE(PreparedProof, view, seq, digest, client_token, req_id, value,
          preprepare_sig, prepare_sigs)
};

/// One entry of the dedup window: request (client, id) executed at `seq`.
struct ExecutedRequest {
  uint64_t seq = 0;
  uint64_t client_token = 0;
  uint64_t req_id = 0;

  BP_WIRE(ExecutedRequest, Varint(seq), Varint(client_token), Varint(req_id))
};

/// What a checkpoint certifies: its `state_digest` is SHA-256 over this
/// encoding (DESIGN.md §10, retention).
struct CheckpointState {
  /// The ChainDigest over every value executed up to the checkpoint.
  Digest chain{};
  /// The executor's derived state (PbftReplica::StateHooks::save); empty
  /// without hooks.
  Bytes app;
  /// The dedup window: the requests executed at the 4·I sequence numbers
  /// up to the checkpoint, by seq.
  std::vector<ExecutedRequest> executed;

  BP_WIRE(CheckpointState, chain, app, executed)

  Digest StateDigest() const;
};

/// A stable checkpoint and its proof: 2f+1 checkpoint signatures over
/// (seq, state_digest). Seq 0 is the initial state and needs no proof.
struct StableCheckpoint {
  uint64_t seq = 0;
  Digest state_digest{};
  std::vector<Signature> cert;  // over CheckpointMsg canonical body

  BP_WIRE(StableCheckpoint, seq, state_digest, cert)
};

struct ViewChangeMsg {
  uint64_t new_view = 0;
  /// The sender's latest stable checkpoint, with its certificate: the new
  /// view starts above the highest one the set proves.
  StableCheckpoint stable;
  std::vector<PreparedProof> prepared;
  Signature sig;

  // The signature covers `prepared`: a new leader that drops a proof from
  // an honest view change breaks that view change's signature.
  BP_WIRE_SIGNED(ViewChangeMsg, kViewChange,
                 (new_view, stable, Capped<100000>(prepared)), sig)
};

/// The new leader's NEW-VIEW carries the full set of 2f+1 signed
/// view-change messages. Every replica recomputes the carried-over
/// proposals from that set deterministically, so a byzantine new leader
/// cannot smuggle in or suppress a prepared value.
struct NewViewMsg {
  uint64_t view = 0;
  std::vector<Bytes> view_changes;  // encoded, individually signed
  Signature sig;

  BP_WIRE_SIGNED(NewViewMsg, kNewView, (view, Capped<10000>(view_changes)),
                 sig)
};

/// State transfer (§VI-B: a recovering replica "reads the state of the
/// Local Log from other nodes to catch up"). A lagging replica broadcasts
/// kFetchSnapshot; every peer answers with one kSnapshot page.
struct FetchSnapshotMsg {
  uint64_t from_seq = 0;  // the asker's last executed seq + 1
  uint64_t view = 0;      // the asker's view

  BP_WIRE(FetchSnapshotMsg, from_seq, view)
};

/// One executed entry of a catch-up page. An entry above the page's
/// checkpoint carries its frozen commit certificate: 2f+1 commit votes of
/// `view`. An entry at or below it carries its value alone, and the
/// checkpoint's digest chain proves it.
struct CommittedEntry {
  uint64_t seq = 0;
  uint64_t view = 0;
  uint64_t client_token = 0;
  uint64_t req_id = 0;
  Bytes value;
  std::vector<Signature> commit_sigs;  // over VoteMsg(kCommit) canonical body

  BP_WIRE(CommittedEntry, seq, view, client_token, req_id, value,
          commit_sigs)
};

/// One catch-up page, in seq order from the asker's `from_seq`: executed
/// values up to the responder's next stable checkpoint (no entry for a
/// no-op or duplicate), then committed entries above it. `state` is what
/// `checkpoint` certifies. A base page starts at the responder's oldest
/// kept checkpoint and carries no values up to it: the asker installs
/// `state` instead. `new_view` holds the NEW-VIEW of the responder's view
/// when the asker's view is lower.
struct SnapshotMsg {
  StableCheckpoint checkpoint;
  CheckpointState state;
  std::vector<CommittedEntry> entries;
  std::vector<NewViewMsg> new_view;

  BP_WIRE(SnapshotMsg, checkpoint, state, entries, Capped<1>(new_view))
};

}  // namespace blockplane::pbft

#endif  // BLOCKPLANE_PBFT_MESSAGE_H_
