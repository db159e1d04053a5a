// Small Blockplane-space control messages (attestations, acks, status
// queries, geo replication). Each lists its members in wire order
// (common/codec.h).
#ifndef BLOCKPLANE_CORE_WIRE_H_
#define BLOCKPLANE_CORE_WIRE_H_

#include <vector>

#include "core/record.h"
#include "crypto/signer.h"
#include "pbft/message.h"

namespace blockplane::core {

struct TransmissionAckMsg {
  uint64_t src_log_pos = 0;

  BP_WIRE(TransmissionAckMsg, src_log_pos)
};

/// Stands in for a transmission body on a first attempt: the receiver
/// waits for the record at `src_log_pos` of the sender's site to commit in
/// its unit and acks it like a body, without submitting anything.
struct TransmissionNoticeMsg {
  uint64_t src_log_pos = 0;

  BP_WIRE(TransmissionNoticeMsg, src_log_pos)
};

struct AttestRequestMsg {
  AttestPurpose purpose = AttestPurpose::kTransmission;
  uint64_t pos = 0;            // unit log position
  net::SiteId dest_site = -1;  // kTransmission: which daemon stream

  BP_WIRE(AttestRequestMsg, purpose, pos, dest_site)
};

struct AttestResponseMsg {
  AttestPurpose purpose = AttestPurpose::kTransmission;
  uint64_t pos = 0;
  crypto::Signature sig;

  BP_WIRE(AttestResponseMsg, purpose, pos, sig)
};

struct DeliverNoticeMsg {
  net::SiteId src_site = -1;
  uint64_t src_log_pos = 0;
  uint64_t prev_src_log_pos = 0;  // lets the participant deliver in order
  Bytes payload;

  BP_WIRE(DeliverNoticeMsg, src_site, src_log_pos, prev_src_log_pos, payload)
};

struct RecvStatusQueryMsg {
  /// Which source participant's reception progress is being asked about;
  /// on a mirror node this is the mirrored origin and the reply reports the
  /// mirror-log high position.
  net::SiteId src_site = -1;

  BP_WIRE(RecvStatusQueryMsg, src_site)
};

/// Answers a RecvStatusQueryMsg. Before a takeover the participant sends
/// one to its own mirror group: `last_pos` is then the highest position a
/// peer mirror attests, and the leader backfills up to it (DESIGN.md §10).
struct RecvStatusReplyMsg {
  net::SiteId src_site = -1;
  uint64_t last_pos = 0;

  BP_WIRE(RecvStatusReplyMsg, src_site, last_pos)
};

struct GeoReplicateMsg {
  net::SiteId acting_site = -1;  // the (current) primary issuing the record
  uint64_t geo_pos = 0;
  Bytes record;  // encoded origin LogRecord
  /// The acting site's quorum cert over f_i+1 attestations: from its unit,
  /// or from its mirror group when it acts for a failed origin.
  std::vector<crypto::QuorumCert> proof;

  BP_WIRE(GeoReplicateMsg, acting_site, geo_pos, record, proof)
};

struct GeoAckMsg {
  uint64_t geo_pos = 0;
  crypto::Signature sig;  // over AttestCanonical(kGeoAck, mirror_site, ...)

  BP_WIRE(GeoAckMsg, geo_pos, sig)
};

/// Unit node -> own participant: the contiguous geo stream is stuck waiting
/// for `missing_geo_pos` while a later position sits in quarantine
/// (DESIGN.md §10, quarantine-and-gap-fill).
struct GeoGapNoticeMsg {
  uint64_t missing_geo_pos = 0;
  /// Highest geo position currently quarantined at the sender (diagnostic).
  uint64_t quarantined_high = 0;

  BP_WIRE(GeoGapNoticeMsg, missing_geo_pos, quarantined_high)
};

/// A read of one Local Log entry (§VI-A). Every node answers with the
/// outcome and the entry's value digest; only a node asked for the `body`
/// also ships the encoded entry.
struct ReadRequestMsg {
  uint64_t read_id = 0;
  uint64_t pos = 0;
  bool body = false;

  BP_WIRE(ReadRequestMsg, read_id, pos, body)
};

/// What a node holds at a read position: the entry, nothing committed
/// yet, or a position at or below its horizon (DESIGN.md §10, retention).
enum class ReadOutcome : uint8_t {
  kNotFound = 0,
  kFound = 1,
  kOutOfRange = 2,
};

inline Status WireGet(Decoder* dec, ReadOutcome* outcome) {
  return WireGetEnum(dec, outcome, ReadOutcome::kNotFound,
                     ReadOutcome::kOutOfRange);
}

struct ReadReplyMsg {
  uint64_t read_id = 0;
  uint64_t pos = 0;
  ReadOutcome outcome = ReadOutcome::kNotFound;
  /// When found: the SHA-256 of the encoded entry, the value digest PBFT
  /// computed when it executed (DESIGN.md §7); zero otherwise.
  crypto::Digest digest{};
  Bytes record;  // the encoded LogRecord, when found and asked for

  BP_WIRE(ReadReplyMsg, read_id, pos, outcome, digest, record)
};

/// Mirror gap backfill (§V, DESIGN.md §10): a lagging mirror group's
/// leader fetches the mirrored entries it is missing from peer mirrors. A
/// peer that no longer holds the first of them answers with its base.
struct MirrorFetchMsg {
  net::SiteId origin_site = -1;
  uint64_t from_geo_pos = 0;  // exclusive

  BP_WIRE(MirrorFetchMsg, origin_site, from_geo_pos)
};

struct MirrorEntryMsg {
  net::SiteId origin_site = -1;
  /// An encoded outer kMirrored LogRecord (with its proof), or a
  /// kMirrorBase one.
  Bytes record;

  BP_WIRE(MirrorEntryMsg, origin_site, record)
};

/// A position per site: a reception watermark per source, or the last
/// communication record per destination.
struct SitePos {
  net::SiteId site = -1;
  uint64_t pos = 0;

  BP_WIRE(SitePos, site, pos)
};

/// An API record quarantined at `seq` until the geo stream reaches
/// `geo_pos` (DESIGN.md §10).
struct QuarantinedRecord {
  uint64_t geo_pos = 0;
  uint64_t seq = 0;
  RecordType type = RecordType::kLogCommit;
  net::SiteId dest_site = -1;

  BP_WIRE(QuarantinedRecord, geo_pos, seq, type, dest_site)
};

/// A node's state derived from its Local Log or mirror log (DESIGN.md §10,
/// retention): what every checkpoint certifies beside the value chain and
/// the dedup window, and what a base page installs. A mirror node's
/// reception, communication and quarantine tables stay empty.
struct DerivedState {
  uint64_t applied_high = 0;
  uint64_t api_record_count = 0;
  std::vector<SitePos> received;   // by source site
  std::vector<SitePos> last_comm;  // by destination site
  uint64_t mirror_high = 0;
  std::vector<QuarantinedRecord> quarantined;  // by geo position

  BP_WIRE(DerivedState, applied_high, api_record_count, received, last_comm,
          mirror_high, quarantined)
};

/// The payload of a kMirrorBase record: a mirror group's horizon
/// checkpoint, the one its base pages carry, with the 2f_i+1 checkpoint
/// votes of that group and the state they certify (DESIGN.md §10,
/// retention). The record's `src_site` names the group's host site and its
/// `geo_pos` the state's mirror high.
struct MirrorBase {
  pbft::StableCheckpoint checkpoint;
  pbft::CheckpointState state;

  BP_WIRE(MirrorBase, checkpoint, state)
};

struct GeoProofBundleMsg {
  uint64_t pos = 0;  // unit log position of the communication record
  /// One quorum cert per mirror site that acked the record.
  std::vector<crypto::QuorumCert> proof;

  BP_WIRE(GeoProofBundleMsg, pos, proof)
};

}  // namespace blockplane::core

#endif  // BLOCKPLANE_CORE_WIRE_H_
