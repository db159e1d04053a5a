// The Local Log record model (§III-B of the paper) and the transmission
// records exchanged between participants (§IV-C).
//
// A participant's Local Log L_i holds two kinds of events written by the
// user-level interface — log-commit records and communication records —
// plus received records representing transmission records committed on the
// receiving side.
#ifndef BLOCKPLANE_CORE_RECORD_H_
#define BLOCKPLANE_CORE_RECORD_H_

#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "crypto/quorum_cert.h"
#include "crypto/sha256.h"
#include "net/message.h"
#include "net/node_id.h"

namespace blockplane::core {

/// Core-layer network message types (the PBFT module owns 101..112).
enum CoreMessageType : net::MessageType {
  kTransmission = 201,
  kTransmissionAck = 202,
  kAttestRequest = 203,
  kAttestResponse = 204,
  kDeliverNotice = 205,
  kRecvStatusQuery = 206,
  kRecvStatusReply = 207,
  kGeoReplicate = 208,
  kGeoAck = 209,
  kGeoProofBundle = 210,
  kReadRequest = 211,
  kReadReply = 212,
  kMirrorFetch = 213,
  kMirrorEntry = 214,
  // 215 and 216 are retired.
  /// Unit node -> own participant: an API record committed with a geo
  /// position ahead of the contiguous stream and was quarantined; the
  /// participant should nudge its pending submissions to fill the gap
  /// (byzantine-leader geo-reorder defense, DESIGN.md §10).
  kGeoGapNotice = 217,
  /// Source daemon -> destination node: a first attempt shipped the body
  /// of a transmission to another node of this unit; ack it once it
  /// commits (DESIGN.md §5 item 5).
  kTransmissionNotice = 218,
};

/// The paper's record-type annotation (§IV-B: "every value has a type
/// annotation that represents the type of the record").
enum class RecordType : uint8_t {
  kLogCommit = 1,      // a state change persisted via log-commit
  kCommunication = 2,  // an outgoing message written via send
  kReceived = 3,       // a transmission record committed at the receiver
  kMirrored = 4,       // an entry of another participant's mirrored log (§V)
  /// A peer mirror group's certified checkpoint of the same mirrored log
  /// (DESIGN.md §10, retention): a lagging mirror group installs it instead
  /// of the entries up to its mirror high.
  kMirrorBase = 5,
};

inline Status WireGet(Decoder* dec, RecordType* t) {
  return WireGetEnum(dec, t, RecordType::kLogCommit, RecordType::kMirrorBase);
}

/// A Local Log entry. The same encoding is used as the PBFT value, so the
/// verification routines dispatch on the decoded record.
struct LogRecord {
  RecordType type = RecordType::kLogCommit;
  /// Which user verification routine applies (0 = accept-all default).
  uint64_t routine_id = 0;
  Bytes payload;

  /// kCommunication: destination participant.
  net::SiteId dest_site = -1;

  // --- kReceived only -------------------------------------------------------
  /// Source participant of the received message.
  net::SiteId src_site = -1;
  /// Position of the communication record in the source's Local Log.
  uint64_t src_log_pos = 0;
  /// Position of the previous communication record from the same source to
  /// this destination (0 if none) — the in-order chain pointer.
  uint64_t prev_src_log_pos = 0;
  /// Position in the origin participant's geo-replication stream (counts
  /// API records only; 0 when fg == 0). For kMirrored records this is the
  /// mirror-log position; for a kMirrorBase, the mirror high it installs.
  uint64_t geo_pos = 0;
  /// kReceived: the source unit's quorum cert over the transmission
  /// canonical bytes, embedded so every replica can run the receive
  /// verification routine. kMirrored: the acting site's cert over the
  /// geo-source canonical bytes, or — when the acting participant is local
  /// to the mirror group — a one-signer cert whose sole signer is
  /// ParticipantNodeId(site). Empty for API records.
  std::vector<crypto::QuorumCert> proof;
  /// kReceived with fg > 0: one cert per mirror site proving the source
  /// participant's geo-replication of this record.
  std::vector<crypto::QuorumCert> geo_proof;

  BP_WIRE(LogRecord, type, Varint(routine_id), payload, dest_site, src_site,
          src_log_pos, prev_src_log_pos, geo_pos, proof, geo_proof)

  /// Content digest used in attestations (always SHA-256: records are the
  /// unit of trust between sites).
  crypto::Digest ContentDigest() const;
};

/// Purposes bound into attestation signatures so one attestation cannot be
/// replayed as another.
enum class AttestPurpose : uint8_t {
  kTransmission = 1,  // "this communication record is committed at pos p"
  kGeoSource = 2,     // "this record is committed at pos p, replicate it"
  kGeoAck = 3,        // "this record is committed in my mirror log"
};

inline Status WireGet(Decoder* dec, AttestPurpose* p) {
  return WireGetEnum(dec, p, AttestPurpose::kTransmission,
                     AttestPurpose::kGeoAck);
}

/// Canonical bytes a unit node signs to attest a committed record.
Bytes AttestCanonical(AttestPurpose purpose, net::SiteId site, uint64_t pos,
                      const crypto::Digest& digest);

/// A transmission record P (§IV-C): the message content plus a pointer to
/// the previous communication record to the same destination, carried with
/// the source unit's quorum cert over f_i+1 attestations.
struct TransmissionRecord {
  net::SiteId src_site = -1;
  net::SiteId dest_site = -1;
  uint64_t src_log_pos = 0;
  uint64_t prev_src_log_pos = 0;
  uint64_t routine_id = 0;
  Bytes payload;
  uint64_t geo_pos = 0;  // geo-replication stream position (fg > 0)
  std::vector<crypto::QuorumCert> proof;      // the source unit's cert
  std::vector<crypto::QuorumCert> geo_proof;  // one per mirror site (§V)

  /// The digest the source unit's attestations cover.
  crypto::Digest ContentDigest() const;

  BP_WIRE(TransmissionRecord, src_site, dest_site, src_log_pos,
          prev_src_log_pos, Varint(routine_id), payload, geo_pos, proof,
          geo_proof)

  /// The kReceived Local Log record this transmission becomes on commit.
  LogRecord ToReceivedRecord() const;
};

}  // namespace blockplane::core

#endif  // BLOCKPLANE_CORE_RECORD_H_
