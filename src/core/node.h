// A Blockplane node: one of the 3f_i+1 machines a participant runs
// (§III-B). Each node hosts
//
//   * a PBFT replica of the participant's Local Log (the local-commit
//     engine of §IV-B), with the verification-routine hook wired in,
//   * a full copy of the Local Log plus the reception bookkeeping used by
//     the built-in receive verification routine (§IV-C),
//   * the attestation service that signs transmission records and
//     geo-replication requests on behalf of the unit,
//   * the delivery path that turns committed received-records into
//     reception-buffer entries and notifies the participant process.
//
// The same class also hosts *mirror* logs (§V): a node whose `origin_site`
// differs from its own site replicates another participant's Local Log for
// geo-correlated fault tolerance and answers geo-replication requests with
// geo-acks instead of delivery notices.
//
// Every node keeps a bounded window of its log (DESIGN.md §10, retention):
// when its replica adopts a stable checkpoint c it drops the entries at or
// below c - 4·I, except communication records one of its daemons still has
// to ship. A mirror group that falls behind a peer group's horizon installs
// that group's certified checkpoint (a kMirrorBase record) instead of
// fetching every entry.
#ifndef BLOCKPLANE_CORE_NODE_H_
#define BLOCKPLANE_CORE_NODE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/hash.h"
#include "core/options.h"
#include "core/record.h"
#include "crypto/signer.h"
#include "net/network.h"
#include "pbft/replica.h"

namespace blockplane::core {

class CommDaemon;

/// The network address of a site's participant (user-space) process.
net::NodeId ParticipantNodeId(net::SiteId site);

/// The address of node `index` in the mirror group replicating
/// `origin_site`'s log at `host_site` (§V).
net::NodeId MirrorNodeId(net::SiteId host_site, net::SiteId origin_site,
                         int index);

/// Whether `node` is one of the 3f_i+1 nodes of the group whose node 0 is
/// `first`: a unit (`{site, 0}`) or a mirror group (`MirrorNodeId(host,
/// origin, 0)`). A site can host a unit and mirror groups side by side, so
/// a quorum about one group's log counts only that group's replies.
bool InGroup(net::NodeId node, net::NodeId first, int fi);

/// The highest position some `threshold` repliers jointly report: the
/// `threshold`-th largest reply, or 0 with fewer replies.
uint64_t AttestedHigh(const std::map<net::NodeId, uint64_t>& replies,
                      int threshold);

/// Per-node user verification routine (§III-C): attests that a record is a
/// valid state transition given this node's replica of the protocol state.
using VerifyRoutine = std::function<bool(const LogRecord&)>;

/// Per-node apply hook: lets a protocol replica (or test) observe every
/// Local Log append in order.
using ApplyHook = std::function<void(uint64_t pos, const LogRecord&)>;

/// A held Local Log entry: the decoded record and its value digest, the
/// SHA-256 of its encoding that PBFT computed when it executed. Read
/// replies and kGeoSource attestations carry the digest (DESIGN.md §7).
struct LogEntry : LogRecord {
  crypto::Digest value_digest{};
};

/// How a node lying on reads forges its answers (§VI-A).
enum class ReadLie : uint8_t {
  kNone,
  /// Forged entry bytes under the honest value digest.
  kForgedBody,
  /// A forged entry under its own digest, consistent on its face.
  kForgedEntry,
};

class BlockplaneNode : public net::Host {
 public:
  /// `group` is the PBFT group replicating this log; `origin_site` is the
  /// participant whose Local Log this is (== self.site for a unit node,
  /// different for a mirror).
  BlockplaneNode(net::Network* network, crypto::KeyStore* keys,
                 const BlockplaneOptions& options, pbft::PbftConfig group,
                 net::NodeId self, net::SiteId origin_site);
  ~BlockplaneNode() override;
  BP_DISALLOW_COPY_AND_ASSIGN(BlockplaneNode);

  void HandleMessage(const net::Message& msg) override;

  /// Registers the user verification routine for `routine_id`. Routine 0 is
  /// reserved (accept-all default).
  void RegisterVerifier(uint64_t routine_id, VerifyRoutine routine);
  void SetApplyHook(ApplyHook hook) { apply_hook_ = std::move(hook); }

  /// Submits a record for local commit with this node acting as the client
  /// (used by receive and geo-replication paths).
  void SubmitLocalCommit(const LogRecord& record);
  /// SubmitLocalCommit with an explicit request id and optional broadcast
  /// to every unit replica (escalation path for censored/stuck requests).
  void SubmitRequest(const LogRecord& record, uint64_t req_id,
                     bool broadcast);

  /// Starts the communication daemon for `dest` on this node. Rank 0 is
  /// the active daemon; a reserve of rank r >= 1 stays passive until it
  /// has seen a delivery gap for 2r polls (§IV-C, DESIGN.md §5 item 5).
  void StartCommDaemon(net::SiteId dest, int rank);

  /// Mirror role only: the other host sites mirroring the same origin, the
  /// fetch targets of gap backfill (§V, DESIGN.md §10). Backfill fills
  /// every mirror hole: after an outage, and before this site takes over.
  void SetMirrorPeerHosts(std::vector<net::SiteId> hosts) {
    mirror_peer_hosts_ = std::move(hosts);
  }

  /// §VI-B: after an outage, "the replica reads the state of the Local Log
  /// from other nodes to catch up with the current state". Call once the
  /// network declares this node recovered.
  void Recover() { replica_->CatchUp(); }

  /// Makes this node's daemons stop transmitting (byzantine test hook: a
  /// malicious daemon that pretends to send).
  void MuteDaemons();

  net::NodeId self() const { return self_; }
  net::SiteId origin_site() const { return origin_site_; }
  bool is_mirror() const { return origin_site_ != self_.site; }
  pbft::PbftReplica* replica() { return replica_.get(); }
  const BlockplaneOptions& options() const { return options_; }
  crypto::KeyStore* keys() const { return keys_; }
  net::Network* network() const { return network_; }

  /// The node's copy of the Local Log, 1-based by position: every entry
  /// above the horizon, plus the communication records at or below it
  /// that a daemon here still has to ship.
  const std::map<uint64_t, LogEntry>& log() const { return log_; }
  uint64_t log_size() const { return log_.empty() ? 0 : log_.rbegin()->first; }
  /// The position at or below which this node no longer serves its Local
  /// Log: reads there return OutOfRange.
  uint64_t horizon() const { return horizon_; }
  /// Mirror role: the highest geo position mirrored here, and the one at or
  /// below which this node serves no mirrored entry (the mirror high at its
  /// horizon or of the last base it installed). The entries between them
  /// are held, contiguously.
  uint64_t mirror_high() const { return mirror_high_pos_; }
  uint64_t mirror_horizon() const { return mirror_horizon_; }
  /// Rolling digest chain over applied values (invariant checking).
  const crypto::Digest& chain_digest() const {
    return replica_->state_digest();
  }
  /// Highest log position applied to this node's derived state.
  uint64_t applied_high() const { return applied_high_; }
  /// Number of API records released into the geo stream (== the geo
  /// position of the latest contiguously-applied API record when fg > 0).
  uint64_t api_record_count() const { return api_record_count_; }
  /// API records currently quarantined awaiting gap fill (DESIGN.md §10).
  size_t quarantined_api_records() const { return geo_quarantine_.size(); }
  /// Highest source-log position received (and committed) from `src`.
  uint64_t last_received_pos(net::SiteId src) const;
  /// Highest source-log position this node's daemon for `dest` has seen
  /// acknowledged by f_i+1 destination nodes (0 if no daemon here).
  uint64_t daemon_acked(net::SiteId dest) const;
  /// Whether this node's daemon for `dest` is shipping (false if no daemon
  /// here).
  bool daemon_active(net::SiteId dest) const;

  /// Byzantine test hooks.
  void SetByzantineMode(pbft::ByzantineMode mode) {
    replica_->SetByzantineMode(mode);
  }
  void RefuseAttestations() { refuse_attestations_ = true; }
  /// Makes this node inflate its reception watermark in status replies and
  /// transmission acks (an attack on the daemon-reserve gap detection,
  /// §IV-C, and on the active daemon's step-back).
  void LieAboutReception() { lie_about_reception_ = true; }
  /// Makes this node answer read requests with a forged entry (shows why
  /// read-1 trusts a single node while quorum reads do not, §VI-A).
  void LieOnReads(ReadLie lie) { read_lie_ = lie; }
  /// Makes this mirror node drop every geo replicate it receives while its
  /// replica stays honest (a faulty first receiver of the geo stream).
  void DropGeoReplicates() { drop_geo_replicates_ = true; }

 private:
  friend class CommDaemon;

  // -- PBFT hooks --
  bool VerifyValue(const Bytes& value);
  /// Leader-side admission check for the pipelined proposal window
  /// (DESIGN.md §9): judges a candidate value against a *projected* state
  /// that assumes every earlier admitted value commits, and advances the
  /// projection on success. At window 1 this degenerates to VerifyValue.
  bool AdmitValue(const Bytes& value);
  /// Re-bases the admission projection on applied state (called by the
  /// replica on view entry before replaying the in-flight values through
  /// AdmitValue).
  void ResetAdmission();
  /// Applies a value the replica executed (in order, whether it committed
  /// here or arrived in a catch-up page) to this node's Local Log copy and
  /// derived state. `value_digest` is the SHA-256 of `value`.
  void OnExecute(uint64_t seq, const Bytes& value,
                 const crypto::Digest& value_digest);

  // -- retention (DESIGN.md §10) --
  /// The derived state a checkpoint certifies (DerivedState, encoded).
  Bytes SaveState() const;
  /// Installs a certified base state at `seq`: nothing at or below it is
  /// held here any more.
  bool LoadState(uint64_t seq, const Bytes& encoded);
  /// Drops the entries at or below `horizon` and their side tables, except
  /// what a daemon here still has to ship and quarantined API records.
  void DropThrough(uint64_t horizon);
  /// The digest this node attests for the communication record at `pos`:
  /// the record as its destination will receive it, chain pointer
  /// included.
  crypto::Digest TransmissionDigest(uint64_t pos,
                                    const LogRecord& record) const;
  /// The daemon here for `dest`, or null.
  const CommDaemon* DaemonFor(net::SiteId dest) const;

  /// Commit-time geo-contiguity gate for API records (DESIGN.md §10,
  /// quarantine-and-gap-fill). Returns true when the record may enter the
  /// api stream now; false when it was quarantined (side effects deferred
  /// until the gap fills) or dropped (stale duplicate / absurd position).
  bool AdmitApiRecord(uint64_t seq, const LogRecord& record);
  /// Api-stream side effects of an applied API record: api position
  /// assignment, communication-stream bookkeeping, daemon notification.
  void ApplyApiRecord(uint64_t seq, RecordType type, net::SiteId dest_site,
                      uint64_t geo_pos);
  /// Releases quarantined records whose geo positions became contiguous.
  void ReleaseQuarantineContiguous();

  /// The built-in receive verification routine (§IV-C).
  bool VerifyReceived(const LogRecord& record) const;
  /// VerifyReceived with an explicit reception watermark, so the admission
  /// projection can run the same checks against projected state.
  bool VerifyReceivedAt(const LogRecord& record, uint64_t last) const;
  /// Verification for mirror-log entries (§V).
  bool VerifyMirrored(const LogRecord& record) const;
  /// The stateless (proof-only) part of VerifyMirrored, shared with the
  /// admission projection.
  bool VerifyMirroredProof(const LogRecord& record) const;
  /// Verification for a peer mirror group's base (DESIGN.md §10): 2f_i+1
  /// valid checkpoint votes of a host that mirrors the same origin, the
  /// state they certify, and a mirror high above `high`.
  bool VerifyMirrorBase(const LogRecord& record, uint64_t high) const;
  /// Position of the last communication record to `dest` before `pos`.
  uint64_t PrevCommPos(net::SiteId dest, uint64_t pos) const;

  // -- message handlers --
  /// A transmission record from a source daemon (§IV-C): duplicates are
  /// acked and dropped; new records are submitted for commit, where the
  /// receive verification routine checks their proofs.
  void OnTransmission(const net::Message& msg);
  /// A first attempt's notice (DESIGN.md §5 item 5): registers the sender
  /// for the ack of a record another node of this unit received, and
  /// submits nothing.
  void OnTransmissionNotice(const net::Message& msg);
  /// A unit peer's attestation of one of this node's daemon flights.
  void OnAttestResponse(const net::Message& msg);
  void OnAttestRequest(const net::Message& msg);
  /// A read (§VI-A): the outcome and the stored value digest, plus the
  /// encoded entry when the reader asked for it.
  void OnReadRequest(const net::Message& msg);
  void OnRecvStatusQuery(const net::Message& msg);
  /// The reception watermark this node reports, inflated under
  /// LieAboutReception.
  uint64_t ReportedReception(uint64_t pos) const;
  /// Tells daemon `to` that this node committed its stream up to `pos`
  /// (the chain commits in order, so an ack is cumulative).
  void SendTransmissionAck(net::NodeId to, uint64_t pos);
  void OnGeoReplicate(const net::Message& msg);
  void OnGeoProofBundle(const net::Message& msg);
  /// Tells the participant that a received record committed (§IV-C);
  /// the Resend variant repeats it for the record after `delivered`.
  void SendDeliverNotice(const LogRecord& record);
  void ResendDeliverNotice(net::SiteId src, uint64_t delivered);

  // -- mirror gap backfill (§V, DESIGN.md §10) --
  /// A peer mirror's kMirrorFetch: the entries from its position on, or
  /// this node's base when it no longer holds the first of them.
  void OnMirrorFetch(const net::Message& msg);
  /// A fetched (or ahead-of-stream replicated) mirror entry arrived:
  /// buffer it and drain whatever became contiguous. A base goes to
  /// admission.
  void OnMirrorEntry(const net::Message& msg);
  /// Rate-limited, leader-only kMirrorFetch fan-out to the peer mirror
  /// hosts for the positions between `mirror_high_pos_` and
  /// `target_geo_pos`.
  void MaybeFetchMirrorGap(uint64_t target_geo_pos);
  /// Submits buffered backfill entries that extend the mirror log
  /// contiguously; admission re-verifies every proof.
  void DrainMirrorBackfill();

  void SendTo(net::NodeId dst, net::MessageType type, Bytes payload);

  net::Network* network_;
  sim::Simulator* sim_;
  crypto::KeyStore* keys_;
  std::unique_ptr<crypto::Signer> signer_;
  BlockplaneOptions options_;
  net::NodeId self_;
  net::SiteId origin_site_;

  std::unique_ptr<pbft::PbftReplica> replica_;
  std::map<uint64_t, LogEntry> log_;
  uint64_t horizon_ = 0;
  /// Communication records dropped on a node with no daemon for their
  /// destination: the digest OnAttestRequest signs, by position (40 B
  /// each, in a deque so it grows without copies). A promoting reserve may
  /// need these attestations (DESIGN.md §10).
  struct DroppedTransmission {
    uint64_t pos = 0;
    crypto::Digest digest{};

    bool operator<(uint64_t other) const { return pos < other; }
  };
  std::deque<DroppedTransmission> dropped_transmissions_;
  common::HashMap<uint64_t, VerifyRoutine> verifiers_;
  ApplyHook apply_hook_;

  /// Reception bookkeeping per source site.
  std::map<net::SiteId, uint64_t> last_received_pos_;
  /// Communication records per destination (positions, in order).
  std::map<net::SiteId, std::vector<uint64_t>> comm_positions_;
  /// Geo proofs (one cert per acking mirror site) attached by the
  /// participant, by log position.
  std::map<uint64_t, std::vector<crypto::QuorumCert>> geo_proofs_;

  /// Count of API records (log-commit + communication) executed so far —
  /// the geo-replication stream position of the latest API record.
  uint64_t api_record_count_ = 0;
  std::map<uint64_t, uint64_t> api_pos_by_log_pos_;

  /// Quarantined API records (geo_pos -> where/what), waiting for the geo
  /// stream to become contiguous again (DESIGN.md §10). Only populated on
  /// non-mirror nodes with fg > 0 under a byzantine geo-reordering leader;
  /// empty in every honest execution.
  struct QuarantinedApi {
    uint64_t seq = 0;
    RecordType type = RecordType::kLogCommit;
    net::SiteId dest_site = -1;
  };
  std::map<uint64_t, QuarantinedApi> geo_quarantine_;
  /// Maximum distance past the contiguous head a quarantined geo position
  /// may sit; anything further is byzantine garbage and is dropped from the
  /// api stream (its log entry and digest chain are unaffected).
  static constexpr uint64_t kGeoQuarantineSpan = 4096;

  /// Leader-side admission projection (DESIGN.md §9): what the applied
  /// state will look like once every admitted-but-unexecuted value commits.
  /// Floored at applied state on every admission (values can commit through
  /// paths the projection never saw, e.g. catch-up or other leaders' terms)
  /// and re-based by ResetAdmission on view entry.
  uint64_t adm_api_count_ = 0;
  uint64_t adm_mirror_high_ = 0;
  std::map<net::SiteId, uint64_t> adm_last_received_;

  /// Mirror role: high watermark of the mirror log, the geo position at or
  /// below which nothing is served (mirror_horizon()), and each held
  /// mirrored entry by geo position: its log position (a base makes the
  /// two differ) and its payload digest (for re-acks and attestations).
  uint64_t mirror_high_pos_ = 0;
  uint64_t mirror_horizon_ = 0;
  struct MirroredEntry {
    uint64_t seq = 0;
    crypto::Digest digest{};
  };
  std::map<uint64_t, MirroredEntry> mirror_entries_;

  /// Mirror gap backfill (§V, DESIGN.md §10). After an outage the geo
  /// stream has moved on; replicates for positions ahead of
  /// `mirror_high_pos_ + 1` (on the leader: ahead of its admission
  /// projection `adm_mirror_high_ + 1`) cannot be admitted (mirror logs
  /// commit strictly in geo order), so they are buffered here while the
  /// group leader fetches the hole from a peer mirror. Proof-checked on
  /// entry; re-verified in full at admission.
  std::vector<net::SiteId> mirror_peer_hosts_;
  std::map<uint64_t, LogRecord> mirror_backfill_;
  /// Highest backfill position already submitted for commit (re-based on
  /// the applied watermark at each fetch, so lost submissions are retried).
  uint64_t mirror_backfill_submitted_ = 0;
  /// The backfill target: the highest geo position of a proven replicate
  /// or of a takeover target relayed by the participant.
  uint64_t mirror_gap_target_ = 0;
  sim::SimTime last_mirror_gap_fetch_ = 0;
  static constexpr size_t kMirrorBackfillCap = 4096;

  /// Nodes awaiting an ack for a transmission, from a body or a notice:
  /// (src, src_pos) -> requesters.
  std::map<std::pair<net::SiteId, uint64_t>, std::set<net::NodeId>>
      pending_acks_;

  /// Re-submission bookkeeping for received transmissions. The sender's
  /// retransmissions re-enter OnTransmission; each pass re-submits
  /// the record, and after repeated attempts without a commit the request
  /// escalates from the leader alone to the whole unit, so the backups'
  /// request watchdogs can evict a leader whose lagging execution makes it
  /// reject the (valid) chain pointer forever. The req_id is reused across
  /// attempts so replicas dedup the watch instead of stacking watchdogs.
  struct RecvSubmit {
    uint64_t req_id = 0;
    int attempts = 0;
  };
  std::map<std::pair<net::SiteId, uint64_t>, RecvSubmit> recv_submits_;
  /// The same for replicates not yet mirrored, by geo position: a repeated
  /// replicate keeps its req_id, and from the third attempt goes to the
  /// whole mirror group, so the backups' request watchdogs replace a
  /// crashed leader. Pruned once mirror_high_pos_ passes the position.
  std::map<uint64_t, RecvSubmit> geo_submits_;

  uint64_t applied_high_ = 0;
  uint64_t next_req_id_ = 1;
  bool refuse_attestations_ = false;
  bool lie_about_reception_ = false;
  bool drop_geo_replicates_ = false;
  ReadLie read_lie_ = ReadLie::kNone;

  std::vector<std::unique_ptr<CommDaemon>> daemons_;
};

}  // namespace blockplane::core

#endif  // BLOCKPLANE_CORE_NODE_H_
