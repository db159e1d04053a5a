// The communication daemon (§IV-C, Algorithm 2) and the daemon reserve.
//
// A daemon serves one destination participant. It scans its host node's
// copy of the Local Log for communication records to that destination,
// builds transmission records (message + pointer to the previous
// communication record to the same destination), collects f_i+1 signatures
// from local Blockplane nodes, pushes the record to one node at the
// destination and a notice to f_i more, and retransmits to the whole unit
// until f_i+1 of them acknowledge the commit. The node that gets the body
// is sticky: it moves on only when a flight first sent to it is retried.
//
// Transmissions are pipelined up to a window: the receiver's chain-pointer
// verification guarantees in-order commitment regardless, so the daemon
// never needs to stall on an ack before shipping the next record. The
// window is a per-destination controller capped at `daemon_window`
// (DESIGN.md §13); first transmissions ship in log order, acks credit
// cumulatively, and retransmit timers follow the measured RTT.
//
// A *reserve* daemon stays passive: it periodically asks >= f_i+1 nodes at
// the destination for the most recent transmission they received from this
// participant (taking the value attested by some group of f_i+1 responders)
// and activates itself when the gap to the local send watermark suggests
// the active daemon is faulty or malicious.
//
// Exactly one daemon per destination ships (DESIGN.md §5 item 5). Each
// daemon has a rank: 0 for the active daemon on node 0, r for the reserve
// on node r. A rank-r reserve promotes after 2r consecutive stalled polls,
// so one stall promotes one reserve: by the next reserve's deadline the
// promoted one has moved the attested watermark, which resets every other
// reserve's count. An active daemon steps back to reserve (rank f_i+2)
// once f_i+1 destination nodes ack a position above its own send cursor:
// receivers ack a duplicate with their watermark, so such acks prove that
// another daemon delivered records this one never shipped. It also steps
// back when the next record it would ship is gone from its host's log: the
// host installed a base state past it (DESIGN.md §10, retention).
#ifndef BLOCKPLANE_CORE_COMM_DAEMON_H_
#define BLOCKPLANE_CORE_COMM_DAEMON_H_

#include <map>
#include <set>
#include <vector>

#include "common/congestion.h"
#include "core/record.h"
#include "core/sticky_receiver.h"
#include "net/network.h"
#include "sim/timer.h"

namespace blockplane::core {

class BlockplaneNode;
struct AttestResponseMsg;

class CommDaemon {
 public:
  /// `rank` 0 starts active; a reserve of rank r >= 1 promotes after 2r
  /// stalled polls.
  CommDaemon(BlockplaneNode* host, net::SiteId dest, int rank);
  BP_DISALLOW_COPY_AND_ASSIGN(CommDaemon);

  /// Called by the host node when its log (or geo-proof store) grows.
  void NotifyLogAppend();

  /// The host node's dispatch hands every daemon each kTransmissionAck
  /// and kRecvStatusReply; a daemon keeps those from its destination.
  void OnTransmissionAck(const net::Message& msg);
  void OnRecvStatusReply(const net::Message& msg);

  /// A decoded attestation response (the host node already checked
  /// signer==src). Verifies the MAC against the flight's attestation
  /// canonical and applies it.
  void OnAttestResponse(const AttestResponseMsg& response);

  /// Byzantine test hook: the daemon keeps claiming to work but sends
  /// nothing (the reserve should take over).
  void Mute() { muted_ = true; }

  net::SiteId dest() const { return dest_; }
  bool active() const { return active_; }
  /// Highest contiguously acknowledged source-log position.
  uint64_t acked_watermark() const { return acked_pos_; }
  /// Highest source-log position f_i+1 destination nodes are known to
  /// hold: acked to this daemon while active, or attested to its polls as
  /// a reserve. The host may drop communication records up to it.
  uint64_t delivered() const { return delivered_; }

 private:
  /// One pipelined transmission.
  struct Flight {
    explicit Flight(sim::Simulator* simulator) : retransmit_timer(simulator) {}

    TransmissionRecord record;
    /// AttestCanonical over the record: what this node signs and what
    /// every peer attestation must verify against. Built once per flight.
    Bytes attest_canonical;
    /// Attestations collected toward f_i+1, cleared once FinalizeProof
    /// folds them into the record's quorum cert.
    std::vector<crypto::Signature> sigs;
    bool sigs_complete = false;
    std::set<net::NodeId> ack_senders;
    sim::Timer retransmit_timer;
    /// Time of the first actual wire transmission (0 = not yet sent).
    sim::SimTime first_transmit = 0;
    /// Time of the most recent wire transmission (retransmit deadline
    /// base).
    sim::SimTime last_transmit = 0;
    /// The flight was actually retransmitted on the wire: Karn's rule
    /// excludes it from RTT sampling.
    bool retransmitted = false;
    /// The destination node that got the body of the first attempt.
    int receiver = 0;
  };

  void PumpPipeline();
  /// Called once when a flight's f_i+1 signature set completes: builds
  /// the record's quorum cert (DESIGN.md §14), which every subsequent
  /// Transmit — widened retransmissions included — ships.
  void FinalizeProof(Flight* flight);
  /// Applies a verified attestation: re-finds the flight, dedups signers,
  /// and transmits on the f_i+1-th signature.
  void ApplyAttestation(uint64_t pos, const crypto::Signature& sig);
  void Transmit(Flight& flight, bool widen);
  /// Ships every sigs-complete flight that has never been transmitted, in
  /// log order, stopping at the first flight still collecting signatures.
  void TransmitReady();
  void RequestAttestations(uint64_t pos);
  void ArmRetransmit(uint64_t pos);
  /// Retransmit-timer fire: defers while acks are flowing, and lets only
  /// the head-of-line flight report loss (DESIGN.md §13).
  void OnRetransmitTimer(uint64_t pos, sim::SimTime period);
  void AdvanceAckedWatermark();
  /// Drops every flight and becomes a reserve of rank f_i+2: another
  /// daemon is shipping ahead of this one.
  void StepBack();
  void PollReceiver();

  BlockplaneNode* host_;
  net::SiteId dest_;
  int rank_;
  bool active_;
  bool muted_ = false;

  uint64_t acked_pos_ = 0;     // contiguous ack watermark
  uint64_t next_send_pos_ = 0;  // highest source-log pos already shipped
  uint64_t delivered_ = 0;
  std::map<uint64_t, Flight> flights_;   // by source-log pos
  std::set<uint64_t> acked_out_of_order_;

  /// Flight window + retransmit timing toward dest_ (DESIGN.md §13).
  common::WindowController window_ctl_;
  /// Open window-stall episode flag: pipeline.daemon_window_stalls counts
  /// episodes (any admission closes one), not pump invocations.
  bool window_stalled_ = false;
  /// Last time an ack from dest_ credited some flight a sender it did not
  /// have. The receiver commits in order, so such acks prove the path and
  /// stream are alive; the retransmit timer defers to
  /// max(last_transmit, last_progress_) + RTO instead of firing blindly —
  /// destination-side queueing under a deep window would otherwise make
  /// every flight's timer fire spuriously and Karn-freeze the estimator.
  /// An ack that credits nothing is no progress, so a destination node
  /// repeating acks cannot hold the timers off.
  sim::SimTime last_progress_ = 0;
  /// The destination node that gets the bodies of first attempts.
  StickyReceiver receiver_;
  /// Highest position each destination node acked above next_send_pos_
  /// (empty on the fault-free path); f_i+1 entries trigger StepBack.
  std::map<net::NodeId, uint64_t> acks_ahead_;

  /// Reserve state.
  sim::Timer poll_timer_;
  std::map<net::NodeId, uint64_t> status_replies_;
  uint64_t last_attested_ = 0;
  int stalled_polls_ = 0;
};

}  // namespace blockplane::core

#endif  // BLOCKPLANE_CORE_COMM_DAEMON_H_
