#include "core/comm_daemon.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/node.h"
#include "core/wire.h"

namespace blockplane::core {

namespace {

/// Ceiling of a shipped flight's measured retransmission timeout.
constexpr sim::SimTime kTransmissionRetryCap = sim::Milliseconds(500);
/// How often a reserve polls the destination for reception progress.
constexpr sim::SimTime kReservePollInterval = sim::Milliseconds(800);
/// Send/receive watermark gap (in records) that makes a poll count as
/// stalled: any communication record the destination has not attested,
/// while the attested watermark did not move since the previous poll. A
/// rank-r reserve takes over after 2r consecutive stalled polls.
constexpr uint64_t kReserveGapThreshold = 1;

}  // namespace

CommDaemon::CommDaemon(BlockplaneNode* host, net::SiteId dest, int rank)
    : host_(host),
      dest_(dest),
      rank_(rank),
      active_(rank == 0),
      // The RTT prior is the topology round trip plus an intra-site
      // allowance for the remote commit the ack waits on; measured samples
      // take over immediately.
      window_ctl_(host->options_.daemon_window,
                  host->network()->topology().Rtt(host->self().site, dest) +
                      4 * host->network()->options().intra_site_one_way,
                  "daemon_s" + std::to_string(host->self().site) + "n" +
                      std::to_string(host->self().index) + "_to_s" +
                      std::to_string(dest)),
      poll_timer_(host->network()->simulator()) {
  if (!active_) PollReceiver();
}

void CommDaemon::NotifyLogAppend() { PumpPipeline(); }

void CommDaemon::PumpPipeline() {
  if (!active_) return;
  // Algorithm 2's scan, resumed from the send cursor, windowed.
  auto comm_it = host_->comm_positions_.find(dest_);
  if (comm_it == host_->comm_positions_.end()) return;
  const std::vector<uint64_t>& positions = comm_it->second;

  size_t window = static_cast<size_t>(window_ctl_.window());

  // Phase 1: build the new flights and their attestation canonicals
  // (digest + canonical encode — the CPU-heavy part of the scan).
  std::vector<uint64_t> new_positions;
  auto pos_it = std::upper_bound(positions.begin(), positions.end(),
                                 std::max(next_send_pos_, acked_pos_));
  bool geo_proof_wait = false;
  for (; pos_it != positions.end() && flights_.size() < window; ++pos_it) {
    uint64_t pos = *pos_it;
    auto record_it = host_->log_.find(pos);
    if (record_it == host_->log_.end()) {
      // The host installed a base state past this record: another daemon
      // holds it and ships it.
      StepBack();
      return;
    }
    const LogRecord& record = record_it->second;

    // With geo-correlated tolerance, transmissions must carry the mirror
    // proofs; wait until the participant bundles them (§V).
    std::vector<crypto::QuorumCert> geo_proof;
    if (host_->options_.fg > 0) {
      auto proof_it = host_->geo_proofs_.find(pos);
      if (proof_it == host_->geo_proofs_.end()) {
        geo_proof_wait = true;  // blocked on proofs, not on the window
        break;                  // keep order
      }
      geo_proof = proof_it->second;
    }

    Flight& flight =
        flights_.try_emplace(pos, host_->network()->simulator()).first->second;
    flight.record.src_site = host_->origin_site();
    flight.record.dest_site = dest_;
    flight.record.src_log_pos = pos;
    flight.record.prev_src_log_pos =
        pos_it == positions.begin() ? 0 : *(pos_it - 1);
    flight.record.routine_id = record.routine_id;
    flight.record.payload = record.payload;
    flight.record.geo_pos = record.geo_pos;
    flight.record.geo_proof = std::move(geo_proof);
    next_send_pos_ = pos;

    flight.attest_canonical =
        AttestCanonical(AttestPurpose::kTransmission, flight.record.src_site,
                        pos, flight.record.ContentDigest());
    new_positions.push_back(pos);
  }
  // Stall accounting: an *episode* opens when admission is blocked purely
  // by the flight window while sendable work remains, and closes on any
  // admission (partial drains count). Counting per pump invocation would
  // inflate the metric with poll ticks.
  if (!new_positions.empty()) window_stalled_ = false;
  if (!geo_proof_wait && pos_it != positions.end() &&
      flights_.size() >= window && !window_stalled_) {
    window_stalled_ = true;
    ++pipeline_stats().daemon_window_stalls;
  }
  // Phase 2: self-attest, then collect f_i+1 signatures for the validity
  // of P from local nodes (our own plus f_i others) and ship, in scan
  // order.
  for (size_t i = 0; i < new_positions.size(); ++i) {
    Flight& flight = flights_.at(new_positions[i]);
    flight.sigs.push_back(host_->signer_->Sign(flight.attest_canonical));
    if (static_cast<int>(flight.sigs.size()) >= host_->options_.fi + 1) {
      flight.sigs_complete = true;
      FinalizeProof(&flight);
      TransmitReady();
    } else {
      RequestAttestations(new_positions[i]);
    }
    ArmRetransmit(new_positions[i]);
  }
}

void CommDaemon::RequestAttestations(uint64_t pos) {
  AttestRequestMsg request;
  request.purpose = AttestPurpose::kTransmission;
  request.pos = pos;
  request.dest_site = dest_;
  Bytes encoded = request.Encode();
  for (const net::NodeId& peer : host_->replica()->config().nodes) {
    if (peer == host_->self()) continue;
    host_->SendTo(peer, kAttestRequest, Bytes(encoded));
  }
}

void CommDaemon::OnAttestResponse(const AttestResponseMsg& response) {
  auto it = flights_.find(response.pos);
  if (it == flights_.end() || it->second.sigs_complete) return;
  if (!host_->keys()->Verify(it->second.attest_canonical, response.sig)) {
    return;
  }
  ApplyAttestation(response.pos, response.sig);
}

void CommDaemon::FinalizeProof(Flight* flight) {
  // Compress the completed f_i+1 attestation set into one compact cert
  // (DESIGN.md §14). The constituent MACs were either produced by this
  // node's own signer or verified on arrival (OnAttestResponse), so the
  // aggregation is over trusted material. Every Transmit of this flight,
  // widened retransmissions included, ships this same cert.
  flight->record.proof = {
      crypto::BuildQuorumCert(flight->record.src_site, flight->sigs)};
  flight->sigs.clear();
  qc_stats().certs_built++;
}

void CommDaemon::ApplyAttestation(uint64_t pos, const crypto::Signature& sig) {
  auto it = flights_.find(pos);
  if (it == flights_.end() || it->second.sigs_complete) return;
  Flight& flight = it->second;
  for (const crypto::Signature& existing : flight.sigs) {
    if (existing.signer == sig.signer) return;  // duplicate
  }
  flight.sigs.push_back(sig);
  if (static_cast<int>(flight.sigs.size()) < host_->options_.fi + 1) return;
  flight.sigs_complete = true;
  FinalizeProof(&flight);
  // In-order shipping: this flight may have been blocking later
  // sigs-complete flights, and it may itself be blocked behind an earlier
  // one still collecting signatures.
  TransmitReady();
  // The pending timer was armed with the attest-retry period while
  // signatures were outstanding; re-arm so the first wire retransmit uses
  // the measured, per-destination timeout.
  ArmRetransmit(pos);
}

void CommDaemon::TransmitReady() {
  // First transmissions go on the wire strictly in log order: the receiver
  // rejects any record that does not extend its chain watermark, so
  // shipping a later record while an earlier one is still collecting
  // signatures produces guaranteed rejections and an RTO-sized recovery
  // stall once the stragglers finally arrive.
  for (auto& [pos, flight] : flights_) {
    if (!flight.sigs_complete) break;
    if (flight.first_transmit == 0) Transmit(flight, /*widen=*/false);
  }
}

void CommDaemon::Transmit(Flight& flight, bool widen) {
  if (muted_) return;  // byzantine: pretends to send
  flight.last_transmit = host_->network()->simulator()->Now();
  if (flight.first_transmit == 0) {
    flight.first_transmit = flight.last_transmit;
  }
  Tracer& tr = tracer();
  if (tr.enabled()) {
    TraceId trace = tr.LookupCommRecord(host_->origin_site(),
                                        flight.record.src_log_pos);
    if (trace != kNoTrace) {
      sim::SimTime now = host_->network()->simulator()->Now();
      // First-wins: retransmissions do not move the milestone.
      tr.Mark(trace, TracePhase::kTransmitted, now);
      tr.Instant(trace, "transmit", "geo", now, host_->self().site,
                 host_->self().index, flight.record.src_log_pos);
    }
  }
  // Send P and its proof to Blockplane nodes in the destination. A first
  // attempt ships one body, to the sticky receiver, and a notice to each
  // of the next f_i nodes: all f_i+1 ack once the receiver's submission
  // commits. Retransmissions ship the body to the whole unit in case the
  // receiver is faulty (DESIGN.md §5 item 5).
  const int unit = 3 * host_->options_.fi + 1;
  Bytes encoded = flight.record.Encode();
  if (widen) {
    for (int i = 0; i < unit; ++i) {
      host_->SendTo(net::NodeId{dest_, i}, kTransmission, Bytes(encoded));
    }
    return;
  }
  flight.receiver = receiver_.index();
  host_->SendTo(net::NodeId{dest_, flight.receiver}, kTransmission,
                std::move(encoded));
  TransmissionNoticeMsg notice;
  notice.src_log_pos = flight.record.src_log_pos;
  Bytes encoded_notice = notice.Encode();
  for (int i = 1; i <= host_->options_.fi; ++i) {
    host_->SendTo(net::NodeId{dest_, (flight.receiver + i) % unit},
                  kTransmissionNotice, Bytes(encoded_notice));
  }
}

void CommDaemon::ArmRetransmit(uint64_t pos) {
  auto it = flights_.find(pos);
  if (it == flights_.end()) return;
  // Signature collection is intra-site: attestation round trips are a
  // couple of intra-site hops, so retrying a lost attest response on a
  // WAN-scale period would park the flight (and everything chained behind
  // it). Only the wire retransmit (sigs complete, record in flight to
  // dest_) uses the measured RTO.
  sim::SimTime period =
      it->second.sigs_complete
          ? window_ctl_.RetryTimeout(common::kMinRto, kTransmissionRetryCap)
          : std::max(common::kMinRto,
                     8 * host_->network()->options().intra_site_one_way);
  it->second.retransmit_timer.Arm(
      period, [this, pos, period]() { OnRetransmitTimer(pos, period); });
}

void CommDaemon::OnRetransmitTimer(uint64_t pos, sim::SimTime period) {
  auto it = flights_.find(pos);
  if (it == flights_.end()) return;
  Flight& flight = it->second;
  if (!flight.sigs_complete) {
    RequestAttestations(pos);
    ArmRetransmit(pos);
    return;
  }
  if (flight.first_transmit == 0) {
    // Never been on the wire: blocked behind an earlier flight still
    // collecting signatures (in-order shipping). TransmitReady ships it
    // the moment the chain ahead completes; keep the timer as a backstop.
    TransmitReady();
    ArmRetransmit(pos);
    return;
  }
  const sim::SimTime now = host_->network()->simulator()->Now();
  // Progress-deferred timeout: the receiver commits in order, so flowing
  // acks prove the path (and the stream ahead of this flight) is alive. A
  // timeout only counts once nothing progressed for a full RTO since the
  // last transmission — otherwise the destination-side commit queue under
  // a deep window would make every flight's timer fire spuriously, and
  // Karn's rule would then starve the estimator of samples for good.
  sim::SimTime deadline =
      std::max(flight.last_transmit, last_progress_) + period;
  if (now < deadline) {
    flight.retransmit_timer.ArmAt(
        deadline, [this, pos, period]() { OnRetransmitTimer(pos, period); });
    return;
  }
  // The receiver validates the chain pointer strictly (no out-of-order
  // buffering), so a dropped head means every trailing flight that arrived
  // meanwhile was rejected too: all of them must retransmit. Only the
  // head's timeout is a *loss signal*, though — the trailing timeouts are
  // a symptom of the same head-of-line event.
  flight.retransmitted = true;  // Karn: no RTT sample from this flight
  // The body's receiver may be faulty: later first attempts may go to the
  // next node.
  receiver_.OnRetry(flight.receiver, 3 * host_->options_.fi + 1);
  if (flights_.begin()->first == pos) {
    uint64_t before = window_ctl_.window();
    window_ctl_.OnLoss(now);
    if (window_ctl_.window() < before) {
      // A decrease is the congestion-control event worth seeing on a
      // timeline: anchor it to the head flight's trace.
      Tracer& tr = tracer();
      if (tr.enabled()) {
        TraceId trace = tr.LookupCommRecord(host_->origin_site(),
                                            flight.record.src_log_pos);
        if (trace != kNoTrace) {
          tr.Instant(trace, "congestion_decrease", "geo", now,
                     host_->self().site, host_->self().index,
                     window_ctl_.window());
        }
      }
    }
  }
  Transmit(flight, /*widen=*/true);
  ArmRetransmit(pos);
}

void CommDaemon::OnTransmissionAck(const net::Message& msg) {
  if (!active_) return;
  TransmissionAckMsg ack;
  if (!TransmissionAckMsg::Decode(msg.body(), &ack).ok()) return;
  if (msg.src.site != dest_) return;
  if (ack.src_log_pos > next_send_pos_) {
    // Receivers ack a duplicate with their watermark: this node committed
    // records this daemon never shipped. f_i+1 such nodes include an
    // honest one, so another daemon is shipping ahead of this one (one
    // liar cannot demote it). Step back before crediting the ack, or the
    // pump would ship past the cursor.
    uint64_t& ahead = acks_ahead_[msg.src];
    ahead = std::max(ahead, ack.src_log_pos);
    auto behind = std::count_if(
        acks_ahead_.begin(), acks_ahead_.end(),
        [this](const auto& entry) { return entry.second > next_send_pos_; });
    if (behind >= host_->options_.fi + 1) {
      StepBack();
      return;
    }
  }
  // Cumulative ack: the receiver commits the chain strictly in order, so
  // a node acknowledging position p has committed every earlier position
  // too. Crediting the ack to all flights <= p unsticks a head flight
  // whose own ack frame was dropped — the stream is fine, only the ack was
  // lost, yet exact-match acking would pin the watermark and
  // progress-defer its timer forever.
  const sim::SimTime now = host_->network()->simulator()->Now();
  bool completed = false;
  for (auto it = flights_.begin();
       it != flights_.end() && it->first <= ack.src_log_pos;) {
    Flight& flight = it->second;
    // Progress is an ack that credits a flight a sender it did not have;
    // the retransmit timers defer to it (see last_progress_). A repeated
    // ack, or one below every flight, earns nothing.
    if (!flight.ack_senders.insert(msg.src).second) {
      ++it;
      continue;
    }
    last_progress_ = now;
    if (static_cast<int>(flight.ack_senders.size()) <
        host_->options_.fi + 1) {
      ++it;
      continue;
    }
    // f_i+1 destination nodes confirmed the commit: one is honest. Only
    // the exactly-acked flight yields an RTT sample — a flight completed
    // by cumulative credit lost its own ack, so its round trip includes
    // the dead time (Karn's rule in spirit).
    if (it->first == ack.src_log_pos && flight.first_transmit != 0 &&
        !flight.retransmitted) {
      window_ctl_.OnAck(now - flight.first_transmit);
    } else {
      window_ctl_.OnAckNoSample();
    }
    acked_out_of_order_.insert(it->first);
    it = flights_.erase(it);
    completed = true;
  }
  if (!completed) return;
  AdvanceAckedWatermark();
  PumpPipeline();
}

void CommDaemon::AdvanceAckedWatermark() {
  // The watermark moves through the (sorted) communication positions of
  // this destination as long as each next one is acknowledged.
  auto comm_it = host_->comm_positions_.find(dest_);
  if (comm_it == host_->comm_positions_.end()) return;
  const std::vector<uint64_t>& positions = comm_it->second;
  for (auto pos_it = std::upper_bound(positions.begin(), positions.end(),
                                      acked_pos_);
       pos_it != positions.end(); ++pos_it) {
    auto acked = acked_out_of_order_.find(*pos_it);
    if (acked == acked_out_of_order_.end()) break;
    acked_pos_ = *pos_it;
    acked_out_of_order_.erase(acked);
  }
  delivered_ = std::max(delivered_, acked_pos_);
}

void CommDaemon::StepBack() {
  BP_LOG(kInfo) << host_->self().ToString()
                << " daemon stepping back for dest " << dest_;
  flights_.clear();
  acked_out_of_order_.clear();
  acks_ahead_.clear();
  window_stalled_ = false;
  active_ = false;
  rank_ = host_->options_.fi + 2;
  stalled_polls_ = 0;
  // A promoted reserve's poll timer lapses on its first tick after
  // promotion; it may still be pending.
  if (!poll_timer_.armed()) PollReceiver();
}

// --- reserve ------------------------------------------------------------------

void CommDaemon::PollReceiver() {
  poll_timer_.Arm(kReservePollInterval, [this]() {
    if (active_) return;  // promoted; no more polling
    status_replies_.clear();
    RecvStatusQueryMsg query;
    query.src_site = host_->origin_site();
    Bytes encoded = query.Encode();
    // Ask 2f_i+1 destination nodes so that some group of f_i+1 agrees.
    for (int i = 0; i < 2 * host_->options_.fi + 1; ++i) {
      host_->SendTo(net::NodeId{dest_, i}, kRecvStatusQuery, Bytes(encoded));
    }
    PollReceiver();
  });
}

void CommDaemon::OnRecvStatusReply(const net::Message& msg) {
  if (active_) return;
  RecvStatusReplyMsg reply;
  if (!RecvStatusReplyMsg::Decode(msg.body(), &reply).ok()) return;
  if (msg.src.site != dest_ || reply.src_site != host_->origin_site()) return;
  status_replies_[msg.src] = reply.last_pos;
  int needed = host_->options_.fi + 1;
  if (static_cast<int>(status_replies_.size()) <
      2 * host_->options_.fi + 1) {
    return;
  }
  // The reserve chooses the f_i+1 group that maximizes the lowest reported
  // position: with sorted replies, that is the (f_i+1)-th largest value.
  std::vector<uint64_t> values;
  for (auto& [node, pos] : status_replies_) values.push_back(pos);
  std::sort(values.begin(), values.end(), std::greater<>());
  uint64_t attested = values[needed - 1];
  status_replies_.clear();
  // f_i+1 nodes report it, so an honest one committed it.
  delivered_ = std::max(delivered_, attested);

  uint64_t expected = 0;
  auto comm_it = host_->comm_positions_.find(dest_);
  if (comm_it != host_->comm_positions_.end() && !comm_it->second.empty()) {
    expected = comm_it->second.back();
  }
  // A gap that persists across polls means the active daemon is failing
  // to deliver (maliciously or otherwise): take over, in rank order. The
  // first promoted reserve moves the attested watermark before the next
  // one's deadline, which resets that one's count.
  if (expected >= attested + kReserveGapThreshold &&
      attested <= last_attested_) {
    if (++stalled_polls_ >= 2 * rank_) {
      BP_LOG(kInfo) << host_->self().ToString()
                    << " reserve daemon activating for dest " << dest_;
      active_ = true;
      // Records up to `delivered_` may be gone from the host's log.
      acked_pos_ = delivered_;
      next_send_pos_ = delivered_;
      PumpPipeline();
      return;
    }
  } else {
    stalled_polls_ = 0;
  }
  last_attested_ = attested;
}

}  // namespace blockplane::core
