#include "core/participant.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace blockplane::core {

namespace {

constexpr int32_t kClientIndexBase = 1001;
constexpr int32_t kMirrorClientIndexBase = 2000;
/// Retry period of a geo round's attestation collection and of mirror-op
/// steps, and the ceiling of a replicate fan-out's measured timeout.
constexpr sim::SimTime kGeoRetry = sim::Milliseconds(400);

/// Starts a causal trace for one API operation: allocates the id (kNoTrace
/// when tracing is disabled — every downstream site then skips its work)
/// and records the "submit" milestone.
TraceId BeginOpTrace(sim::Simulator* sim) {
  Tracer& tr = tracer();
  if (!tr.enabled()) return kNoTrace;
  TraceId trace = tr.NewTrace();
  tr.Mark(trace, TracePhase::kSubmit, sim->Now());
  return trace;
}

/// Decodes into `*record` a held body whose SHA-256 is `digest`. A body
/// claimed for `digest` that hashes to anything else is dropped (its
/// sender lied); bodies claimed for other digests stay unhashed. False
/// while no body proves `digest`.
bool TakeBody(std::vector<std::pair<crypto::Digest, Bytes>>* bodies,
              const crypto::Digest& digest, LogRecord* record) {
  for (auto it = bodies->begin(); it != bodies->end();) {
    if (it->first != digest) {
      ++it;
    } else if (crypto::Sha256Digest(it->second) == digest &&
               LogRecord::Decode(it->second, record).ok()) {
      return true;
    } else {
      it = bodies->erase(it);
    }
  }
  return false;
}

}  // namespace

Participant::Participant(net::Network* network, crypto::KeyStore* keys,
                         BlockplaneOptions options,
                         pbft::PbftConfig unit_group, net::SiteId site,
                         std::vector<net::SiteId> mirror_sites)
    : network_(network),
      sim_(network->simulator()),
      keys_(keys),
      options_(options),
      unit_group_(unit_group),
      site_(site),
      self_(ParticipantNodeId(site)),
      mirror_sites_(std::move(mirror_sites)),
      mirror_op_timer_(sim_) {
  signer_ = keys_->RegisterNode(self_);
  client_ = std::make_unique<pbft::PbftClient>(
      network_, unit_group_, net::NodeId{site, kClientIndexBase});
  // One window controller per mirror destination (DESIGN.md §13): the
  // geo-ack round trip toward each mirror feeds its RTT estimate; the
  // pipeline window is the minimum across them.
  for (net::SiteId target : mirror_sites_) {
    sim::SimTime prior = network_->topology().Rtt(site_, target) +
                         4 * network_->options().intra_site_one_way;
    geo_ctl_.try_emplace(
        target, options_.participant_window, prior,
        "geo_s" + std::to_string(site_) + "_to_s" + std::to_string(target));
  }
  network_->Register(self_, this);
}

Participant::~Participant() { network_->Unregister(self_); }

void Participant::SendTo(net::NodeId dst, net::MessageType type,
                         Bytes payload) {
  net::Message msg;
  msg.src = self_;
  msg.dst = dst;
  msg.type = type;
  msg.set_body(std::move(payload));
  network_->Send(std::move(msg));
}

// --- API entry points -----------------------------------------------------------

void Participant::LogCommit(Bytes payload, uint64_t routine_id,
                            CommitCallback done) {
  ApiOp op;
  op.record.type = RecordType::kLogCommit;
  op.record.routine_id = routine_id;
  op.record.payload = std::move(payload);
  op.done = std::move(done);
  op.trace = BeginOpTrace(sim_);
  EnqueueOp(std::move(op));
}

void Participant::Send(net::SiteId dest, Bytes payload, uint64_t routine_id,
                       CommitCallback done) {
  BP_CHECK_MSG(dest != site_, "send to self");
  ApiOp op;
  op.record.type = RecordType::kCommunication;
  op.record.routine_id = routine_id;
  op.record.payload = std::move(payload);
  op.record.dest_site = dest;
  op.done = std::move(done);
  op.trace = BeginOpTrace(sim_);
  EnqueueOp(std::move(op));
}

void Participant::MirrorCommit(net::SiteId origin, Bytes payload,
                               uint64_t routine_id, CommitCallback done) {
  BP_CHECK_MSG(mirror_peers_.count(origin) > 0,
               "SetMirrorPeers(origin) required before MirrorCommit");
  ApiOp op;
  op.record.type = RecordType::kLogCommit;  // the inner record R
  op.record.routine_id = routine_id;
  op.record.payload = std::move(payload);
  op.done = std::move(done);
  op.mirror_origin = origin;
  op.trace = BeginOpTrace(sim_);
  EnqueueOp(std::move(op));
}

void Participant::SetMirrorPeers(net::SiteId origin,
                                 std::vector<net::SiteId> peers) {
  mirror_peers_[origin] = std::move(peers);
}

void Participant::EnqueueOp(ApiOp op) {
  if (options_.fg == 0 && op.mirror_origin < 0) {
    // Without geo rounds there is no cross-operation state: submit
    // immediately and let the unit's leader order concurrent requests.
    CommitCallback done = std::move(op.done);
    TraceId trace = op.trace;
    bool is_comm = op.record.type == RecordType::kCommunication;
    client_->Submit(
        op.record.Encode(),
        [this, done = std::move(done), trace, is_comm](uint64_t pos) {
          Tracer& tr = tracer();
          if (tr.enabled() && trace != kNoTrace) {
            sim::SimTime now = sim_->Now();
            tr.Mark(trace, TracePhase::kLocalCommitted, now);
            tr.Mark(trace, TracePhase::kDone, now);
            // A communication record's journey continues in the daemons;
            // bind (site, log pos) so they can tag later milestones.
            if (is_comm) tr.BindCommRecord(site_, pos, trace);
          }
          ++commits_completed_;
          if (done) done(pos);
        },
        trace);
    return;
  }
  op.enqueued = sim_->Now();
  ops_.push_back(std::move(op));
  PumpOps();
}

void Participant::PumpOps() {
  while (!ops_.empty()) {
    if (mirror_op_active_) return;  // mirror ops run exclusively
    if (ops_.front().mirror_origin >= 0) {
      // A MirrorCommit reconciles and extends *another* participant's
      // stream; interleaving it with own-stream rounds would entangle two
      // position spaces. Wait for the window to drain, then run it alone.
      if (!inflight_.empty()) return;
      mirror_op_active_ = true;
      InflightOp rec;
      rec.op = std::move(ops_.front());
      ops_.pop_front();
      inflight_.push_back(std::move(rec));
      StartMirrorOp();
      return;
    }
    uint64_t window = std::max<uint64_t>(1, options_.participant_window);
    for (const auto& [target, ctl] : geo_ctl_) {
      window = std::min(window, ctl.window());
    }
    if (inflight_.size() >= window) {
      // Stall *episode*: opened once while admission stays blocked by the
      // window, closed by any admission below (partial drains count).
      if (!geo_window_stalled_) {
        geo_window_stalled_ = true;
        ++pipeline_stats().participant_window_stalls;
      }
      return;
    }

    InflightOp rec;
    rec.op = std::move(ops_.front());
    ops_.pop_front();
    geo_window_stalled_ = false;
    if (options_.fg > 0) {
      // Own-stream geo position: assigned at submission so up to `window`
      // rounds can proceed concurrently, each keyed by its position.
      geo_assign_ = std::max(geo_assign_, geo_seq_);
      rec.op.record.geo_pos = ++geo_assign_;
    }
    uint64_t geo_pos = rec.op.record.geo_pos;
    TraceId trace = rec.op.trace;
    sim::SimTime enqueued = rec.op.enqueued;
    Bytes encoded = rec.op.record.Encode();
    inflight_.push_back(std::move(rec));
    PipelineStats& ps = pipeline_stats();
    ps.participant_inflight_peak =
        std::max(ps.participant_inflight_peak,
                 static_cast<int64_t>(inflight_.size()));
    Tracer& tr = tracer();
    if (tr.enabled() && trace != kNoTrace && enqueued != 0 &&
        sim_->Now() > enqueued) {
      // Queue-wait vs in-flight: how long the op sat behind a full window.
      tr.Span(trace, "queue_wait", "pipeline", enqueued, sim_->Now(), site_,
              self_.index, geo_pos);
    }
    client_->Submit(
        std::move(encoded),
        [this, geo_pos](uint64_t pos) { OnLocalCommitted(geo_pos, pos); },
        trace);
  }
}

void Participant::DrainFinished() {
  while (!inflight_.empty() && inflight_.front().finished) {
    InflightOp rec = std::move(inflight_.front());
    inflight_.pop_front();
    ++commits_completed_;
    Tracer& tr = tracer();
    if (tr.enabled() && rec.op.trace != kNoTrace) {
      tr.Mark(rec.op.trace, TracePhase::kDone, sim_->Now());
    }
    if (rec.op.done) rec.op.done(rec.result_pos);
  }
}

void Participant::OnLocalCommitted(uint64_t geo_pos, uint64_t unit_pos) {
  for (InflightOp& rec : inflight_) {
    if (rec.op.mirror_origin >= 0 || rec.op.record.geo_pos != geo_pos ||
        rec.finished) {
      continue;
    }
    Tracer& tr = tracer();
    if (tr.enabled() && rec.op.trace != kNoTrace) {
      tr.Mark(rec.op.trace, TracePhase::kLocalCommitted, sim_->Now());
      if (rec.op.record.type == RecordType::kCommunication) {
        tr.BindCommRecord(site_, unit_pos, rec.op.trace);
      }
    }
    StartGeoRound(rec.op, unit_pos);
    return;
  }
}

// --- geo-correlated commits (§V) ---------------------------------------------------

void Participant::StartGeoRound(const ApiOp& op, uint64_t unit_pos) {
  auto owned = std::make_unique<GeoRound>(sim_);
  GeoRound& round = *owned;
  round.unit_pos = unit_pos;
  round.geo_pos = op.record.geo_pos;
  round.origin = site_;
  round.record_encoded = op.record.Encode();
  round.digest = crypto::Sha256Digest(round.record_encoded);
  round.targets = mirror_sites_;
  round.is_communication = op.record.type == RecordType::kCommunication;
  round.trace = op.trace;
  round.ts_local = sim_->Now();
  uint64_t geo_pos = round.geo_pos;
  geo_rounds_[geo_pos] = std::move(owned);

  // Collect f_i+1 attestations from the unit, then replicate.
  AttestRequestMsg request;
  request.purpose = AttestPurpose::kGeoSource;
  request.pos = unit_pos;
  Bytes encoded = request.Encode();
  for (const net::NodeId& node : unit_group_.nodes) {
    SendTo(node, kAttestRequest, Bytes(encoded));
  }
  round.retry_timer.Arm(kGeoRetry,
                        [this, geo_pos]() { ReplicateRound(geo_pos); });
}

void Participant::OnAttestResponse(const net::Message& msg) {
  if (geo_rounds_.empty()) return;
  AttestResponseMsg response;
  if (!AttestResponseMsg::Decode(msg.body(), &response).ok()) return;
  if (response.purpose != AttestPurpose::kGeoSource) return;
  if (response.sig.signer != msg.src) return;
  // Dispatch to the round this response answers: attest requests carry the
  // unit log position (own-stream rounds) or the geo position (mirror
  // rounds). A late response from a finished round matches nothing.
  GeoRound* found = nullptr;
  for (auto& [key, owned] : geo_rounds_) {
    uint64_t expected = owned->unit_pos != 0 ? owned->unit_pos
                                             : owned->geo_pos;
    if (expected == response.pos) {
      found = owned.get();
      break;
    }
  }
  if (found == nullptr) return;
  GeoRound& round = *found;
  if (static_cast<int>(round.source_sigs.size()) >= options_.fi + 1) return;
  Bytes canonical = AttestCanonical(AttestPurpose::kGeoSource, site_,
                                    round.geo_pos, round.digest);
  if (!keys_->Verify(canonical, response.sig)) return;
  for (const crypto::Signature& sig : round.source_sigs) {
    if (sig.signer == response.sig.signer) return;
  }
  round.source_sigs.push_back(response.sig);
  if (static_cast<int>(round.source_sigs.size()) == options_.fi + 1) {
    // Compress the attestations once; every replicate fan-out (retries
    // included) ships this same certificate (DESIGN.md §14).
    round.source_cert = crypto::BuildQuorumCert(site_, round.source_sigs);
    qc_stats().certs_built++;
    round.ts_attested = sim_->Now();
    Tracer& tr = tracer();
    if (tr.enabled() && round.trace != kNoTrace) {
      tr.Mark(round.trace, TracePhase::kAttested, round.ts_attested);
    }
    ReplicateRound(round.geo_pos);
  }
}

void Participant::ReplicateRound(uint64_t geo_pos) {
  auto it = geo_rounds_.find(geo_pos);
  if (it == geo_rounds_.end()) return;
  GeoRound& round = *it->second;
  round.retry_timer.Disarm();
  const bool attested =
      static_cast<int>(round.source_sigs.size()) >= options_.fi + 1;
  sim::SimTime period = kGeoRetry;
  if (attested) {
    // Wire fan-out retries follow the slowest unproven mirror's measured
    // timeout, capped at kGeoRetry (attestation collection is intra-site
    // and keeps kGeoRetry).
    sim::SimTime rto = 0;
    for (net::SiteId target : round.targets) {
      if (round.ack_sigs.count(target) > 0) continue;
      auto ctl = geo_ctl_.find(target);
      if (ctl == geo_ctl_.end()) continue;
      rto = std::max(rto,
                     ctl->second.RetryTimeout(common::kMinRto, kGeoRetry));
    }
    if (rto > 0) period = rto;
  }
  // Progress-deferred retry (wire phase only): while geo acks are flowing
  // the mirrors are just working through their commit queues; re-entering
  // the send path would mark the round retried for nothing.
  if (attested && round.replicate_sent != 0) {
    sim::SimTime deadline =
        std::max(round.last_sent, last_geo_progress_) + period;
    if (sim_->Now() < deadline) {
      round.retry_timer.ArmAt(
          deadline, [this, geo_pos]() { ReplicateRound(geo_pos); });
      return;
    }
  }
  round.retry_timer.Arm(period,
                        [this, geo_pos]() { ReplicateRound(geo_pos); });

  if (!attested) {
    // Still collecting attestations: re-ask (covers lost responses).
    AttestRequestMsg request;
    request.purpose = AttestPurpose::kGeoSource;
    request.pos = round.unit_pos != 0 ? round.unit_pos : round.geo_pos;
    Bytes encoded = request.Encode();
    if (round.unit_pos != 0) {
      for (const net::NodeId& node : unit_group_.nodes) {
        SendTo(node, kAttestRequest, Bytes(encoded));
      }
    } else {
      for (int i = 0; i < 3 * options_.fi + 1; ++i) {
        SendTo(MirrorNodeId(site_, round.origin, i), kAttestRequest,
               Bytes(encoded));
      }
    }
    return;
  }

  round.last_sent = sim_->Now();
  const bool first = round.replicate_sent == 0;
  if (first) {
    round.replicate_sent = sim_->Now();
  } else {
    // Timer-driven re-send: Karn's rule excludes this round's RTT. Only
    // the oldest outstanding round reports loss — completion callbacks
    // drain in submission order, so a stuck head makes trailing rounds
    // linger even when their mirrors answered promptly.
    round.retried = true;
    if (geo_rounds_.begin()->first == geo_pos) {
      for (net::SiteId target : round.targets) {
        if (round.ack_sigs.count(target) > 0) continue;
        auto ctl = geo_ctl_.find(target);
        if (ctl != geo_ctl_.end()) ctl->second.OnLoss(sim_->Now());
      }
    }
  }

  GeoReplicateMsg replicate;
  replicate.acting_site = site_;
  replicate.geo_pos = round.geo_pos;
  replicate.record = round.record_encoded;
  replicate.proof = {round.source_cert};
  Bytes encoded = replicate.Encode();
  for (net::SiteId target : round.targets) {
    if (round.ack_sigs.count(target) > 0) continue;  // already proven
    StickyReceiver& receiver = geo_receivers_[{target, round.origin}];
    if (first) {
      // One body, to the group's sticky receiver: every mirror node that
      // executes the record signs a geo ack, so the f_i+1-node proof needs
      // no second copy (DESIGN.md §5 item 5).
      round.receivers[target] = receiver.index();
      SendTo(MirrorNodeId(target, round.origin, receiver.index()),
             kGeoReplicate, Bytes(encoded));
      continue;
    }
    // A retry widens to f_i+1 nodes; the receiver may be faulty.
    receiver.OnRetry(round.receivers[target], 3 * options_.fi + 1);
    for (int i = 0; i < options_.fi + 1; ++i) {
      SendTo(MirrorNodeId(target, round.origin, i), kGeoReplicate,
             Bytes(encoded));
    }
  }
}

void Participant::OnGeoAck(const net::Message& msg) {
  GeoAckMsg ack;
  if (!GeoAckMsg::Decode(msg.body(), &ack).ok()) return;
  auto it = geo_rounds_.find(ack.geo_pos);
  if (it == geo_rounds_.end()) return;
  GeoRound& round = *it->second;
  if (ack.sig.signer != msg.src) return;
  net::SiteId target = msg.src.site;
  if (std::find(round.targets.begin(), round.targets.end(), target) ==
      round.targets.end()) {
    return;
  }
  if (round.ack_sigs.count(target) > 0) return;  // site already proven
  Bytes canonical = AttestCanonical(AttestPurpose::kGeoAck, target,
                                    round.geo_pos, round.digest);
  if (!keys_->Verify(canonical, ack.sig)) return;
  auto& nodes = round.ack_nodes[target];
  if (!nodes.insert(msg.src).second) return;
  // Only a valid ack from a node new to the round is progress: a forged or
  // repeated one must not hold the retries off (see last_geo_progress_).
  last_geo_progress_ = sim_->Now();
  round.ack_sigs_partial[target].push_back(ack.sig);
  if (static_cast<int>(nodes.size()) < options_.fi + 1) return;

  // f_i+1 nodes of this mirror participant attested: the site holds it.
  round.ack_sigs[target] = round.ack_sigs_partial[target];
  auto ctl = geo_ctl_.find(target);
  if (ctl != geo_ctl_.end()) {
    if (round.replicate_sent != 0 && !round.retried) {
      ctl->second.OnAck(sim_->Now() - round.replicate_sent);
    } else {
      ctl->second.OnAckNoSample();
    }
  }
  int proven = static_cast<int>(round.ack_sigs.size());
  if (proven >= options_.fg) FinishGeoRound(round.geo_pos);
}

void Participant::FinishGeoRound(uint64_t geo_pos) {
  auto it = geo_rounds_.find(geo_pos);
  BP_CHECK(it != geo_rounds_.end());
  GeoRound round = std::move(*it->second);
  geo_rounds_.erase(it);
  round.retry_timer.Disarm();

  if (round.is_communication) {
    // Hand the mirror proofs to the unit so the communication daemons can
    // attach them to the transmission record (§V).
    GeoProofBundleMsg bundle;
    bundle.pos = round.unit_pos;
    for (auto& [site, sigs] : round.ack_sigs) {
      // One compact cert per mirror site (DESIGN.md §14).
      bundle.proof.push_back(crypto::BuildQuorumCert(site, sigs));
      qc_stats().certs_built++;
    }
    Bytes encoded = bundle.Encode();
    for (const net::NodeId& node : unit_group_.nodes) {
      SendTo(node, kGeoProofBundle, Bytes(encoded));
    }
  }

  bool is_mirror_round = round.unit_pos == 0;
  if (is_mirror_round) {
    // A mirror-acting commit: remember the stream position so subsequent
    // commits skip the reconciliation round.
    acting_high_[round.origin] = round.geo_pos;
    mirror_op_active_ = false;
  } else {
    geo_seq_ = std::max(geo_seq_, round.geo_pos);
  }
  Tracer& tr = tracer();
  if (tr.enabled() && round.trace != kNoTrace) {
    sim::SimTime now = sim_->Now();
    tr.Mark(round.trace, TracePhase::kMirrored, now);
    // Phase spans on the participant's track: attestation gathering and
    // the WAN mirror round. Together with the PBFT "request" span they
    // decompose the end-to-end commit latency. (The "done" mark is added
    // when the op drains in submission order — same instant at window 1.)
    if (round.ts_attested >= round.ts_local && round.ts_attested > 0) {
      tr.Span(round.trace, "attest", "geo", round.ts_local,
              round.ts_attested, site_, self_.index, round.geo_pos);
      tr.Span(round.trace, "geo_mirror", "geo", round.ts_attested, now,
              site_, self_.index, round.geo_pos);
    }
  }
  // Mark the owning op finished; its callback fires only once every
  // earlier-submitted op finished too (in-order completion).
  for (size_t i = 0; i < inflight_.size(); ++i) {
    InflightOp& rec = inflight_[i];
    bool match = is_mirror_round
                     ? rec.op.mirror_origin >= 0
                     : (rec.op.mirror_origin < 0 &&
                        rec.op.record.geo_pos == round.geo_pos);
    if (!match || rec.finished) continue;
    rec.finished = true;
    rec.result_pos = round.unit_pos != 0 ? round.unit_pos : round.geo_pos;
    if (i > 0) pipeline_stats().participant_ooo_completions++;
    break;
  }
  DrainFinished();
  PumpOps();
}

// --- mirror-acting commits (failover) ------------------------------------------------

void Participant::StartMirrorOp() {
  BP_CHECK(mirror_op_active_ && !inflight_.empty());
  const ApiOp& op = inflight_.front().op;
  // Already acting for this origin: continue the stream directly.
  auto acting = acting_high_.find(op.mirror_origin);
  if (acting != acting_high_.end()) {
    CommitMirrorRecord(op.mirror_origin, acting->second + 1);
    return;
  }
  // Learn the mirror streams' high positions — locally and at every
  // reachable peer mirror — from byzantine quorums.
  mirror_status_.clear();
  mirror_status_origin_ = op.mirror_origin;
  mirror_op_proceeded_ = false;
  RecvStatusQueryMsg query;
  query.src_site = op.mirror_origin;
  Bytes encoded = query.Encode();
  for (int i = 0; i < 3 * options_.fi + 1; ++i) {
    SendTo(MirrorNodeId(site_, op.mirror_origin, i), kRecvStatusQuery,
           Bytes(encoded));
  }
  for (net::SiteId peer : mirror_peers_[op.mirror_origin]) {
    if (peer == site_ || peer == op.mirror_origin) continue;
    for (int i = 0; i < 2 * options_.fi + 1; ++i) {
      SendTo(MirrorNodeId(peer, op.mirror_origin, i), kRecvStatusQuery,
             Bytes(encoded));
    }
  }
  // Dead peers never answer; proceed with whoever responded.
  mirror_op_timer_.Arm(kGeoRetry, [this]() { ProceedMirrorOp(); });
}

namespace {

/// The (threshold)-th largest value of a reply set, i.e. the highest
/// position some group of `threshold` responders jointly attests.
uint64_t AttestedHigh(const std::map<net::NodeId, uint64_t>& replies,
                      int threshold) {
  std::vector<uint64_t> values;
  for (auto& [node, pos] : replies) values.push_back(pos);
  if (static_cast<int>(values.size()) < threshold) return 0;
  std::sort(values.begin(), values.end(), std::greater<>());
  return values[threshold - 1];
}

}  // namespace

void Participant::OnRecvStatusReply(const net::Message& msg) {
  if (mirror_status_origin_ < 0 || !mirror_op_active_) return;
  RecvStatusReplyMsg reply;
  if (!RecvStatusReplyMsg::Decode(msg.body(), &reply).ok()) return;
  if (reply.src_site != mirror_status_origin_) return;
  mirror_status_[msg.src.site][msg.src] = reply.last_pos;
  // Proceed as soon as the local quorum plus every peer quorum answered;
  // the timer covers crashed peers.
  if (static_cast<int>(mirror_status_[site_].size()) < 2 * options_.fi + 1) {
    return;
  }
  for (net::SiteId peer : mirror_peers_[mirror_status_origin_]) {
    if (peer == site_ || peer == mirror_status_origin_) continue;
    auto it = mirror_status_.find(peer);
    if (it == mirror_status_.end() ||
        static_cast<int>(it->second.size()) < 2 * options_.fi + 1) {
      return;
    }
  }
  ProceedMirrorOp();
}

void Participant::ProceedMirrorOp() {
  if (mirror_op_proceeded_ || mirror_status_origin_ < 0) return;
  auto local_it = mirror_status_.find(site_);
  if (local_it == mirror_status_.end() ||
      static_cast<int>(local_it->second.size()) < 2 * options_.fi + 1) {
    // Local replies are mandatory; re-poll shortly.
    mirror_op_timer_.Arm(kGeoRetry, [this]() { StartMirrorOp(); });
    return;
  }
  mirror_op_proceeded_ = true;
  mirror_op_timer_.Disarm();

  uint64_t local_high = AttestedHigh(local_it->second, options_.fi + 1);
  uint64_t target_high = local_high;
  for (auto& [peer, replies] : mirror_status_) {
    if (peer == site_) continue;
    target_high =
        std::max(target_high, AttestedHigh(replies, options_.fi + 1));
  }

  if (target_high > local_high) {
    // Our mirror is missing entries that committed globally: tell the
    // local mirror group how far the stream reaches, let its leader
    // backfill from the peers (DESIGN.md §10), and re-poll until caught up.
    BP_LOG(kInfo) << "participant " << site_ << " reconciling mirror of "
                  << mirror_status_origin_ << ": " << local_high << " -> "
                  << target_high;
    RecvStatusReplyMsg target;
    target.src_site = mirror_status_origin_;
    target.last_pos = target_high;
    Bytes encoded = target.Encode();
    for (int i = 0; i < 3 * options_.fi + 1; ++i) {
      SendTo(MirrorNodeId(site_, mirror_status_origin_, i), kRecvStatusReply,
             Bytes(encoded));
    }
    mirror_op_timer_.Arm(kGeoRetry, [this]() { StartMirrorOp(); });
    return;
  }

  CommitMirrorRecord(mirror_status_origin_, target_high + 1);
}

void Participant::CommitMirrorRecord(net::SiteId origin, uint64_t geo_pos) {
  mirror_status_.clear();
  mirror_status_origin_ = -1;

  BP_CHECK(mirror_op_active_ && !inflight_.empty());
  ApiOp& op = inflight_.front().op;
  op.record.geo_pos = geo_pos;
  Bytes inner = op.record.Encode();
  crypto::Digest digest = crypto::Sha256Digest(inner);

  LogRecord outer;
  outer.type = RecordType::kMirrored;
  outer.payload = inner;
  outer.src_site = site_;
  outer.geo_pos = geo_pos;
  // The participant's own signature, as a one-signer cert
  // (BlockplaneNode::VerifyMirroredProof).
  outer.proof = {crypto::BuildQuorumCert(
      site_, {signer_->Sign(AttestCanonical(AttestPurpose::kGeoSource, site_,
                                            geo_pos, digest))})};
  qc_stats().certs_built++;

  // Commit into the local mirror group, then replicate to the other
  // mirror peers of the failed origin.
  TraceId trace = op.trace;
  MirrorClient(origin)->Submit(
      outer.Encode(),
      [this, origin, geo_pos, inner, digest, trace](uint64_t) {
        Tracer& tr = tracer();
        if (tr.enabled() && trace != kNoTrace) {
          tr.Mark(trace, TracePhase::kLocalCommitted, sim_->Now());
        }
        auto owned = std::make_unique<GeoRound>(sim_);
        GeoRound& round = *owned;
        round.unit_pos = 0;
        round.geo_pos = geo_pos;
        round.origin = origin;
        round.record_encoded = inner;
        round.digest = digest;
        round.trace = trace;
        round.ts_local = sim_->Now();
        for (net::SiteId peer : mirror_peers_[origin]) {
          if (peer != site_ && peer != origin) round.targets.push_back(peer);
        }
        // Attestations come from the local mirror group this time.
        AttestRequestMsg request;
        request.purpose = AttestPurpose::kGeoSource;
        request.pos = geo_pos;
        Bytes encoded = request.Encode();
        for (int i = 0; i < 3 * options_.fi + 1; ++i) {
          SendTo(MirrorNodeId(site_, origin, i), kAttestRequest,
                 Bytes(encoded));
        }
        round.retry_timer.Arm(
            kGeoRetry, [this, geo_pos]() { ReplicateRound(geo_pos); });
        geo_rounds_[geo_pos] = std::move(owned);
      },
      trace);
}

pbft::PbftClient* Participant::MirrorClient(net::SiteId origin) {
  auto it = mirror_clients_.find(origin);
  if (it != mirror_clients_.end()) return it->second.get();
  pbft::PbftConfig group;
  group.f = options_.fi;
  for (int i = 0; i < 3 * options_.fi + 1; ++i) {
    group.nodes.push_back(MirrorNodeId(site_, origin, i));
  }
  auto client = std::make_unique<pbft::PbftClient>(
      network_, group,
      net::NodeId{site_, kMirrorClientIndexBase + origin});
  return mirror_clients_.emplace(origin, std::move(client))
      .first->second.get();
}

// --- receive ---------------------------------------------------------------------

void Participant::SetReceiveHandler(ReceiveHandler handler) {
  receive_handler_ = std::move(handler);
  // Drain anything already queued.
  for (auto& [src, queue] : receive_queues_) {
    while (!queue.empty() && receive_handler_) {
      Bytes payload = std::move(queue.front());
      queue.pop_front();
      receive_handler_(src, payload);
    }
  }
}

bool Participant::TryReceive(net::SiteId src, Bytes* payload) {
  auto it = receive_queues_.find(src);
  if (it == receive_queues_.end() || it->second.empty()) return false;
  *payload = std::move(it->second.front());
  it->second.pop_front();
  return true;
}

void Participant::OnDeliverNotice(const net::Message& msg) {
  // Only this site's own unit nodes may feed our reception buffers.
  if (msg.src.site != site_ || unit_group_.ReplicaIndex(msg.src) < 0) return;
  DeliverNoticeMsg notice;
  if (!DeliverNoticeMsg::Decode(msg.body(), &notice).ok()) return;
  if (notice.src_log_pos <= delivered_pos_[notice.src_site]) return;

  NoticeKey key{notice.src_site, notice.src_log_pos,
                crypto::Sha256Digest(notice.payload)};
  auto& votes = notice_votes_[key];
  votes.insert(msg.src);
  if (static_cast<int>(votes.size()) != options_.fi + 1) return;

  // f_i+1 nodes delivered identical content: believe it, in source order.
  ready_[notice.src_site][notice.src_log_pos] = {notice.prev_src_log_pos,
                                                 std::move(notice.payload)};
  auto& ready = ready_[notice.src_site];
  uint64_t& delivered = delivered_pos_[notice.src_site];
  while (!ready.empty()) {
    auto first = ready.begin();
    if (first->second.first != delivered) break;  // gap: wait for prev
    Bytes payload = std::move(first->second.second);
    delivered = first->first;
    ready.erase(first);
    Tracer& tr = tracer();
    if (tr.enabled()) {
      // End of a traced send: the source participant bound (site, pos)
      // when the communication record committed locally.
      TraceId t = tr.LookupCommRecord(notice.src_site, delivered);
      if (t != kNoTrace) {
        sim::SimTime now = sim_->Now();
        tr.Mark(t, TracePhase::kDelivered, now);
        tr.Instant(t, "deliver", "geo", now, site_, self_.index, delivered);
      }
    }
    if (receive_handler_) {
      receive_handler_(notice.src_site, payload);
    } else {
      receive_queues_[notice.src_site].push_back(std::move(payload));
    }
  }
  // Notices of delivered records need no more votes: OnDeliverNotice
  // returns before counting them.
  notice_votes_.erase(
      notice_votes_.lower_bound(NoticeKey{notice.src_site, 0, {}}),
      notice_votes_.lower_bound(NoticeKey{notice.src_site, delivered + 1, {}}));
  if (ready.empty()) return;
  // A later record is believed but not the next: every notice of the next
  // was lost (nodes send theirs in commit order). Ask for them again.
  RecvStatusReplyMsg gap;
  gap.src_site = notice.src_site;
  gap.last_pos = delivered;
  for (const net::NodeId& node : unit_group_.nodes) {
    SendTo(node, kRecvStatusReply, gap.Encode());
  }
}

// --- read (§VI-A) -------------------------------------------------------------------

void Participant::Read(uint64_t pos, ReadStrategy strategy, ReadCallback done) {
  if (strategy == ReadStrategy::kLinearizable) {
    // Strongest strategy: order the read itself in the log, then serve it
    // with a quorum read at that point.
    LogCommit(ToBytes("linearizable-read-marker"), 0,
              [this, pos, done = std::move(done)](uint64_t) mutable {
                Read(pos, ReadStrategy::kReadQuorum, std::move(done));
              });
    return;
  }
  uint64_t read_id = next_read_id_++;
  PendingRead& pending = reads_.try_emplace(read_id, sim_).first->second;
  pending.pos = pos;
  pending.strategy = strategy;
  pending.done = std::move(done);

  ReadRequestMsg request;
  request.read_id = read_id;
  request.pos = pos;
  request.body = true;
  Bytes encoded = request.Encode();
  if (strategy == ReadStrategy::kReadOne) {
    // Served from the closest node; if it is down or slow, widen to the
    // whole unit after a grace period (the first response still wins).
    SendTo(unit_group_.nodes[0], kReadRequest, Bytes(encoded));
    pending.retry_timer.Arm(
        2 * unit_group_.client_retry, [this, encoded = std::move(encoded)]() {
          for (const net::NodeId& node : unit_group_.nodes) {
            SendTo(node, kReadRequest, Bytes(encoded));
          }
        });
  } else {
    // f_i+1 nodes, rotating with the read id, ship the entry; the other
    // 2f_i ship its digest only. So any 2f_i+1 replies include a body, and
    // one of the f_i+1 bodies comes from a correct node (DESIGN.md §5
    // item 7).
    request.body = false;
    const Bytes digest_only = request.Encode();
    const size_t n = unit_group_.nodes.size();
    const size_t first = read_id % n;
    for (size_t i = 0; i < n; ++i) {
      const bool body =
          (i + n - first) % n <= static_cast<size_t>(options_.fi);
      SendTo(unit_group_.nodes[i], kReadRequest,
             Bytes(body ? encoded : digest_only));
    }
  }
}

void Participant::OnReadReply(const net::Message& msg) {
  ReadReplyMsg reply;
  if (!ReadReplyMsg::Decode(msg.body(), &reply).ok()) return;
  auto it = reads_.find(reply.read_id);
  if (it == reads_.end()) return;
  if (msg.src.site != site_ || unit_group_.ReplicaIndex(msg.src) < 0) return;
  PendingRead& pending = it->second;

  const bool found = reply.outcome == ReadOutcome::kFound;
  auto& votes = pending.votes[{reply.outcome, reply.digest}];
  if (!votes.insert(msg.src).second) return;
  if (found && !reply.record.empty()) {
    pending.bodies.emplace_back(reply.digest, std::move(reply.record));
  }

  int needed = pending.strategy == ReadStrategy::kReadOne
                   ? 1
                   : 2 * options_.fi + 1;
  if (static_cast<int>(votes.size()) < needed) return;
  // The quorum vouches for the digest, and a body proves itself against
  // it: the vote covers the whole encoded entry, proofs included.
  LogRecord result;
  if (found && !TakeBody(&pending.bodies, reply.digest, &result)) return;

  ReadCallback done = std::move(pending.done);
  reads_.erase(it);
  if (!done) return;
  switch (reply.outcome) {
    case ReadOutcome::kFound:
      done(Status::OK(), std::move(result));
      return;
    case ReadOutcome::kNotFound:
      done(Status::NotFound("no committed entry at position"), LogRecord{});
      return;
    case ReadOutcome::kOutOfRange:
      done(Status::OutOfRange("position below the unit's retained window"),
           LogRecord{});
      return;
  }
}

void Participant::HandleMessage(const net::Message& msg) {
  switch (static_cast<CoreMessageType>(msg.type)) {
    case kDeliverNotice:
      OnDeliverNotice(msg);
      break;
    case kAttestResponse:
      OnAttestResponse(msg);
      break;
    case kGeoAck:
      OnGeoAck(msg);
      break;
    case kRecvStatusReply:
      OnRecvStatusReply(msg);
      break;
    case kReadReply:
      OnReadReply(msg);
      break;
    case kGeoGapNotice:
      OnGeoGapNotice(msg);
      break;
    case kTransmission:
    case kTransmissionAck:
    case kAttestRequest:
    case kRecvStatusQuery:
    case kGeoReplicate:
    case kGeoProofBundle:
    case kReadRequest:
    case kMirrorFetch:
    case kMirrorEntry:
    case kTransmissionNotice:
      return;  // for the unit's nodes
  }
}

void Participant::OnGeoGapNotice(const net::Message& msg) {
  // Only our own unit nodes may report a stuck geo stream.
  if (unit_group_.ReplicaIndex(msg.src) < 0) return;
  GeoGapNoticeMsg notice;
  if (!GeoGapNoticeMsg::Decode(msg.body(), &notice).ok()) return;
  // A byzantine unit leader committed a later geo position while censoring
  // `missing_geo_pos` (DESIGN.md §10). The missing record is one of OUR
  // submissions — its PBFT request is still pending at the client (its
  // reply requires f_i+1 matching states, which the quarantined nodes
  // cannot produce for a censored record). Re-broadcasting the pending
  // requests arms the backups' censored-request watchdogs and forces a
  // view change that evicts the reordering leader; the honest successor
  // proposes the gap and the quarantine drains.
  //
  // Rate-limited: every quarantined apply on every unit node sends a
  // notice, but one nudge per half retry period is plenty.
  sim::SimTime now = sim_->Now();
  if (last_gap_nudge_ != 0 &&
      now - last_gap_nudge_ < unit_group_.client_retry / 2) {
    return;
  }
  last_gap_nudge_ = now;
  robustness_stats().geo_gap_nudges++;
  client_->NudgePending();
}

}  // namespace blockplane::core
