#include "core/node.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"
#include "core/comm_daemon.h"
#include "core/wire.h"

namespace blockplane::core {

namespace {

/// The participant (user-space) process of a site lives at index 1000.
constexpr int32_t kParticipantIndex = 1000;

/// The first cert in `certs` issued by `site`, or null. Honest records
/// carry one cert per signing site; any other entry is ignored padding.
const crypto::QuorumCert* CertFrom(
    const std::vector<crypto::QuorumCert>& certs, net::SiteId site) {
  for (const crypto::QuorumCert& cert : certs) {
    if (cert.site == site) return &cert;
  }
  return nullptr;
}

/// Decodes a Local Log value that re-encodes to its own bytes. A node
/// keeps decoded records and catch-up pages re-encode them, so a value
/// with another encoding (trailing bytes, a padded varint) could never be
/// proven by a page; honest replicas neither admit nor commit one.
bool DecodeValue(const Bytes& value, LogRecord* record) {
  return LogRecord::Decode(value, record).ok() && record->Encode() == value;
}

}  // namespace

net::NodeId ParticipantNodeId(net::SiteId site) {
  return net::NodeId{site, kParticipantIndex};
}

net::NodeId MirrorNodeId(net::SiteId host_site, net::SiteId origin_site,
                         int index) {
  // Mirror groups get disjoint index ranges per mirrored origin so they can
  // share the host site without demultiplexing PBFT traffic.
  return net::NodeId{host_site, 100 * (origin_site + 1) + index};
}

bool InGroup(net::NodeId node, net::NodeId first, int fi) {
  return node.site == first.site && node.index >= first.index &&
         node.index <= first.index + 3 * fi;
}

uint64_t AttestedHigh(const std::map<net::NodeId, uint64_t>& replies,
                      int threshold) {
  std::vector<uint64_t> values;
  for (const auto& [node, pos] : replies) values.push_back(pos);
  if (static_cast<int>(values.size()) < threshold) return 0;
  std::sort(values.begin(), values.end(), std::greater<>());
  return values[threshold - 1];
}

BlockplaneNode::BlockplaneNode(net::Network* network, crypto::KeyStore* keys,
                               const BlockplaneOptions& options,
                               pbft::PbftConfig group, net::NodeId self,
                               net::SiteId origin_site)
    : network_(network),
      sim_(network->simulator()),
      keys_(keys),
      signer_(keys->RegisterNode(self)),
      options_(options),
      self_(self),
      origin_site_(origin_site) {
  group.checkpoint_interval = options_.checkpoint_interval;
  group.window = options_.pbft_window;
  replica_ = std::make_unique<pbft::PbftReplica>(
      network_, keys_, std::move(group), self_,
      [this](uint64_t seq, const Bytes& value,
             const crypto::Digest& value_digest) {
        OnExecute(seq, value, value_digest);
      });
  replica_->SetVerifier(
      [this](const Bytes& value) { return VerifyValue(value); });
  replica_->SetAdmission(
      [this](const Bytes& value) { return AdmitValue(value); },
      [this]() { ResetAdmission(); });
  // Catch-up pages are served from this node's copy of the Local Log.
  replica_->SetReadExecuted([this](uint64_t seq, Bytes* value) {
    auto it = log_.find(seq);
    if (it == log_.end()) return false;
    *value = it->second.Encode();
    return true;
  });
  // Every log keeps a bounded window, so its checkpoints certify the state
  // derived from what it drops (DESIGN.md §10, retention).
  replica_->SetStateHooks(
      {[this]() { return SaveState(); },
       [this](uint64_t seq, const Bytes& state) {
         return LoadState(seq, state);
       },
       [this](uint64_t horizon) { DropThrough(horizon); }});
  network_->Register(self_, this);
}

BlockplaneNode::~BlockplaneNode() { network_->Unregister(self_); }

void BlockplaneNode::SendTo(net::NodeId dst, net::MessageType type,
                            Bytes payload) {
  net::Message msg;
  msg.src = self_;
  msg.dst = dst;
  msg.type = type;
  msg.set_body(std::move(payload));
  if (msg.dst == self_) {
    HandleMessage(msg);
    return;
  }
  network_->Send(std::move(msg));
}

void BlockplaneNode::HandleMessage(const net::Message& msg) {
  if (msg.type >= 100 && msg.type < 200) {
    // The replica drops kReply: answers to SubmitLocalCommit requests need
    // no handling, execution is what matters.
    replica_->HandleMessage(msg);
    return;
  }
  // Every enumerator has a case and there is no default, so a new message
  // type fails the build (-Werror=switch) until it is routed; an
  // unknown wire value matches no case.
  switch (static_cast<CoreMessageType>(msg.type)) {
    case kTransmission:
      OnTransmission(msg);
      return;
    case kTransmissionNotice:
      OnTransmissionNotice(msg);
      return;
    case kAttestResponse:
      OnAttestResponse(msg);
      return;
    case kTransmissionAck:
      for (auto& daemon : daemons_) daemon->OnTransmissionAck(msg);
      return;
    case kRecvStatusReply: {
      RecvStatusReplyMsg target;
      if (msg.src != ParticipantNodeId(self_.site) ||
          !RecvStatusReplyMsg::Decode(msg.body(), &target).ok()) {
        for (auto& daemon : daemons_) daemon->OnRecvStatusReply(msg);
        return;
      }
      // From this site's participant. On a mirror node: about to take over
      // for the origin, it relays the highest position a peer mirror
      // attests. On a unit node: every notice of the record it must deliver
      // after `last_pos` was lost.
      if (!is_mirror()) {
        ResendDeliverNotice(target.src_site, target.last_pos);
      } else if (target.src_site == origin_site_) {
        MaybeFetchMirrorGap(target.last_pos);
      }
      return;
    }
    case kAttestRequest:
      OnAttestRequest(msg);
      return;
    case kRecvStatusQuery:
      OnRecvStatusQuery(msg);
      return;
    case kGeoReplicate:
      OnGeoReplicate(msg);
      return;
    case kGeoProofBundle:
      OnGeoProofBundle(msg);
      return;
    case kMirrorFetch:
      OnMirrorFetch(msg);
      return;
    case kMirrorEntry:
      OnMirrorEntry(msg);
      return;
    case kReadRequest:
      OnReadRequest(msg);
      return;
    case kDeliverNotice:
    case kGeoAck:
    case kReadReply:
    case kGeoGapNotice:
      return;  // for the participant
  }
}

void BlockplaneNode::RegisterVerifier(uint64_t routine_id,
                                      VerifyRoutine routine) {
  BP_CHECK_MSG(routine_id != 0, "routine id 0 is the accept-all default");
  verifiers_[routine_id] = std::move(routine);
}

void BlockplaneNode::SubmitLocalCommit(const LogRecord& record) {
  SubmitRequest(record, next_req_id_++, /*broadcast=*/false);
}

void BlockplaneNode::SubmitRequest(const LogRecord& record, uint64_t req_id,
                                   bool broadcast) {
  pbft::RequestMsg request;
  request.client_token = pbft::ClientToken(self_);
  request.req_id = req_id;
  request.value = record.Encode();
  Bytes encoded = request.Encode();
  if (broadcast) {
    // Escalation: the leader repeatedly failed to commit this record —
    // give it to every replica so the backups forward it and arm their
    // request watchdogs (a stale or censoring leader then loses a view
    // change instead of wedging the stream forever).
    for (const net::NodeId& peer : replica_->config().nodes) {
      SendTo(peer, pbft::kRequest, Bytes(encoded));
    }
    return;
  }
  SendTo(replica_->leader(), pbft::kRequest, std::move(encoded));
}

void BlockplaneNode::StartCommDaemon(net::SiteId dest, int rank) {
  daemons_.push_back(std::make_unique<CommDaemon>(this, dest, rank));
}

void BlockplaneNode::MuteDaemons() {
  for (auto& daemon : daemons_) daemon->Mute();
}

uint64_t BlockplaneNode::last_received_pos(net::SiteId src) const {
  auto it = last_received_pos_.find(src);
  return it == last_received_pos_.end() ? 0 : it->second;
}

const CommDaemon* BlockplaneNode::DaemonFor(net::SiteId dest) const {
  for (const auto& daemon : daemons_) {
    if (daemon->dest() == dest) return daemon.get();
  }
  return nullptr;
}

uint64_t BlockplaneNode::daemon_acked(net::SiteId dest) const {
  const CommDaemon* daemon = DaemonFor(dest);
  return daemon == nullptr ? 0 : daemon->acked_watermark();
}

bool BlockplaneNode::daemon_active(net::SiteId dest) const {
  const CommDaemon* daemon = DaemonFor(dest);
  return daemon != nullptr && daemon->active();
}

// --- PBFT hooks ----------------------------------------------------------------

bool BlockplaneNode::VerifyValue(const Bytes& value) {
  LogRecord record;
  if (!DecodeValue(value, &record)) return false;

  if (is_mirror()) {
    // A mirror group only ever stores mirrored entries of its origin and
    // peer groups' bases of them.
    if (record.type == RecordType::kMirrorBase) {
      return VerifyMirrorBase(record, mirror_high_pos_);
    }
    return record.type == RecordType::kMirrored && VerifyMirrored(record);
  }
  switch (record.type) {
    case RecordType::kMirrored:
    case RecordType::kMirrorBase:
      return false;  // mirror records never enter a unit's own log
    case RecordType::kReceived:
      if (!VerifyReceived(record)) return false;
      break;
    case RecordType::kLogCommit:
    case RecordType::kCommunication:
      break;
  }
  // The user's verification routine (§III-C), if registered.
  if (record.routine_id != 0) {
    auto it = verifiers_.find(record.routine_id);
    if (it != verifiers_.end() && !it->second(record)) return false;
  }
  return true;
}

bool BlockplaneNode::AdmitValue(const Bytes& value) {
  // Floor the projection at applied state: values can commit and execute
  // through paths the projection never saw (catch-up entries, terms under
  // other leaders), so the projection must never lag reality.
  adm_api_count_ = std::max(adm_api_count_, api_record_count_);
  adm_mirror_high_ = std::max(adm_mirror_high_, mirror_high_pos_);
  for (const auto& [site, pos] : last_received_pos_) {
    uint64_t& projected = adm_last_received_[site];
    projected = std::max(projected, pos);
  }

  LogRecord record;
  if (!DecodeValue(value, &record)) return false;

  if (is_mirror()) {
    if (record.type == RecordType::kMirrorBase) {
      if (!VerifyMirrorBase(record, adm_mirror_high_)) return false;
    } else if (record.type != RecordType::kMirrored ||
               record.geo_pos != adm_mirror_high_ + 1 ||
               !VerifyMirroredProof(record)) {
      return false;
    }
    adm_mirror_high_ = record.geo_pos;
    return true;
  }
  switch (record.type) {
    case RecordType::kMirrored:
    case RecordType::kMirrorBase:
      return false;  // mirror records never enter a unit's own log
    case RecordType::kReceived: {
      uint64_t& last = adm_last_received_[record.src_site];
      if (!VerifyReceivedAt(record, last)) return false;
      last = record.src_log_pos;
      break;
    }
    case RecordType::kLogCommit:
    case RecordType::kCommunication:
      // Geo-stream consistency: an API record's geo position must equal the
      // API-record count its execution will observe, or the unit's
      // attestations will never match the acting participant's canonicals.
      // Exact propose-time verification guaranteed this under stop-and-wait;
      // the projection restores it for window > 1.
      if (record.geo_pos != 0 && record.geo_pos != adm_api_count_ + 1) {
        return false;
      }
      break;
  }
  // The user's verification routine (§III-C), if registered. Note: routines
  // judge against this node's applied replica state, not the projection —
  // streams guarded by state-dependent routines should stay at window 1
  // (DESIGN.md §9).
  if (record.routine_id != 0) {
    auto it = verifiers_.find(record.routine_id);
    if (it != verifiers_.end() && !it->second(record)) return false;
  }
  if (record.type == RecordType::kLogCommit ||
      record.type == RecordType::kCommunication) {
    ++adm_api_count_;
  }
  return true;
}

void BlockplaneNode::ResetAdmission() {
  adm_api_count_ = api_record_count_;
  adm_mirror_high_ = mirror_high_pos_;
  adm_last_received_.clear();
  for (const auto& [site, pos] : last_received_pos_) {
    adm_last_received_[site] = pos;
  }
}

bool BlockplaneNode::VerifyReceived(const LogRecord& record) const {
  return VerifyReceivedAt(record, last_received_pos(record.src_site));
}

bool BlockplaneNode::VerifyReceivedAt(const LogRecord& record,
                                      uint64_t last) const {
  // The built-in receive verification routine (§IV-C).
  if (record.dest_site != origin_site_) return false;
  if (record.src_site == origin_site_ || record.src_site < 0) return false;

  // (1) The source participant's unit attested the record: one quorum
  // cert over f_i+1 attestations (DESIGN.md §14). Repeats of the same cert
  // hit the KeyStore's cert cache and skip the MAC recomputation.
  const crypto::QuorumCert* source_cert =
      CertFrom(record.proof, record.src_site);
  if (source_cert == nullptr) return false;
  Bytes source_canonical =
      AttestCanonical(AttestPurpose::kTransmission, record.src_site,
                      record.src_log_pos, record.ContentDigest());
  if (!keys_->VerifyCert(source_canonical, *source_cert, options_.fi + 1)) {
    return false;
  }

  // (2) Not received before, and (3) no earlier unreceived transmission:
  // the chain pointer must extend the reception watermark.
  if (record.src_log_pos <= last) return false;
  if (record.prev_src_log_pos != last) return false;

  // (4) §V: with geo-correlated tolerance, the source must prove that fg
  // other participants hold the record.
  if (options_.fg > 0) {
    LogRecord original;
    original.type = RecordType::kCommunication;
    original.routine_id = record.routine_id;
    original.payload = record.payload;
    original.dest_site = record.dest_site;
    original.geo_pos = record.geo_pos;
    crypto::Digest geo_digest = crypto::Sha256Digest(original.Encode());

    // One cert per proving mirror site.
    std::set<net::SiteId> proven;
    for (const crypto::QuorumCert& cert : record.geo_proof) {
      if (cert.site == record.src_site || cert.site < 0) continue;
      if (cert.site >= network_->topology().num_sites()) continue;
      Bytes canonical = AttestCanonical(AttestPurpose::kGeoAck, cert.site,
                                        record.geo_pos, geo_digest);
      if (keys_->VerifyCert(canonical, cert, options_.fi + 1)) {
        proven.insert(cert.site);
      }
    }
    if (static_cast<int>(proven.size()) < options_.fg) return false;
  }
  return true;
}

bool BlockplaneNode::VerifyMirrored(const LogRecord& record) const {
  if (record.geo_pos != mirror_high_pos_ + 1) return false;
  return VerifyMirroredProof(record);
}

bool BlockplaneNode::VerifyMirroredProof(const LogRecord& record) const {
  LogRecord inner;
  if (!LogRecord::Decode(record.payload, &inner).ok()) return false;

  crypto::Digest digest = crypto::Sha256Digest(record.payload);
  Bytes canonical = AttestCanonical(AttestPurpose::kGeoSource,
                                    record.src_site, record.geo_pos, digest);
  const crypto::QuorumCert* cert = CertFrom(record.proof, record.src_site);
  if (cert == nullptr) return false;
  if (record.src_site == self_.site) {
    // Locally-acting participant: the (trusted, user-space) participant
    // process signs its own submissions, as a one-signer cert; local PBFT
    // masks byzantine nodes.
    return cert->index_base == kParticipantIndex && cert->signer_bits == 1 &&
           keys_->VerifyCert(canonical, *cert, 1);
  }
  // Remote acting site: f_i+1 of its nodes attested the record. Backfill
  // replays and buffered re-verification hit the cert cache.
  return keys_->VerifyCert(canonical, *cert, options_.fi + 1);
}

bool BlockplaneNode::VerifyMirrorBase(const LogRecord& record,
                                      uint64_t high) const {
  if (record.geo_pos <= high) return false;
  // The host's group mirrors the same origin, so its checkpoints certify
  // states of this very log; this group's own votes and the origin unit's
  // do not qualify.
  if (std::find(mirror_peer_hosts_.begin(), mirror_peer_hosts_.end(),
                record.src_site) == mirror_peer_hosts_.end()) {
    return false;
  }
  MirrorBase base;
  DerivedState state;
  if (!MirrorBase::Decode(record.payload, &base).ok() ||
      base.state.StateDigest() != base.checkpoint.state_digest ||
      !DerivedState::Decode(base.state.app, &state).ok() ||
      state.mirror_high != record.geo_pos) {
    return false;
  }
  // 2f_i+1 distinct valid checkpoint votes of that group: f_i+1 of them
  // come from honest replicas that mirrored every position up to the high.
  const pbft::CheckpointMsg vote{base.checkpoint.seq,
                                 base.checkpoint.state_digest, {}};
  const Bytes body = vote.CanonicalBody();
  const int32_t first = MirrorNodeId(record.src_site, origin_site_, 0).index;
  std::set<int32_t> voters;
  for (const crypto::Signature& sig : base.checkpoint.cert) {
    if (sig.signer.site == record.src_site && sig.signer.index >= first &&
        sig.signer.index <= first + 3 * options_.fi &&
        keys_->Verify(body, sig)) {
      voters.insert(sig.signer.index);
    }
  }
  return static_cast<int>(voters.size()) >= 2 * options_.fi + 1;
}

void BlockplaneNode::OnExecute(uint64_t seq, const Bytes& value,
                               const crypto::Digest& value_digest) {
  applied_high_ = seq;

  LogEntry entry;
  if (!LogRecord::Decode(value, &entry).ok()) {
    // Can only happen if f+1 replicas committed garbage — i.e. never.
    BP_LOG(kError) << self_.ToString() << " undecodable committed record";
    return;
  }
  entry.value_digest = value_digest;
  const LogRecord& record =
      log_.insert_or_assign(seq, std::move(entry)).first->second;

  switch (record.type) {
    case RecordType::kLogCommit:
    case RecordType::kCommunication: {
      // Commit-time contiguity gate (DESIGN.md §10): the record stays in
      // the log and the digest chain regardless; only its api-stream side
      // effects may be deferred (quarantined) until the geo gap fills.
      if (AdmitApiRecord(seq, record)) {
        ApplyApiRecord(seq, record.type, record.dest_site, record.geo_pos);
        ReleaseQuarantineContiguous();
      }
      break;
    }
    case RecordType::kReceived: {
      // Monotonic: a transmission two nodes submitted can commit twice.
      uint64_t& watermark = last_received_pos_[record.src_site];
      watermark = std::max(watermark, record.src_log_pos);
      {
        Tracer& tr = tracer();
        if (tr.enabled()) {
          // A traced send whose transmission just committed in this
          // (destination) unit: record the WAN-crossing milestone.
          TraceId trace =
              tr.LookupCommRecord(record.src_site, record.src_log_pos);
          if (trace != kNoTrace) {
            sim::SimTime now = network_->simulator()->Now();
            tr.Mark(trace, TracePhase::kRemoteCommitted, now);
            tr.Instant(trace, "remote_commit", "geo", now, self_.site,
                       self_.index, record.src_log_pos);
          }
        }
      }
      // Ack every node that asked us to commit this transmission.
      auto key = std::make_pair(record.src_site, record.src_log_pos);
      auto pending = pending_acks_.find(key);
      if (pending != pending_acks_.end()) {
        for (const net::NodeId& requester : pending->second) {
          SendTransmissionAck(requester, record.src_log_pos);
        }
        pending_acks_.erase(pending);
      }
      recv_submits_.erase(key);
      SendDeliverNotice(record);
      break;
    }
    case RecordType::kMirrored:
    case RecordType::kMirrorBase: {
      if (record.type == RecordType::kMirrored) {
        mirror_high_pos_ = record.geo_pos;
        const crypto::Digest digest = crypto::Sha256Digest(record.payload);
        mirror_entries_[record.geo_pos] = {seq, digest};
        // Geo-ack back to the acting participant (§V): our signature
        // counts toward its f_i+1-per-site proof.
        GeoAckMsg ack;
        ack.geo_pos = record.geo_pos;
        ack.sig = signer_->Sign(AttestCanonical(
            AttestPurpose::kGeoAck, self_.site, record.geo_pos, digest));
        SendTo(ParticipantNodeId(record.src_site), kGeoAck, ack.Encode());
      } else if (record.geo_pos > mirror_high_pos_) {
        // A peer group's certified checkpoint (DESIGN.md §10): this group
        // now mirrors up to its high and serves nothing at or below it.
        // Only a byzantine leader could order one at or below the high.
        mirror_high_pos_ = record.geo_pos;
        mirror_horizon_ = record.geo_pos;
        mirror_entries_.clear();
        if (replica_->IsLeader()) robustness_stats().mirror_bases_installed++;
      }
      geo_submits_.erase(geo_submits_.begin(),
                         geo_submits_.upper_bound(mirror_high_pos_));
      // Keep the backfill loop self-driving: drain what just became
      // contiguous, and if a known gap remains with nothing buffered to
      // extend it, fetch the next batch (each fetch serves a bounded run).
      if (!mirror_backfill_.empty()) DrainMirrorBackfill();
      if (mirror_gap_target_ > mirror_high_pos_ &&
          mirror_backfill_.count(mirror_high_pos_ + 1) == 0) {
        MaybeFetchMirrorGap(mirror_gap_target_);
      }
      break;
    }
  }
  if (apply_hook_) apply_hook_(seq, record);
}

// --- retention (DESIGN.md §10) ---------------------------------------------------

Bytes BlockplaneNode::SaveState() const {
  DerivedState state;
  state.applied_high = applied_high_;
  state.api_record_count = api_record_count_;
  for (const auto& [src, pos] : last_received_pos_) {
    state.received.push_back({src, pos});
  }
  for (const auto& [dest, positions] : comm_positions_) {
    if (!positions.empty()) state.last_comm.push_back({dest, positions.back()});
  }
  state.mirror_high = mirror_high_pos_;
  for (const auto& [geo_pos, q] : geo_quarantine_) {
    state.quarantined.push_back({geo_pos, q.seq, q.type, q.dest_site});
  }
  return state.Encode();
}

bool BlockplaneNode::LoadState(uint64_t seq, const Bytes& encoded) {
  DerivedState state;
  if (!DerivedState::Decode(encoded, &state).ok()) return false;
  applied_high_ = state.applied_high;
  api_record_count_ = state.api_record_count;
  last_received_pos_.clear();
  for (const SitePos& source : state.received) {
    last_received_pos_[source.site] = source.pos;
  }
  // Each stream's last record is the chain pointer of its next one.
  comm_positions_.clear();
  for (const SitePos& dest : state.last_comm) {
    comm_positions_[dest.site] = {dest.pos};
  }
  mirror_high_pos_ = state.mirror_high;
  mirror_horizon_ = state.mirror_high;
  mirror_entries_.clear();
  geo_submits_.erase(geo_submits_.begin(),
                     geo_submits_.upper_bound(mirror_high_pos_));
  geo_quarantine_.clear();
  for (const QuarantinedRecord& q : state.quarantined) {
    geo_quarantine_[q.geo_pos] = QuarantinedApi{q.seq, q.type, q.dest_site};
  }
  // Nothing at or below the base is held here any more. A transmission
  // that committed below it is acked with the watermark when its sender
  // retransmits.
  log_.erase(log_.begin(), log_.upper_bound(seq));
  api_pos_by_log_pos_.erase(api_pos_by_log_pos_.begin(),
                            api_pos_by_log_pos_.upper_bound(seq));
  geo_proofs_.erase(geo_proofs_.begin(), geo_proofs_.upper_bound(seq));
  auto received = [this](const auto& entry) {
    return entry.first.second <= last_received_pos(entry.first.first);
  };
  std::erase_if(pending_acks_, received);
  std::erase_if(recv_submits_, received);
  horizon_ = seq;
  return true;
}

void BlockplaneNode::DropThrough(uint64_t horizon) {
  horizon_ = std::max(horizon_, horizon);
  for (auto it = log_.begin(); it != log_.end() && it->first <= horizon;) {
    const uint64_t pos = it->first;
    const LogRecord& record = it->second;
    // The release of a quarantined record reads it (DESIGN.md §10).
    bool keep = std::any_of(
        geo_quarantine_.begin(), geo_quarantine_.end(),
        [pos](const auto& entry) { return entry.second.seq == pos; });
    if (!keep && record.type == RecordType::kCommunication) {
      const CommDaemon* daemon = DaemonFor(record.dest_site);
      if (daemon != nullptr) {
        // f_i+1 receivers have not been seen to hold it yet.
        keep = pos > daemon->delivered();
      } else {
        // No daemon here ships it, but a promoting reserve may still need
        // this node's attestation.
        dropped_transmissions_.insert(
            std::lower_bound(dropped_transmissions_.begin(),
                             dropped_transmissions_.end(), pos),
            {pos, TransmissionDigest(pos, record)});
      }
    }
    if (keep) {
      ++it;
      continue;
    }
    if (record.type == RecordType::kMirrored ||
        record.type == RecordType::kMirrorBase) {
      mirror_horizon_ = std::max(mirror_horizon_, record.geo_pos);
    }
    api_pos_by_log_pos_.erase(pos);
    geo_proofs_.erase(pos);
    it = log_.erase(it);
  }
  mirror_entries_.erase(mirror_entries_.begin(),
                        mirror_entries_.upper_bound(mirror_horizon_));
  // Keep each stream from the chain pointer of its first record still
  // held.
  for (auto& [dest, positions] : comm_positions_) {
    size_t held = 0;
    while (held < positions.size() && positions[held] <= horizon &&
           log_.count(positions[held]) == 0) {
      ++held;
    }
    if (held > 1) {
      positions.erase(positions.begin(),
                      positions.begin() + static_cast<std::ptrdiff_t>(held - 1));
    }
  }
}

// --- geo-contiguity quarantine (DESIGN.md §10) -----------------------------------

bool BlockplaneNode::AdmitApiRecord(uint64_t seq, const LogRecord& record) {
  // The gate is only live when this node participates in a geo stream:
  // unit nodes of a participant running with fg > 0. Mirrors never apply
  // API records, and with fg == 0 geo positions are never stamped (seed
  // behaviour is preserved exactly).
  if (is_mirror() || options_.fg == 0) return true;
  RobustnessStats& rs = robustness_stats();
  if (record.geo_pos == 0) {
    // With fg > 0 the (trusted) participant stamps every API record; an
    // unstamped one can only come from a byzantine proposer. Letting it
    // advance the api count would desynchronize api positions from geo
    // positions for every later record, so it is excluded from the stream.
    rs.geo_quarantine_dropped++;
    return false;
  }
  const uint64_t expected = api_record_count_ + 1;
  if (record.geo_pos == expected) return true;
  if (record.geo_pos <= api_record_count_) {
    // Stale duplicate of an already-released geo position (byzantine
    // re-proposal); the first holder keeps the api position.
    rs.geo_quarantine_dropped++;
    return false;
  }
  if (record.geo_pos > expected + kGeoQuarantineSpan) {
    // Absurdly far-future position: quarantining it would let a byzantine
    // leader grow the quarantine without bound.
    rs.geo_quarantine_dropped++;
    return false;
  }
  // Quarantine-and-gap-fill: defer the api-stream side effects (the record
  // itself is already in the log and the digest chain), tell the
  // participant which position the stream is stuck on, and keep committing.
  // This neither re-serializes the pipeline nor rejects the prepared
  // certificate — the poisoned position simply waits for the gap to fill
  // (typically after a view change evicts the censoring leader and an
  // honest one proposes the missing record).
  geo_quarantine_[record.geo_pos] =
      QuarantinedApi{seq, record.type, record.dest_site};
  rs.geo_quarantined++;
  GeoGapNoticeMsg notice;
  notice.missing_geo_pos = expected;
  notice.quarantined_high = geo_quarantine_.rbegin()->first;
  rs.geo_gap_notices++;
  SendTo(ParticipantNodeId(origin_site_), kGeoGapNotice, notice.Encode());
  return false;
}

void BlockplaneNode::ApplyApiRecord(uint64_t seq, RecordType type,
                                    net::SiteId dest_site, uint64_t geo_pos) {
  if (!is_mirror() && options_.fg > 0 && geo_pos > 0) {
    // The api position IS the geo position: under quarantine-and-gap-fill
    // records are released in geo order, so this stays contiguous (and in
    // honest executions it equals the old ++count exactly).
    api_record_count_ = geo_pos;
  } else {
    ++api_record_count_;
  }
  api_pos_by_log_pos_[seq] = api_record_count_;
  if (type == RecordType::kCommunication) {
    auto& positions = comm_positions_[dest_site];
    // Quarantine release can surface log positions out of ascending order;
    // PrevCommPos and the daemons assume a sorted stream.
    auto it = std::lower_bound(positions.begin(), positions.end(), seq);
    if (it == positions.end() || *it != seq) positions.insert(it, seq);
    for (auto& daemon : daemons_) daemon->NotifyLogAppend();
  }
}

void BlockplaneNode::ReleaseQuarantineContiguous() {
  while (true) {
    auto it = geo_quarantine_.find(api_record_count_ + 1);
    if (it == geo_quarantine_.end()) return;
    QuarantinedApi q = it->second;
    uint64_t geo_pos = it->first;
    geo_quarantine_.erase(it);
    robustness_stats().geo_quarantine_released++;
    ApplyApiRecord(q.seq, q.type, q.dest_site, geo_pos);
  }
}

// --- transmissions ---------------------------------------------------------------

void BlockplaneNode::OnTransmission(const net::Message& msg) {
  TransmissionRecord tr;
  if (!TransmissionRecord::Decode(msg.body(), &tr).ok()) return;
  if (is_mirror() || tr.dest_site != origin_site_) return;
  uint64_t watermark = last_received_pos(tr.src_site);
  if (tr.src_log_pos <= watermark) {
    // Already in the Local Log (duplicate daemons or retransmission): the
    // receiving end verifies validity and duplicates are dropped (§IV-C),
    // but we still ack so the sender stops retrying. Proofs are checked
    // once, by the verification routine at commit, so a duplicate costs
    // no MAC work. The ack carries the watermark, not the position: the
    // chain commits in order, so it acks the position cumulatively, and a
    // daemon behind the watermark learns that another daemon is ahead.
    SendTransmissionAck(msg.src, watermark);
    return;
  }
  pending_acks_[{tr.src_site, tr.src_log_pos}].insert(msg.src);
  // Escalating re-submission (see RecvSubmit): leader-only at first; the
  // sender's retransmissions drive later attempts, and persistent failure
  // broadcasts to the unit so backup watchdogs can act.
  RecvSubmit& sub = recv_submits_[{tr.src_site, tr.src_log_pos}];
  if (sub.attempts == 0) sub.req_id = next_req_id_++;
  ++sub.attempts;
  SubmitRequest(tr.ToReceivedRecord(), sub.req_id,
                /*broadcast=*/sub.attempts >= 3);
}

void BlockplaneNode::OnTransmissionNotice(const net::Message& msg) {
  TransmissionNoticeMsg notice;
  if (!TransmissionNoticeMsg::Decode(msg.body(), &notice).ok()) return;
  const net::SiteId src = msg.src.site;
  if (is_mirror() || src == origin_site_) return;
  // Another node of this unit got the body and submits it. This node acks
  // when the record commits here, or at once with its watermark, as for a
  // duplicate body: a daemon behind the watermark learns that another one
  // is ahead.
  uint64_t watermark = last_received_pos(src);
  if (notice.src_log_pos <= watermark) {
    SendTransmissionAck(msg.src, watermark);
    return;
  }
  pending_acks_[{src, notice.src_log_pos}].insert(msg.src);
}

void BlockplaneNode::OnAttestResponse(const net::Message& msg) {
  AttestResponseMsg response;
  if (!AttestResponseMsg::Decode(msg.body(), &response).ok()) return;
  if (response.purpose != AttestPurpose::kTransmission) return;
  if (response.sig.signer != msg.src) return;
  for (auto& daemon : daemons_) daemon->OnAttestResponse(response);
}

// --- attestation service ----------------------------------------------------------

void BlockplaneNode::OnAttestRequest(const net::Message& msg) {
  if (refuse_attestations_) return;
  AttestRequestMsg request;
  if (!AttestRequestMsg::Decode(msg.body(), &request).ok()) return;

  AttestResponseMsg response;
  response.purpose = request.purpose;
  response.pos = request.pos;

  switch (request.purpose) {
    case AttestPurpose::kTransmission: {
      // Sign "communication record at pos is committed and its transmission
      // form (including the chain pointer) is accurate" — from OUR log, or
      // from the digest kept when the record was dropped.
      crypto::Digest digest;
      auto it = log_.find(request.pos);
      if (it != log_.end()) {
        if (it->second.type != RecordType::kCommunication ||
            it->second.dest_site != request.dest_site) {
          return;
        }
        digest = TransmissionDigest(request.pos, it->second);
      } else {
        auto dropped = std::lower_bound(dropped_transmissions_.begin(),
                                        dropped_transmissions_.end(),
                                        request.pos);
        // The digest binds the record's destination, so a request naming
        // another one gets a signature its canonical cannot match.
        if (dropped == dropped_transmissions_.end() ||
            dropped->pos != request.pos) {
          return;
        }
        digest = dropped->digest;
      }
      response.sig = signer_->Sign(AttestCanonical(
          AttestPurpose::kTransmission, origin_site_, request.pos, digest));
      break;
    }
    case AttestPurpose::kGeoSource: {
      if (is_mirror()) {
        // Acting-site flow: attest an entry of our mirror log by its
        // geo position.
        auto it = mirror_entries_.find(request.pos);
        if (it == mirror_entries_.end()) return;
        response.sig = signer_->Sign(AttestCanonical(
            AttestPurpose::kGeoSource, self_.site, request.pos,
            it->second.digest));
        break;
      }
      auto it = log_.find(request.pos);
      if (it == log_.end() || (it->second.type != RecordType::kLogCommit &&
                               it->second.type != RecordType::kCommunication)) {
        return;
      }
      auto api = api_pos_by_log_pos_.find(request.pos);
      if (api == api_pos_by_log_pos_.end()) return;
      response.sig = signer_->Sign(AttestCanonical(
          AttestPurpose::kGeoSource, origin_site_, api->second,
          it->second.value_digest));
      break;
    }
    case AttestPurpose::kGeoAck:
      return;  // geo-acks are pushed, never requested
  }
  SendTo(msg.src, kAttestResponse, response.Encode());
}

crypto::Digest BlockplaneNode::TransmissionDigest(
    uint64_t pos, const LogRecord& record) const {
  LogRecord as_received = record;
  as_received.type = RecordType::kReceived;
  as_received.src_site = origin_site_;
  as_received.src_log_pos = pos;
  as_received.prev_src_log_pos = PrevCommPos(record.dest_site, pos);
  return as_received.ContentDigest();
}

uint64_t BlockplaneNode::PrevCommPos(net::SiteId dest, uint64_t pos) const {
  auto it = comm_positions_.find(dest);
  if (it == comm_positions_.end()) return 0;
  const std::vector<uint64_t>& positions = it->second;
  auto next = std::lower_bound(positions.begin(), positions.end(), pos);
  return next == positions.begin() ? 0 : *(next - 1);
}

// --- reads (§VI-A) ------------------------------------------------------------------

void BlockplaneNode::OnReadRequest(const net::Message& msg) {
  ReadRequestMsg request;
  if (!ReadRequestMsg::Decode(msg.body(), &request).ok()) return;
  ReadReplyMsg reply;
  reply.read_id = request.read_id;
  reply.pos = request.pos;
  auto it = log_.find(request.pos);
  if (request.pos <= horizon_) {
    reply.outcome = ReadOutcome::kOutOfRange;
  } else if (it != log_.end()) {
    reply.outcome = ReadOutcome::kFound;
    reply.digest = it->second.value_digest;
    if (read_lie_ == ReadLie::kNone) {
      if (request.body) reply.record = it->second.Encode();
    } else {
      LogRecord forged = it->second;
      forged.payload = ToBytes("forged read result");
      Bytes encoded = forged.Encode();
      if (read_lie_ == ReadLie::kForgedEntry) {
        reply.digest = crypto::Sha256Digest(encoded);
      }
      if (request.body) reply.record = std::move(encoded);
    }
  }
  SendTo(msg.src, kReadReply, reply.Encode());
}

// --- status queries ----------------------------------------------------------------

void BlockplaneNode::OnRecvStatusQuery(const net::Message& msg) {
  RecvStatusQueryMsg query;
  if (!RecvStatusQueryMsg::Decode(msg.body(), &query).ok()) return;
  RecvStatusReplyMsg reply;
  reply.src_site = query.src_site;
  if (is_mirror()) {
    if (query.src_site != origin_site_) return;
    reply.last_pos = mirror_high_pos_;
  } else {
    // "the returned log position is the one that was sent along with the
    // transmission record and not the one at the receiver's Local Log."
    reply.last_pos = last_received_pos(query.src_site);
  }
  reply.last_pos = ReportedReception(reply.last_pos);
  SendTo(msg.src, kRecvStatusReply, reply.Encode());
}

uint64_t BlockplaneNode::ReportedReception(uint64_t pos) const {
  return lie_about_reception_ ? pos + 1000000 : pos;
}

void BlockplaneNode::SendTransmissionAck(net::NodeId to, uint64_t pos) {
  TransmissionAckMsg ack;
  ack.src_log_pos = ReportedReception(pos);
  SendTo(to, kTransmissionAck, ack.Encode());
}

void BlockplaneNode::SendDeliverNotice(const LogRecord& record) {
  // f_i+1 matching notices convince the participant process.
  DeliverNoticeMsg notice;
  notice.src_site = record.src_site;
  notice.src_log_pos = record.src_log_pos;
  notice.prev_src_log_pos = record.prev_src_log_pos;
  notice.payload = record.payload;
  SendTo(ParticipantNodeId(origin_site_), kDeliverNotice, notice.Encode());
}

void BlockplaneNode::ResendDeliverNotice(net::SiteId src, uint64_t delivered) {
  // A source's received records enter the log in chain order, so the one
  // that follows `delivered` is found walking back from the tail.
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    const LogRecord& record = it->second;
    if (record.type != RecordType::kReceived || record.src_site != src ||
        record.prev_src_log_pos > delivered) {
      continue;
    }
    if (record.prev_src_log_pos == delivered) SendDeliverNotice(record);
    return;
  }
}

// --- geo replication ----------------------------------------------------------------

void BlockplaneNode::OnGeoReplicate(const net::Message& msg) {
  if (!is_mirror() || drop_geo_replicates_) return;
  GeoReplicateMsg replicate;
  if (!GeoReplicateMsg::Decode(msg.body(), &replicate).ok()) return;

  if (replicate.geo_pos <= mirror_high_pos_) {
    // Already mirrored: re-ack (the acting participant's first ack set may
    // have been lost, or a retry raced a slow quorum).
    auto it = mirror_entries_.find(replicate.geo_pos);
    if (it == mirror_entries_.end()) return;
    GeoAckMsg ack;
    ack.geo_pos = replicate.geo_pos;
    ack.sig = signer_->Sign(AttestCanonical(AttestPurpose::kGeoAck, self_.site,
                                            replicate.geo_pos,
                                            it->second.digest));
    SendTo(ParticipantNodeId(replicate.acting_site), kGeoAck, ack.Encode());
    return;
  }

  LogRecord record;
  record.type = RecordType::kMirrored;
  record.payload = std::move(replicate.record);
  record.src_site = replicate.acting_site;
  record.geo_pos = replicate.geo_pos;
  record.proof = std::move(replicate.proof);

  // The leader judges contiguity against its admission projection
  // (DESIGN.md §9): a pipelined replicate that extends positions it has
  // admitted but not yet applied is next in line, not a hole.
  uint64_t high = mirror_high_pos_;
  if (replica_->leader() == self_) high = std::max(high, adm_mirror_high_);
  if (replicate.geo_pos > high + 1) {
    // The geo stream moved past this mirror (e.g. the hosting site sat out
    // an outage while the other mirrors kept acking). Mirror logs commit
    // strictly in geo order, so this record cannot be admitted yet: buffer
    // it and backfill the hole from a peer mirror (§V, DESIGN.md §10).
    // Only a proven replicate may move the backfill target (DESIGN.md §10).
    if (!VerifyMirroredProof(record)) return;
    if (replicate.geo_pos <= mirror_high_pos_ + kMirrorBackfillCap &&
        (mirror_backfill_.size() < kMirrorBackfillCap ||
         mirror_backfill_.count(replicate.geo_pos) > 0)) {
      mirror_backfill_[replicate.geo_pos] = std::move(record);
    }
    MaybeFetchMirrorGap(replicate.geo_pos);
    return;
  }
  // Escalating re-submission, as for received transmissions: the
  // participant's retries drive later attempts.
  RecvSubmit& sub = geo_submits_[replicate.geo_pos];
  if (sub.attempts == 0) sub.req_id = next_req_id_++;
  ++sub.attempts;
  SubmitRequest(record, sub.req_id, /*broadcast=*/sub.attempts >= 3);
}

void BlockplaneNode::OnMirrorFetch(const net::Message& msg) {
  // Mirror gap backfill (§V): hand out the mirrored entries (with their
  // proofs) a lagging peer mirror group's leader is missing, by geo
  // position.
  if (!is_mirror()) return;
  MirrorFetchMsg fetch;
  if (!MirrorFetchMsg::Decode(msg.body(), &fetch).ok()) return;
  if (fetch.origin_site != origin_site_) return;
  MirrorEntryMsg reply;
  reply.origin_site = origin_site_;
  if (mirror_entries_.count(fetch.from_geo_pos + 1) == 0) {
    // Not held here: below this node's horizon the asker gets the newest
    // checkpoint this group certified instead, which leaves it fewer than
    // 2·I entries to fetch above it (DESIGN.md §10, retention).
    MirrorBase base;
    DerivedState state;
    if (!replica_->NewestBase(&base.checkpoint, &base.state) ||
        !DerivedState::Decode(base.state.app, &state).ok() ||
        state.mirror_high <= fetch.from_geo_pos) {
      return;
    }
    LogRecord record;
    record.type = RecordType::kMirrorBase;
    record.payload = base.Encode();
    record.src_site = self_.site;
    record.geo_pos = state.mirror_high;
    reply.record = record.Encode();
    SendTo(msg.src, kMirrorEntry, reply.Encode());
    return;
  }
  constexpr uint64_t kMaxEntries = 64;
  for (uint64_t pos = fetch.from_geo_pos + 1;
       pos <= fetch.from_geo_pos + kMaxEntries; ++pos) {
    auto held = mirror_entries_.find(pos);
    if (held == mirror_entries_.end()) break;
    auto it = log_.find(held->second.seq);
    if (it == log_.end()) break;
    reply.record = it->second.Encode();
    SendTo(msg.src, kMirrorEntry, reply.Encode());
  }
}

void BlockplaneNode::OnMirrorEntry(const net::Message& msg) {
  if (!is_mirror()) return;
  MirrorEntryMsg entry;
  if (!MirrorEntryMsg::Decode(msg.body(), &entry).ok()) return;
  if (entry.origin_site != origin_site_) return;
  LogRecord record;
  if (!LogRecord::Decode(entry.record, &record).ok()) return;
  if (record.type == RecordType::kMirrorBase) {
    // A peer group's base: the leader proposes one above everything it
    // applied or admitted, and admission and every replica's commit vote
    // check it in full (VerifyMirrorBase).
    if (replica_->leader() == self_ &&
        record.geo_pos > std::max(mirror_high_pos_, adm_mirror_high_)) {
      SubmitLocalCommit(record);
    }
    return;
  }
  if (record.type != RecordType::kMirrored) return;
  if (record.geo_pos <= mirror_high_pos_) return;
  if (record.geo_pos > mirror_high_pos_ + kMirrorBackfillCap) return;
  if (mirror_backfill_.size() >= kMirrorBackfillCap &&
      mirror_backfill_.count(record.geo_pos) == 0) {
    return;
  }
  // Proof-check before buffering so a lying peer cannot crowd out real
  // entries; admission re-runs the full verification on submit.
  if (!VerifyMirroredProof(record)) return;
  mirror_backfill_[record.geo_pos] = std::move(record);
  DrainMirrorBackfill();
}

void BlockplaneNode::MaybeFetchMirrorGap(uint64_t target_geo_pos) {
  mirror_gap_target_ = std::max(mirror_gap_target_, target_geo_pos);
  if (mirror_peer_hosts_.empty()) return;
  // Single fetcher: the group's current leader. If the leader is down the
  // view change rotates it out and the next leader takes over.
  if (replica_->leader() != self_) return;
  sim::SimTime now = network_->simulator()->Now();
  constexpr sim::SimTime kMinFetchInterval = sim::Milliseconds(50);
  if (last_mirror_gap_fetch_ != 0 &&
      now - last_mirror_gap_fetch_ < kMinFetchInterval) {
    return;
  }
  last_mirror_gap_fetch_ = now;
  // Re-base the submission watermark on applied state: anything submitted
  // since the last fetch that has not applied was lost and goes again
  // (duplicate submissions are rejected by admission, harmlessly).
  mirror_backfill_submitted_ = mirror_high_pos_;
  MirrorFetchMsg fetch;
  fetch.origin_site = origin_site_;
  fetch.from_geo_pos = mirror_high_pos_;
  Bytes encoded = fetch.Encode();
  for (net::SiteId host : mirror_peer_hosts_) {
    for (int i = 0; i < options_.fi + 1; ++i) {
      SendTo(MirrorNodeId(host, origin_site_, i), kMirrorFetch,
             Bytes(encoded));
    }
  }
  robustness_stats().mirror_gap_fetches++;
  DrainMirrorBackfill();
}

void BlockplaneNode::DrainMirrorBackfill() {
  mirror_backfill_.erase(mirror_backfill_.begin(),
                         mirror_backfill_.upper_bound(mirror_high_pos_));
  if (replica_->leader() != self_) return;
  // Bound proposed-but-unapplied backfill so the rebased retry (one per
  // fetch) resubmits a bounded run, not the whole buffer.
  constexpr uint64_t kMaxInflight = 128;
  uint64_t next = std::max(mirror_high_pos_, mirror_backfill_submitted_) + 1;
  for (auto it = mirror_backfill_.find(next);
       it != mirror_backfill_.end() && next <= mirror_high_pos_ + kMaxInflight;
       it = mirror_backfill_.find(next)) {
    // The pipelined admission projection (DESIGN.md §9) accepts a
    // contiguous run back-to-back; each submission re-verifies the proof.
    SubmitLocalCommit(it->second);
    mirror_backfill_submitted_ = next;
    robustness_stats().mirror_gap_filled++;
    ++next;
  }
}

void BlockplaneNode::OnGeoProofBundle(const net::Message& msg) {
  GeoProofBundleMsg bundle;
  if (!GeoProofBundleMsg::Decode(msg.body(), &bundle).ok()) return;
  geo_proofs_[bundle.pos] = std::move(bundle.proof);
  for (auto& daemon : daemons_) daemon->NotifyLogAppend();
}

}  // namespace blockplane::core
