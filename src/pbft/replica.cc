#include "pbft/replica.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "crypto/sha256.h"

namespace blockplane::pbft {

namespace {

/// Cap of the view-change escalation timer's exponential backoff: each
/// failed attempt doubles the delay, starting from 2 * view_timeout.
constexpr sim::SimTime kViewBackoffCap = sim::Seconds(2);
/// Uniform jitter on each escalation delay, in permille of the backed-off
/// delay (200 = up to +20%), so that replicas whose timers fired together
/// under a partition do not re-synchronize into a retry storm. Integer so
/// that replicas compute bit-identical schedules regardless of libm or
/// optimization level (BP005, DESIGN.md §11).
constexpr uint64_t kViewBackoffJitterPermille = 200;

}  // namespace

PbftReplica::PbftReplica(net::Network* network, crypto::KeyStore* keys,
                         PbftConfig config, net::NodeId self,
                         ExecuteCallback execute)
    : network_(network),
      sim_(network->simulator()),
      keys_(keys),
      config_(std::move(config)),
      self_(self),
      index_(config_.ReplicaIndex(self_)),
      // The controller's "RTT" is an intra-site consensus round, so the
      // prior is a few one-way hops.
      window_ctl_(config_.window, 4 * network->options().intra_site_one_way,
                  "pbft_s" + std::to_string(self.site) + "n" +
                      std::to_string(self.index)),
      execute_(std::move(execute)),
      view_change_timer_(sim_) {
  config_.Validate();
  BP_CHECK_MSG(index_ >= 0, "replica is not a member of its own group");
  signer_ = keys_->RegisterNode(self_);
  state_digest_.fill(0);
  // Jitter stream for the view-change backoff: seeded from this replica's
  // identity so it is deterministic per seed yet distinct per replica,
  // without consuming draws from the simulator's root RNG (which would
  // shift every downstream Fork and invalidate golden traces).
  backoff_rng_.Seed(0x5bd1e995u ^
                    (static_cast<uint64_t>(self_.site) << 32) ^
                    (static_cast<uint64_t>(self_.index) + 1));
}

void PbftReplica::RegisterWithNetwork() { network_->Register(self_, this); }

int PbftReplica::CountMatching(
    const std::map<int32_t, Instance::Vote>& votes, uint64_t view,
    const Digest& digest) {
  int count = 0;
  for (const auto& [index, vote] : votes) {
    if (vote.view == view && vote.digest == digest) ++count;
  }
  return count;
}

void PbftReplica::HandleMessage(const net::Message& msg) {
  if (byzantine_ == ByzantineMode::kSilent) return;
  switch (static_cast<PbftMessageType>(msg.type)) {
    case kPrePrepare:
      OnPrePrepare(msg);
      break;
    case kPrepare:
    case kCommit:
      OnVote(msg);
      break;
    case kRequest:
      OnRequest(msg);
      break;
    case kCheckpoint:
      OnCheckpoint(msg);
      break;
    case kViewChange:
      OnViewChange(msg);
      break;
    case kNewView:
      OnNewView(msg);
      break;
    case kFetchSnapshot:
      OnFetchSnapshot(msg);
      break;
    case kSnapshot:
      OnSnapshot(msg);
      break;
    case kReply:
      return;  // for the client
  }
}

// --- plumbing ---------------------------------------------------------------

void PbftReplica::Broadcast(net::MessageType type, Bytes payload,
                            uint64_t trace_id) {
  // Encode-once fan-out: one allocation, shared by every recipient's
  // Message. Each SendShared is a refcount bump where it used to be a full
  // buffer copy per peer.
  net::PayloadPtr shared = net::MakePayload(std::move(payload));
  int recipients = 0;
  for (const net::NodeId& node : config_.nodes) {
    if (node == self_) continue;
    SendShared(node, type, shared, trace_id);
    ++recipients;
  }
  if (recipients > 1) {
    hotpath_stats().bytes_copied_saved +=
        static_cast<int64_t>(recipients - 1) *
        static_cast<int64_t>(shared->size());
  }
}

void PbftReplica::SendTo(net::NodeId dst, net::MessageType type,
                         Bytes payload, uint64_t trace_id) {
  SendShared(dst, type, net::MakePayload(std::move(payload)), trace_id);
}

void PbftReplica::SendShared(net::NodeId dst, net::MessageType type,
                             net::PayloadPtr payload, uint64_t trace_id) {
  net::Message msg;
  msg.src = self_;
  msg.dst = dst;
  msg.type = type;
  msg.payload = std::move(payload);
  msg.trace_id = trace_id;
  network_->Send(std::move(msg));
}

const Bytes& PbftReplica::CanonicalBodyFor(const VoteMsg& vote) {
  if (canonical_memo_.size() >= kCanonicalMemoMax) canonical_memo_.clear();
  auto key = std::make_tuple(static_cast<uint8_t>(vote.type), vote.view,
                             vote.seq);
  auto it = canonical_memo_.find(key);
  if (it != canonical_memo_.end() && it->second.digest == vote.digest) {
    hotpath_stats().encodes_elided++;
    return it->second.body;
  }
  // Miss (or a vote for the same slot with a different digest, e.g. a
  // byzantine bogus-digest vote): encode and (re)install.
  CanonicalMemoEntry entry{vote.digest, vote.CanonicalBody()};
  return (canonical_memo_[key] = std::move(entry)).body;
}

bool PbftReplica::RunVerifier(const Bytes& value) const {
  if (byzantine_ == ByzantineMode::kRejectVerification) return false;
  if (!verifier_) return true;
  if (value.empty()) return true;  // no-op gap filler
  return verifier_(value);
}

bool PbftReplica::KnownClient(uint64_t client_token) const {
  const net::NodeId client = ClientFromToken(client_token);
  return client.valid() && client.site < network_->topology().num_sites();
}

// --- client requests ---------------------------------------------------------

void PbftReplica::OnRequest(const net::Message& msg) {
  RequestMsg request;
  if (!RequestMsg::Decode(msg.body(), &request).ok()) return;
  // A reply to a token that names no node could not be sent.
  if (!KnownClient(request.client_token)) return;

  // Executed within the dedup window? Re-send the cached reply (the
  // client's first reply may have been lost).
  if (Executed(request.client_token, request.req_id)) {
    auto client_it = cached_replies_.find(request.client_token);
    if (client_it != cached_replies_.end()) {
      auto reply_it = client_it->second.find(request.req_id);
      if (reply_it != client_it->second.end()) {
        SendTo(ClientFromToken(request.client_token), kReply,
               reply_it->second);
      }
    }
    return;
  }

  if (IsLeader() && !in_view_change_) {
    auto key = std::make_pair(request.client_token, request.req_id);
    if (assigned_requests_.count(key) > 0) return;  // already proposed
    if (byzantine_ == ByzantineMode::kReorderGeo && !reorder_stashed_) {
      // Geo-reorder attack: silently censor the first request (mark it
      // assigned so retries stay censored too) while proposing later ones.
      // The unit log then carries non-contiguous geo positions until a view
      // change evicts this leader and an honest one proposes the gap.
      reorder_stashed_ = true;
      assigned_requests_.insert(key);
      return;
    }
    assigned_requests_.insert(key);
    pending_requests_.push_back({std::move(request), msg.trace_id, sim_->Now()});
    MaybeProposeNext();
    return;
  }

  // A request our own verification routine rejects will (rightly) be
  // censored by an honest leader; forwarding or watching it would only
  // provoke pointless view changes.
  if (!RunVerifier(request.value)) return;

  // Backup: forward to the current leader and watch for progress. If the
  // leader censors the request, the watchdog forces a view change.
  // Forward the received payload verbatim by reference — no re-encode, no
  // copy (the leader decodes the same bytes we did).
  hotpath_stats().bytes_copied_saved += static_cast<int64_t>(msg.body().size());
  SendShared(leader(), kRequest, msg.payload, msg.trace_id);
  auto key = std::make_pair(request.client_token, request.req_id);
  if (watched_requests_.count(key) > 0) return;
  WatchedRequest& watch =
      watched_requests_.try_emplace(key, sim_).first->second;
  watch.payload = msg.payload;  // kept for re-forwarding on view entry
  watch.trace_id = msg.trace_id;
  ArmRequestWatchdog(key);
}

void PbftReplica::ArmRequestWatchdog(
    const std::pair<uint64_t, uint64_t>& key) {
  auto it = watched_requests_.find(key);
  if (it == watched_requests_.end()) return;
  it->second.timer.Arm(config_.view_timeout, [this, key]() {
    RequestMsg request;
    const bool valid =
        RequestMsg::Decode(*watched_requests_.at(key).payload, &request)
            .ok() &&
        RunVerifier(request.value);
    watched_requests_.erase(key);
    // The quorum may have executed the request without us; fetch decided
    // entries before blaming the leader, and blame it only for a request
    // that can still execute (not one committed for another client).
    CatchUp();
    if (valid) StartViewChange(view_ + 1);
  });
}

uint64_t PbftReplica::HighWatermark() const {
  // Keep the un-truncated log bounded: never run more than two checkpoint
  // intervals (or two windows, whichever is larger) past the last stable
  // checkpoint. At window 1 this is never the binding constraint.
  uint64_t span = std::max<uint64_t>(2 * config_.checkpoint_interval,
                                     2 * window_ctl_.window());
  return last_stable_ + span;
}

bool PbftReplica::AdmitValue(const Bytes& value) {
  if (byzantine_ == ByzantineMode::kRejectVerification) return false;
  // A geo-reordering byzantine leader does not run the honest admission
  // projection (which would reject its own out-of-contiguity proposals).
  if (byzantine_ == ByzantineMode::kReorderGeo) return true;
  if (value.empty()) return true;  // no-op gap filler
  if (admission_) return admission_(value);
  if (verifier_) return verifier_(value);
  return true;
}

void PbftReplica::RebuildAdmissionProjection(
    const std::map<uint64_t, const Bytes*>& extra) {
  if (!admission_) return;
  if (admission_reset_) admission_reset_();
  // Replay every value that is decided (committed instance) or carried over
  // (prepared proof from a view change) but not yet executed, in sequence
  // order, so fresh admissions are judged against the state the log will
  // reach once the in-flight window drains. Admission verdicts are ignored
  // here: these values are already fixed in the log.
  uint64_t max_seq = extra.empty() ? 0 : extra.rbegin()->first;
  if (!instances_.empty()) {
    max_seq = std::max(max_seq, instances_.rbegin()->first);
  }
  for (uint64_t seq = last_executed_ + 1; seq <= max_seq; ++seq) {
    const Bytes* value = nullptr;
    auto ei = extra.find(seq);
    if (ei != extra.end()) {
      value = ei->second;
    } else {
      auto ii = instances_.find(seq);
      if (ii != instances_.end() && ii->second.committed) {
        value = &ii->second.value;
      }
    }
    if (value != nullptr && !value->empty()) admission_(*value);
  }
}

void PbftReplica::MaybeProposeNext() {
  if (!IsLeader() || in_view_change_) return;
  if (next_seq_ <= last_executed_) next_seq_ = last_executed_ + 1;
  while (!pending_requests_.empty()) {
    // Sliding window: at most `window` proposed-but-unexecuted instances,
    // and never beyond the high watermark (checkpoint lag bound).
    uint64_t outstanding = (next_seq_ - 1) - last_executed_;
    if (outstanding >= window_ctl_.window() ||
        next_seq_ > HighWatermark()) {
      // Count stall *episodes*, not pump invocations: this path re-enters
      // on every request arrival and execution while the same stall
      // persists, and ticking the counter each time made it meaningless
      // as a back-pressure signal. The episode closes below as soon as
      // any proposal is admitted (partial drain included).
      if (!window_stalled_) {
        window_stalled_ = true;
        pipeline_stats().pbft_window_stalls++;
      }
      return;
    }
    window_stalled_ = false;
    PendingRequest pending = std::move(pending_requests_.front());
    RequestMsg& request = pending.request;
    pending_requests_.pop_front();
    // An honest leader does not propose values its admission check rejects
    // (e.g. a receive that another node already committed); proposing them
    // would stall the group into a needless view change. With window > 1
    // the check runs against the projected state (DESIGN.md §9).
    if (!AdmitValue(request.value)) {
      pipeline_stats().pbft_admission_rejects++;
      assigned_requests_.erase({request.client_token, request.req_id});
      continue;
    }
    Propose(request.client_token, request.req_id, std::move(request.value),
            pending.trace_id, pending.enqueued);
  }
  // Queue drained: whatever stall was open is over (the window has room).
  window_stalled_ = false;
}

void PbftReplica::Propose(uint64_t client_token, uint64_t req_id,
                          Bytes value, uint64_t trace_id,
                          sim::SimTime enqueued) {
  uint64_t seq = next_seq_++;
  PipelineStats& ps = pipeline_stats();
  ps.pbft_proposals++;
  int64_t inflight = static_cast<int64_t>((next_seq_ - 1) - last_executed_);
  ps.pbft_inflight_peak = std::max(ps.pbft_inflight_peak, inflight);
  Tracer& tr = tracer();
  if (tr.enabled() && trace_id != 0 && enqueued != 0 &&
      sim_->Now() > enqueued) {
    // Queue-wait vs in-flight: how long the request sat behind a full
    // proposal window before its pre-prepare went out.
    tr.Span(trace_id, "queue_wait", "pipeline", enqueued, sim_->Now(),
            self_.site, self_.index, seq);
  }

  PrePrepareMsg pp;
  pp.view = view_;
  pp.seq = seq;
  const Digest value_digest = crypto::Sha256Digest(value);
  pp.digest = RequestDigest(client_token, req_id, value_digest);
  pp.client_token = client_token;
  pp.req_id = req_id;
  pp.value = std::move(value);
  pp.sig = signer_->Sign(pp.CanonicalBody());

  Instance& instance = InstanceAt(seq);
  instance.view = view_;
  instance.digest = pp.digest;
  instance.value_digest = value_digest;
  instance.has_preprepare = true;
  instance.preprepare_sig = pp.sig;
  instance.value = pp.value;
  instance.client_token = client_token;
  instance.req_id = req_id;
  instance.trace_id = trace_id;
  instance.ts_started = sim_->Now();
  ArmProgressTimer(seq);

  if (byzantine_ == ByzantineMode::kEquivocate) {
    // Send a different value (hence digest) to each half of the replicas.
    int parity = 0;
    for (const net::NodeId& node : config_.nodes) {
      if (node == self_) continue;
      PrePrepareMsg forged = pp;
      if (parity++ % 2 == 1) {
        forged.value.push_back(0xEE);
        forged.digest = RequestDigest(forged.client_token, forged.req_id,
                                      crypto::Sha256Digest(forged.value));
        forged.sig = signer_->Sign(forged.CanonicalBody());
      }
      SendTo(node, kPrePrepare, forged.Encode(), trace_id);
    }
    return;
  }
  Broadcast(kPrePrepare, pp.Encode(), trace_id);
}

// --- three-phase protocol -----------------------------------------------------

void PbftReplica::OnPrePrepare(const net::Message& msg) {
  PrePrepareMsg pp;
  if (!PrePrepareMsg::Decode(msg.body(), &pp).ok()) return;
  if (msg.src != config_.LeaderOf(pp.view)) return;
  if (!keys_->Verify(pp.CanonicalBody(), pp.sig)) return;
  if (pp.sig.signer != msg.src) return;
  const Digest value_digest = crypto::Sha256Digest(pp.value);
  if (RequestDigest(pp.client_token, pp.req_id, value_digest) != pp.digest) {
    return;
  }
  if (pp.view != view_ || in_view_change_) return;
  if (pp.seq <= last_stable_) return;
  // Flood protection: reject sequence numbers far beyond our high
  // watermark (lax by 2x so an honest leader whose stable checkpoint runs
  // ahead of ours is never rejected — checkpoint certificates travel on
  // the same reliable links as pre-prepares).
  if (pp.seq > HighWatermark() + (HighWatermark() - last_stable_)) return;

  // After a view change, carried-over sequence numbers must match the
  // digest recomputed from the view-change set.
  auto expected = expected_digests_.find(pp.seq);
  if (expected != expected_digests_.end() && expected->second != pp.digest) {
    return;
  }

  Instance& instance = InstanceAt(pp.seq);
  if (instance.has_preprepare) {
    // Accept only an identical re-transmission for this view.
    if (instance.view == pp.view && instance.digest != pp.digest) {
      // Equivocation evidence: same (view, seq), different digest.
      StartViewChange(view_ + 1);
    }
    return;
  }
  instance.view = pp.view;
  instance.digest = pp.digest;
  instance.value_digest = value_digest;
  instance.has_preprepare = true;
  instance.preprepare_sig = pp.sig;
  instance.value = std::move(pp.value);
  instance.client_token = pp.client_token;
  instance.req_id = pp.req_id;
  if (instance.trace_id == 0) instance.trace_id = msg.trace_id;
  if (instance.ts_started == 0) instance.ts_started = sim_->Now();
  ArmProgressTimer(pp.seq);

  // Broadcast our prepare vote.
  VoteMsg prepare;
  prepare.type = kPrepare;
  prepare.view = pp.view;
  prepare.seq = pp.seq;
  prepare.digest = instance.digest;
  if (byzantine_ == ByzantineMode::kBogusVotes) {
    prepare.digest[0] ^= 0xff;
  }
  prepare.sig = signer_->Sign(CanonicalBodyFor(prepare));
  instance.sent_prepare = true;
  // Own vote.
  instance.prepares[index_] = {prepare.view, prepare.digest, prepare.sig};
  Broadcast(kPrepare, prepare.Encode(), instance.trace_id);
  MaybePrepared(pp.seq);
}

void PbftReplica::OnVote(const net::Message& msg) {
  VoteMsg vote;
  const PbftMessageType type = msg.type == kPrepare ? kPrepare : kCommit;
  if (!VoteMsg::Decode(type, msg.body(), &vote).ok()) return;
  const int sender = config_.ReplicaIndex(msg.src);
  if (sender < 0) return;
  if (type == kPrepare && msg.src == config_.LeaderOf(vote.view)) {
    return;  // leaders don't prepare
  }
  if (!keys_->Verify(CanonicalBodyFor(vote), vote.sig)) return;
  if (vote.sig.signer != msg.src) return;
  if (vote.view != view_ || in_view_change_) return;
  if (vote.seq <= last_stable_) return;

  if (vote.type == kPrepare) {
    Instance& instance = InstanceAt(vote.seq);
    if (!instance.has_preprepare) instance.view = vote.view;
    if (instance.trace_id == 0) instance.trace_id = msg.trace_id;
    // Buffered early votes carry their digest; only matching ones count.
    instance.prepares.emplace(
        sender, Instance::Vote{vote.view, vote.digest, vote.sig});
    ArmProgressTimer(vote.seq);
    MaybePrepared(vote.seq);
    return;
  }
  Instance& instance = InstanceAt(vote.seq);
  if (instance.trace_id == 0) instance.trace_id = msg.trace_id;
  instance.commits[sender] = {vote.view, vote.digest, vote.sig};
  MaybeCommitted(vote.seq);
}

void PbftReplica::MaybePrepared(uint64_t seq) {
  auto it = instances_.find(seq);
  if (it == instances_.end()) return;
  Instance& instance = it->second;
  if (instance.prepared || !instance.has_preprepare) return;
  // Prepared = pre-prepare + 2f matching prepares from distinct backups.
  if (CountMatching(instance.prepares, instance.view, instance.digest) <
      2 * config_.f) {
    return;
  }
  instance.prepared = true;
  instance.ts_prepared = sim_->Now();

  // Blockplane §IV-B: run the verification routine before the commit vote.
  if (!RunVerifier(instance.value)) {
    // The routine may merely be ahead of our state (e.g. it checks a chain
    // pointer whose predecessor has not executed here yet); retry after
    // each execution instead of voting now.
    instance.verify_pending = true;
    withheld_votes_.insert(seq);
    BP_LOG(kInfo) << self_.ToString() << " verification rejected seq " << seq;
    return;  // withhold the commit-phase vote for now
  }
  SendCommitVote(seq);
}

void PbftReplica::SendCommitVote(uint64_t seq) {
  auto it = instances_.find(seq);
  if (it == instances_.end() || it->second.sent_commit) return;
  Instance& instance = it->second;
  instance.verify_pending = false;
  VoteMsg commit;
  commit.type = kCommit;
  commit.view = instance.view;
  commit.seq = seq;
  commit.digest = instance.digest;
  if (byzantine_ == ByzantineMode::kBogusVotes) {
    commit.digest[1] ^= 0xff;
  }
  commit.sig = signer_->Sign(CanonicalBodyFor(commit));
  instance.sent_commit = true;
  instance.commits[index_] = {instance.view, instance.digest, commit.sig};
  Broadcast(kCommit, commit.Encode(), instance.trace_id);
  MaybeCommitted(seq);
}

void PbftReplica::RetryPendingVerifications() {
  std::vector<uint64_t> ready;
  for (auto seq_it = withheld_votes_.begin();
       seq_it != withheld_votes_.end();) {
    auto it = instances_.find(*seq_it);
    if (it == instances_.end() || !it->second.verify_pending ||
        it->second.sent_commit) {
      seq_it = withheld_votes_.erase(seq_it);
      continue;
    }
    const Instance& instance = it->second;
    if (instance.prepared && RunVerifier(instance.value)) {
      ready.push_back(*seq_it);
    }
    ++seq_it;
  }
  for (uint64_t seq : ready) SendCommitVote(seq);
}

void PbftReplica::MaybeCommitted(uint64_t seq) {
  auto it = instances_.find(seq);
  if (it == instances_.end()) return;
  Instance& instance = it->second;
  if (instance.committed || !instance.prepared) return;
  if (CountMatching(instance.commits, instance.view, instance.digest) <
      config_.quorum()) {
    return;
  }
  instance.committed = true;
  // Freeze the certificate catch-up pages serve: commit votes that
  // arrive later, e.g. from a view that re-proposes this seq, must not mix
  // into it, or peers reject it.
  instance.cert_view = instance.view;
  for (const auto& [index, vote] : instance.commits) {
    if (static_cast<int>(instance.cert.size()) == config_.quorum()) break;
    if (vote.view == instance.view && vote.digest == instance.digest) {
      instance.cert.push_back(vote.sig);
    }
  }
  instance.ts_committed = sim_->Now();
  if (seq != last_executed_ + 1) {
    // Certificate completed out of sequence order; execution will hold it
    // until every earlier instance commits (in-order delivery).
    pipeline_stats().pbft_ooo_commits++;
  }
  instance.progress_timer.Disarm();
  ExecuteReady();
}

void PbftReplica::ExecuteReady() {
  while (true) {
    auto it = instances_.find(last_executed_ + 1);
    if (it == instances_.end() || !it->second.committed) break;
    Instance& instance = it->second;
    uint64_t seq = last_executed_ + 1;

    bool is_noop = instance.client_token == 0 && instance.value.empty();
    bool duplicate =
        !is_noop && Executed(instance.client_token, instance.req_id);

    if (!is_noop && !duplicate) {
      executed_window_.push_back(
          {seq, instance.client_token, instance.req_id});
      executed_reqs_.insert({instance.client_token, instance.req_id});
      if (!read_executed_) executed_log_[seq] = instance.value;
      // Chain the state digest (cheap: fixed 64-byte input).
      state_digest_ = ChainDigest(state_digest_, seq, instance.value_digest);
      if (execute_) execute_(seq, instance.value, instance.value_digest);
      Tracer& tr = tracer();
      if (tr.enabled() && instance.trace_id != 0) {
        // Per-replica phase spans: how long this instance spent reaching
        // the prepared and committed points, plus an execution instant.
        if (instance.ts_prepared >= instance.ts_started) {
          tr.Span(instance.trace_id, "prepare", "pbft", instance.ts_started,
                  instance.ts_prepared, self_.site, self_.index, seq);
        }
        if (instance.ts_committed >= instance.ts_prepared &&
            instance.ts_prepared > 0) {
          tr.Span(instance.trace_id, "commit", "pbft", instance.ts_prepared,
                  instance.ts_committed, self_.site, self_.index, seq);
        }
        tr.Instant(instance.trace_id, "execute", "pbft", sim_->Now(),
                   self_.site, self_.index, seq);
      }
      SendReply(instance, seq);
      // Every executed instance grows the proposal window on every replica
      // — a backup that never grew would hand its next leadership term a
      // stale, collapsed window. Only the leader of the proposing view
      // samples a propose-to-execute latency (an instance inherited across
      // a view change mixes two leaders' clocks: Karn's rule).
      if (IsLeader() && instance.view == view_ && instance.ts_started > 0 &&
          sim_->Now() > instance.ts_started) {
        window_ctl_.OnAck(sim_->Now() - instance.ts_started);
      } else {
        window_ctl_.OnAckNoSample();
      }
    }

    auto wit =
        watched_requests_.find({instance.client_token, instance.req_id});
    if (wit != watched_requests_.end()) watched_requests_.erase(wit);
    assigned_requests_.erase({instance.client_token, instance.req_id});
    expected_digests_.erase(seq);
    ++last_executed_;
    // The window slides by seq, not by executed value, so every replica
    // holds the same pairs at a checkpoint.
    while (!executed_window_.empty() &&
           executed_window_.front().seq + RetainedSpan() <= last_executed_) {
      const ExecutedRequest& oldest = executed_window_.front();
      executed_reqs_.erase({oldest.client_token, oldest.req_id});
      executed_window_.pop_front();
    }

    if (last_executed_ % config_.checkpoint_interval == 0) {
      TakeCheckpoint(last_executed_);
    }
  }
  RetryPendingVerifications();
  MaybeAbandonViewChange();
  MaybeProposeNext();
}

void PbftReplica::MaybeAbandonViewChange() {
  // If execution progressed while we alone demand a new view, we were
  // merely lagging (now caught up), not facing a faulty leader. Resuming
  // normal operation is safe: our view-change message is just a vote that
  // others may still use.
  if (!in_view_change_) return;
  auto votes = view_changes_.find(target_view_);
  int supporters =
      votes == view_changes_.end() ? 0 : static_cast<int>(votes->second.size());
  if (supporters > config_.f) return;  // a real view change is brewing
  in_view_change_ = false;
  target_view_ = view_;
  viewchange_attempts_ = 0;
  view_change_timer_.Disarm();
}

void PbftReplica::SendReply(const Instance& instance, uint64_t seq) {
  if (instance.client_token == 0 || !KnownClient(instance.client_token)) {
    return;
  }
  ReplyMsg reply;
  reply.view = view_;
  reply.req_id = instance.req_id;
  reply.seq = seq;
  reply.replica = index_;
  // The rolling state digest after executing `seq` (chained just before
  // this call). Honest replicas agree on it; it is what makes the client's
  // f+1 "matching" replies actually match — see ReplyMsg::result_digest.
  reply.result_digest = state_digest_;
  Bytes encoded = reply.Encode();
  auto& cache = cached_replies_[instance.client_token];
  cache[instance.req_id] = encoded;
  if (cache.size() > 128) cache.erase(cache.begin());
  SendTo(ClientFromToken(instance.client_token), kReply, std::move(encoded),
         instance.trace_id);
}

// --- state transfer / catch-up -------------------------------------------------

void PbftReplica::CatchUp() {
  FetchSnapshotMsg fetch;
  fetch.from_seq = last_executed_ + 1;
  fetch.view = view_;
  Broadcast(kFetchSnapshot, fetch.Encode());
}

void PbftReplica::OnFetchSnapshot(const net::Message& msg) {
  FetchSnapshotMsg fetch;
  if (config_.ReplicaIndex(msg.src) < 0 ||
      !FetchSnapshotMsg::Decode(msg.body(), &fetch).ok()) {
    return;
  }
  SnapshotMsg page;
  uint64_t from = std::max<uint64_t>(fetch.from_seq, 1);
  // The certified part: every value executed from `from` up to the first
  // kept checkpoint at or above it, and what that checkpoint certifies.
  // The digest chain proves the values, with no entry for a no-op or
  // duplicate position. At or below the horizon of an executor that
  // dropped its values, the page is a base page: the horizon's state and
  // no values.
  const bool base = state_hooks_.drop && from <= horizon_;
  for (auto checkpoint = checkpoints_.lower_bound(base ? horizon_ : from);
       read_executed_ && checkpoint != checkpoints_.end() &&
       checkpoint->first <= last_executed_;
       ++checkpoint) {
    auto state = states_.find(checkpoint->first);
    if (state == states_.end()) continue;
    page.checkpoint = checkpoint->second;
    page.state = state->second;
    Bytes value;
    for (uint64_t seq = from; !base && seq <= checkpoint->first; ++seq) {
      if (read_executed_(seq, &value)) {
        page.entries.push_back({seq, 0, 0, 0, std::move(value), {}});
      }
    }
    from = checkpoint->first + 1;
    break;
  }
  // The live part: committed instances above the stable checkpoint, each
  // with its frozen certificate, up to one checkpoint interval per page.
  if (from > last_stable_) {
    for (auto it = instances_.lower_bound(from);
         it != instances_.end() &&
         page.entries.size() < config_.checkpoint_interval;
         ++it) {
      const Instance& instance = it->second;
      if (!instance.committed) continue;
      page.entries.push_back({it->first, instance.cert_view,
                              instance.client_token, instance.req_id,
                              instance.value, instance.cert});
    }
  }
  if (fetch.view < view_) page.new_view.push_back(new_view_);
  if (page.checkpoint.seq == 0 && page.entries.empty() &&
      page.new_view.empty()) {
    return;
  }
  SendTo(msg.src, kSnapshot, page.Encode());
}

void PbftReplica::OnSnapshot(const net::Message& msg) {
  SnapshotMsg page;
  if (config_.ReplicaIndex(msg.src) < 0 ||
      !SnapshotMsg::Decode(msg.body(), &page).ok()) {
    return;
  }
  const uint64_t executed = last_executed_;
  InstallPage(&page);
  const bool entered =
      !page.new_view.empty() && AdoptNewView(page.new_view.front());
  // A page that advanced execution asks for the next one; one that added
  // nothing asks for nothing.
  if (last_executed_ > executed ||
      (entered && last_stable_ > last_executed_)) {
    CatchUp();
  }
}

void PbftReplica::InstallPage(SnapshotMsg* page) {
  const uint64_t executed = last_executed_;
  const StableCheckpoint& checkpoint = page->checkpoint;
  auto live = std::find_if(
      page->entries.begin(), page->entries.end(),
      [&](const CommittedEntry& e) { return e.seq > checkpoint.seq; });
  if (checkpoint.seq > last_executed_) {
    // The checkpoint certifies the page's state; the values up to it must
    // chain from our executed state to the state's chain. Check them all
    // before executing any.
    if (!ValidCheckpoint(checkpoint) ||
        page->state.StateDigest() != checkpoint.state_digest) {
      return;
    }
    auto first = std::find_if(
        page->entries.begin(), live,
        [&](const CommittedEntry& e) { return e.seq > last_executed_; });
    Digest chain = state_digest_;
    std::vector<Digest> digests;
    for (auto it = first; it != live; ++it) {
      digests.push_back(crypto::Sha256Digest(it->value));
      chain = ChainDigest(chain, it->seq, digests.back());
    }
    const bool base = chain != page->state.chain;
    if (!base) {
      for (auto it = first; it != live; ++it) {
        if (execute_) execute_(it->seq, it->value, digests[it - first]);
      }
    } else if (first != live || !state_hooks_.load ||
               !state_hooks_.load(checkpoint.seq, page->state.app)) {
      // A lying responder, or one that no longer holds every value and
      // an asker that must have them.
      return;
    }
    state_digest_ = page->state.chain;
    InstallExecuted(page->state.executed);
    last_executed_ = checkpoint.seq;
    states_[checkpoint.seq] = std::move(page->state);
    AdoptStableCheckpoint(checkpoint);
    // Nothing at or below a base is executed here.
    if (base) SetHorizon(checkpoint.seq);
    // The admission projection needs no re-base: it is floored at applied
    // state, and a rebuild would forget this leader's uncommitted
    // proposals and admit their values a second time.
  }
  // Entries above the checkpoint: each needs 2f+1 distinct valid commit
  // votes of its view.
  bool filled = false;
  for (auto it = live; it != page->entries.end(); ++it) {
    CommittedEntry& entry = *it;
    if (entry.seq <= last_executed_ || entry.seq <= last_stable_) continue;
    auto existing = instances_.find(entry.seq);
    if (existing != instances_.end() && existing->second.committed) continue;
    VoteMsg commit;
    commit.type = kCommit;
    commit.view = entry.view;
    commit.seq = entry.seq;
    const Digest value_digest = crypto::Sha256Digest(entry.value);
    commit.digest =
        RequestDigest(entry.client_token, entry.req_id, value_digest);
    const auto valid = ValidSigners(commit.CanonicalBody(), entry.commit_sigs);
    if (static_cast<int>(valid.size()) < config_.quorum()) continue;

    Instance& instance = InstanceAt(entry.seq);
    instance.progress_timer.Disarm();
    if (!instance.prepared || instance.digest != commit.digest) {
      // Without a prepared certificate of our own for this value, the
      // instance takes the entry's; one we have still goes into view
      // changes.
      instance.view = entry.view;
      instance.digest = commit.digest;
      instance.value_digest = value_digest;
      instance.value = std::move(entry.value);
      instance.client_token = entry.client_token;
      instance.req_id = entry.req_id;
      instance.has_preprepare = true;
      instance.prepared = true;
      instance.caught_up = true;
    }
    instance.committed = true;
    // Keep the verified certificate so this replica can serve it onward.
    instance.cert_view = entry.view;
    instance.cert.clear();
    for (const auto& [index, sig] : valid) instance.cert.push_back(sig);
    filled = true;
  }
  if (filled || last_executed_ > executed) ExecuteReady();
}

// --- checkpoints --------------------------------------------------------------

CheckpointState PbftReplica::CurrentState() const {
  CheckpointState state;
  state.chain = state_digest_;
  if (state_hooks_.save) state.app = state_hooks_.save();
  state.executed.assign(executed_window_.begin(), executed_window_.end());
  return state;
}

void PbftReplica::InstallExecuted(const std::vector<ExecutedRequest>& executed) {
  executed_window_.assign(executed.begin(), executed.end());
  executed_reqs_.clear();
  for (const ExecutedRequest& request : executed) {
    executed_reqs_.insert({request.client_token, request.req_id});
    // Its watchdog would blame a leader for a request that already ran.
    auto watched =
        watched_requests_.find({request.client_token, request.req_id});
    if (watched != watched_requests_.end()) watched_requests_.erase(watched);
  }
}

void PbftReplica::TakeCheckpoint(uint64_t seq) {
  CheckpointState state = CurrentState();
  CheckpointMsg cp;
  cp.seq = seq;
  cp.state_digest = state.StateDigest();
  states_[seq] = std::move(state);
  cp.sig = signer_->Sign(cp.CanonicalBody());
  checkpoint_votes_[seq][cp.state_digest][index_] = cp.sig;
  Broadcast(kCheckpoint, cp.Encode());
}

void PbftReplica::OnCheckpoint(const net::Message& msg) {
  CheckpointMsg cp;
  if (!CheckpointMsg::Decode(msg.body(), &cp).ok()) return;
  int sender = config_.ReplicaIndex(msg.src);
  if (sender < 0) return;
  if (!keys_->Verify(cp.CanonicalBody(), cp.sig) || cp.sig.signer != msg.src) {
    return;
  }
  if (cp.seq <= last_stable_) return;
  auto& votes = checkpoint_votes_[cp.seq][cp.state_digest];
  votes[sender] = cp.sig;
  if (static_cast<int>(votes.size()) < config_.quorum()) return;

  StableCheckpoint stable{cp.seq, cp.state_digest, {}};
  for (auto& [index, sig] : votes) stable.cert.push_back(sig);
  AdoptStableCheckpoint(std::move(stable));
  // A quorum executed past us: fetch what we missed (§VI-B).
  if (last_stable_ > last_executed_) CatchUp();
}

std::map<int32_t, Signature> PbftReplica::ValidSigners(
    const Bytes& body, const std::vector<Signature>& sigs) const {
  std::map<int32_t, Signature> valid;
  for (const Signature& sig : sigs) {
    const int index = config_.ReplicaIndex(sig.signer);
    if (index >= 0 && keys_->Verify(body, sig)) valid.emplace(index, sig);
  }
  return valid;
}

bool PbftReplica::ValidCheckpoint(const StableCheckpoint& checkpoint) const {
  const CheckpointMsg vote{checkpoint.seq, checkpoint.state_digest, {}};
  return checkpoint.seq == 0 ||
         static_cast<int>(ValidSigners(vote.CanonicalBody(), checkpoint.cert)
                              .size()) >= config_.quorum();
}

void PbftReplica::AdoptStableCheckpoint(StableCheckpoint checkpoint) {
  const uint64_t seq = checkpoint.seq;
  if (seq < horizon_) return;
  checkpoints_.emplace(seq, std::move(checkpoint));
  if (seq <= last_stable_) return;
  // Stable: truncate everything at or below the checkpoint.
  last_stable_ = seq;
  instances_.erase(instances_.begin(), instances_.upper_bound(seq));
  checkpoint_votes_.erase(checkpoint_votes_.begin(),
                          checkpoint_votes_.upper_bound(seq));
  executed_log_.erase(executed_log_.begin(), executed_log_.upper_bound(seq));
  std::erase_if(canonical_memo_, [seq](const auto& entry) {
    return std::get<2>(entry.first) <= seq;
  });
  // Move the horizon to the newest checkpoint at or below seq - 4·I that
  // a page can start at: one with a certificate and a state.
  if (seq <= RetainedSpan()) return;
  for (auto it = checkpoints_.upper_bound(seq - RetainedSpan());
       it != checkpoints_.begin();) {
    --it;
    if (it->first <= horizon_) return;
    if (states_.count(it->first) > 0) {
      SetHorizon(it->first);
      return;
    }
  }
}

bool PbftReplica::NewestBase(StableCheckpoint* checkpoint,
                             CheckpointState* state) const {
  for (auto cert = checkpoints_.rbegin(); cert != checkpoints_.rend();
       ++cert) {
    auto held = states_.find(cert->first);
    if (held == states_.end()) continue;
    *checkpoint = cert->second;
    *state = held->second;
    return true;
  }
  return false;
}

void PbftReplica::SetHorizon(uint64_t horizon) {
  horizon_ = horizon;
  checkpoints_.erase(checkpoints_.begin(), checkpoints_.lower_bound(horizon));
  states_.erase(states_.begin(), states_.lower_bound(horizon));
  if (state_hooks_.drop) state_hooks_.drop(horizon);
}

// --- view changes --------------------------------------------------------------

PbftReplica::Instance& PbftReplica::InstanceAt(uint64_t seq) {
  return instances_.try_emplace(seq, sim_).first->second;
}

void PbftReplica::ArmProgressTimer(uint64_t seq) {
  Instance& instance = InstanceAt(seq);
  // A committed instance needs no watchdog, and an armed one keeps its
  // deadline.
  if (instance.committed || instance.progress_timer.armed()) return;
  instance.progress_timer.Arm(config_.view_timeout, [this, seq]() {
    if (instances_.at(seq).committed) return;
    BP_LOG(kDebug) << self_.ToString() << " progress timeout on seq " << seq;
    // We may simply have fallen behind a quorum that committed without us;
    // ask for the decided entries before demanding a new leader.
    CatchUp();
    StartViewChange(view_ + 1);
  });
}

void PbftReplica::StartViewChange(uint64_t new_view) {
  if (new_view <= view_) return;
  if (in_view_change_ && target_view_ >= new_view) return;
  in_view_change_ = true;
  target_view_ = new_view;
  BP_LOG(kInfo) << self_.ToString() << " view change -> " << new_view;

  ViewChangeMsg vc;
  vc.new_view = new_view;
  if (!checkpoints_.empty()) vc.stable = checkpoints_.rbegin()->second;
  for (auto& [seq, instance] : instances_) {
    // Prepared or not, a pre-prepared value may fill a gap (EnterView). One
    // filled by catch-up has no pre-prepare signature, so its proof would
    // fail at every peer; it needs none, as its commit certificate shows
    // that f+1 honest replicas prepared it and every quorum holds one.
    if (!instance.has_preprepare || instance.caught_up ||
        seq <= last_stable_) {
      continue;
    }
    PreparedProof proof;
    proof.view = instance.view;
    proof.seq = seq;
    proof.digest = instance.digest;
    proof.client_token = instance.client_token;
    proof.req_id = instance.req_id;
    proof.value = instance.value;
    proof.preprepare_sig = instance.preprepare_sig;
    for (auto& [idx, vote] : instance.prepares) {
      if (vote.digest == instance.digest) {
        proof.prepare_sigs.push_back(vote.sig);
      }
    }
    vc.prepared.push_back(std::move(proof));
  }
  vc.sig = signer_->Sign(vc.CanonicalBody());

  Bytes encoded = vc.Encode();
  // Record our own view-change vote, then broadcast.
  view_changes_[new_view][index_] = vc;
  Broadcast(kViewChange, encoded);
  MaybeSendNewView(new_view);

  // Escalate if the new view does not start in time — with capped
  // exponential backoff plus jitter. A flat 2 * view_timeout retry lets
  // every replica's escalation fire in lock-step under a partition; the
  // repeated synchronized broadcasts then become a retry storm exactly when
  // the network is least able to absorb one. Each consecutive failed
  // attempt doubles the delay (up to kViewBackoffCap), and per-replica
  // jitter decorrelates the herd (DESIGN.md §10).
  sim::SimTime delay = 2 * config_.view_timeout;
  uint64_t shift = std::min<uint64_t>(viewchange_attempts_, 16);
  // Saturating left-shift: never overflows, never exceeds the cap.
  for (uint64_t i = 0; i < shift && delay < kViewBackoffCap; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, kViewBackoffCap);
  // Uniform in [0, kViewBackoffJitterPermille/1000 * delay], all-integer so the
  // schedule replays bit-identically (BP005: no FP in consensus math).
  const uint64_t span =
      static_cast<uint64_t>(delay) * kViewBackoffJitterPermille / 1000;
  delay += static_cast<sim::SimTime>(backoff_rng_.NextBelow(span + 1));
  ++viewchange_attempts_;
  RobustnessStats& rs = robustness_stats();
  rs.viewchange_attempts++;
  rs.viewchange_backoff_ms += delay / sim::Milliseconds(1);
  view_change_timer_.Arm(delay, [this, new_view]() {
    if (view_ >= new_view) return;
    StartViewChange(target_view_ + 1);
  });
}

void PbftReplica::OnViewChange(const net::Message& msg) {
  ViewChangeMsg vc;
  if (!ViewChangeMsg::Decode(msg.body(), &vc).ok()) return;
  int sender = config_.ReplicaIndex(msg.src);
  if (sender < 0) return;
  if (!keys_->Verify(vc.CanonicalBody(), vc.sig) || vc.sig.signer != msg.src) {
    return;
  }
  if (vc.new_view <= view_) return;

  uint64_t new_view = vc.new_view;
  auto& votes = view_changes_[new_view];
  votes[sender] = std::move(vc);

  // Join the view change once f+1 replicas demand it (they cannot all be
  // wrong: at least one is honest).
  if (static_cast<int>(votes.size()) >= config_.f + 1 &&
      (!in_view_change_ || target_view_ < new_view)) {
    StartViewChange(new_view);
  }
  MaybeSendNewView(new_view);
}

void PbftReplica::MaybeSendNewView(uint64_t v) {
  if (v == 0 || v <= view_) return;
  if (config_.LeaderOf(v) != self_) return;
  auto it = view_changes_.find(v);
  if (it == view_changes_.end()) return;
  if (static_cast<int>(it->second.size()) < config_.quorum()) return;

  NewViewMsg nv;
  nv.view = v;
  std::vector<ViewChangeMsg> vcs;
  for (auto& [idx, vc] : it->second) {
    nv.view_changes.push_back(vc.Encode());
    vcs.push_back(vc);
    if (static_cast<int>(vcs.size()) == config_.quorum()) break;
  }
  nv.sig = signer_->Sign(nv.CanonicalBody());
  Broadcast(kNewView, nv.Encode());
  new_view_ = std::move(nv);
  EnterView(v, vcs);
  if (last_stable_ > last_executed_) CatchUp();
}

int PbftReplica::ValidPrepares(const PreparedProof& proof) const {
  // The digest must be the request digest of the proof's client, id and
  // value: it is what the votes endorse and what the dedup window
  // records.
  if (RequestDigest(proof.client_token, proof.req_id,
                    crypto::Sha256Digest(proof.value)) != proof.digest) {
    return -1;
  }
  // The pre-prepare must be signed by the leader of the view it cites.
  PrePrepareMsg pp;
  pp.view = proof.view;
  pp.seq = proof.seq;
  pp.digest = proof.digest;
  pp.client_token = proof.client_token;
  pp.req_id = proof.req_id;
  if (proof.preprepare_sig.signer != config_.LeaderOf(proof.view)) {
    return -1;
  }
  if (!keys_->Verify(pp.CanonicalBody(), proof.preprepare_sig)) return -1;

  // Distinct valid backup prepares over the canonical vote body.
  VoteMsg vote;
  vote.type = kPrepare;
  vote.view = proof.view;
  vote.seq = proof.seq;
  vote.digest = proof.digest;
  auto valid = ValidSigners(vote.CanonicalBody(), proof.prepare_sigs);
  valid.erase(config_.ReplicaIndex(config_.LeaderOf(proof.view)));
  return static_cast<int>(valid.size());
}

void PbftReplica::OnNewView(const net::Message& msg) {
  NewViewMsg nv;
  if (!NewViewMsg::Decode(msg.body(), &nv).ok()) return;
  if (AdoptNewView(nv) && last_stable_ > last_executed_) CatchUp();
}

bool PbftReplica::AdoptNewView(const NewViewMsg& nv) {
  if (nv.view <= view_) return false;
  if (nv.sig.signer != config_.LeaderOf(nv.view) ||
      !keys_->Verify(nv.CanonicalBody(), nv.sig)) {
    return false;
  }

  // Validate the embedded view-change set: 2f+1 distinct, properly signed,
  // all targeting this view.
  std::vector<ViewChangeMsg> vcs;
  std::set<int32_t> senders;
  for (const Bytes& encoded : nv.view_changes) {
    ViewChangeMsg vc;
    if (!ViewChangeMsg::Decode(encoded, &vc).ok()) return false;
    if (vc.new_view != nv.view) return false;
    int sender = config_.ReplicaIndex(vc.sig.signer);
    if (sender < 0) return false;
    if (!keys_->Verify(vc.CanonicalBody(), vc.sig)) return false;
    if (!senders.insert(sender).second) return false;
    vcs.push_back(std::move(vc));
  }
  if (static_cast<int>(vcs.size()) < config_.quorum()) return false;

  new_view_ = nv;
  EnterView(nv.view, vcs);
  return true;
}

void PbftReplica::EnterView(uint64_t v, const std::vector<ViewChangeMsg>& vcs) {
  if (v <= view_) return;

  // The view starts above the highest stable checkpoint the set proves;
  // an unproven claim would let one replica push it past every seq its
  // peers accept.
  const StableCheckpoint* proven = nullptr;
  for (const ViewChangeMsg& vc : vcs) {
    if (vc.stable.seq > (proven ? proven->seq : last_stable_) &&
        ValidCheckpoint(vc.stable)) {
      proven = &vc.stable;
    }
  }
  if (proven != nullptr) AdoptStableCheckpoint(*proven);
  const uint64_t stable = last_stable_;

  // Recompute the carried-over proposals deterministically from the
  // view-change set: for every sequence above the stable checkpoint, the
  // valid prepared-certificate from the highest view wins.

  // A seq no proof in the set prepared cannot have committed, so it may
  // take any value: a pre-prepare that reached only some replicas fills
  // it in preference to a no-op, which would strand a prepared successor
  // whose verification needs this value first.
  std::map<uint64_t, const PreparedProof*> winners;
  std::map<uint64_t, const PreparedProof*> fillers;
  for (const ViewChangeMsg& vc : vcs) {
    for (const PreparedProof& proof : vc.prepared) {
      if (proof.seq <= stable) continue;
      const int prepares = ValidPrepares(proof);
      if (prepares < 0) continue;
      auto& table = prepares >= 2 * config_.f ? winners : fillers;
      auto [it, inserted] = table.emplace(proof.seq, &proof);
      if (!inserted && proof.view > it->second->view) it->second = &proof;
    }
  }
  uint64_t max_seq = winners.empty() ? stable : winners.rbegin()->first;

  view_ = v;
  target_view_ = v;
  in_view_change_ = false;
  viewchange_attempts_ = 0;
  // Churn signal for the proposal window (DESIGN.md §13): a *completed*
  // view change re-proposes the in-flight tail, so a deep window amplifies
  // the disruption — back off before resuming. Spurious backup escalations
  // that never gather a quorum are not churn; counting attempts would let
  // 1% message loss collapse the window for nothing.
  window_ctl_.OnViewChange(sim_->Now());
  view_change_timer_.Disarm();
  view_changes_.erase(view_changes_.begin(),
                      view_changes_.upper_bound(v));
  BP_LOG(kInfo) << self_.ToString() << " entered view " << v << " (leader "
                << leader().ToString() << ")";

  // Drop in-flight instances from older views; committed ones stay (their
  // values are already decided and will be re-confirmed identically).
  for (auto it = instances_.begin(); it != instances_.end();) {
    Instance& instance = it->second;
    if (!instance.committed && it->first > stable) {
      it = instances_.erase(it);
    } else {
      ++it;
    }
  }

  expected_digests_.clear();
  std::map<uint64_t, PreparedProof> carryover;
  for (uint64_t seq = stable + 1; seq <= max_seq; ++seq) {
    auto win = winners.find(seq);
    auto fill = fillers.find(seq);
    PreparedProof proof;
    if (win != winners.end()) {
      proof = *win->second;
    } else if (fill != fillers.end()) {
      proof = *fill->second;
    } else {
      proof.seq = seq;  // gap: fill with a no-op
      proof.value.clear();
      proof.client_token = 0;
      proof.req_id = 0;
      proof.digest = RequestDigest(0, 0, crypto::Sha256Digest(proof.value));
    }
    auto inst_it = instances_.find(seq);
    if (inst_it != instances_.end() && inst_it->second.committed) {
      continue;  // already committed locally; nothing to redo
    }
    expected_digests_[seq] = proof.digest;
    carryover.emplace(seq, std::move(proof));
  }

  if (IsLeader()) {
    next_seq_ = std::max(max_seq, last_executed_) + 1;
    assigned_requests_.clear();
    // Re-base the leader-side admission projection: applied state plus
    // every decided-or-carried-but-unexecuted value in seq order. Without
    // this, a retransmitted duplicate of a carried-over request could be
    // admitted again and stall the group on an unverifiable duplicate.
    std::map<uint64_t, const Bytes*> carried_values;
    for (const auto& [seq, proof] : carryover) {
      carried_values[seq] = &proof.value;
      // The carried-over requests are already assigned seqs in this view;
      // retransmissions of them must not be proposed a second time.
      if (proof.client_token != 0 || proof.req_id != 0) {
        assigned_requests_.insert({proof.client_token, proof.req_id});
      }
    }
    RebuildAdmissionProjection(carried_values);
    // Re-issue pre-prepares (in the new view) for every carried-over seq.
    for (auto& [seq, proof] : carryover) {
      PrePrepareMsg pp;
      pp.view = view_;
      pp.seq = seq;
      pp.digest = proof.digest;
      pp.client_token = proof.client_token;
      pp.req_id = proof.req_id;
      pp.value = proof.value;
      pp.sig = signer_->Sign(pp.CanonicalBody());

      Instance& instance = InstanceAt(seq);
      instance.view = view_;
      instance.digest = pp.digest;
      instance.value_digest = crypto::Sha256Digest(pp.value);
      instance.has_preprepare = true;
      instance.preprepare_sig = pp.sig;
      instance.value = pp.value;
      instance.client_token = pp.client_token;
      instance.req_id = pp.req_id;
      instance.prepares.clear();
      instance.commits.clear();
      instance.prepared = false;
      instance.sent_prepare = false;
      instance.sent_commit = false;
      ArmProgressTimer(seq);
      Broadcast(kPrePrepare, pp.Encode());
    }
    MaybeProposeNext();
  } else if (!carryover.empty()) {
    // Backups: watch for the leader's re-issued pre-prepares.
    ArmProgressTimer(carryover.begin()->first);
  }

  // Give the new view a full timeout to serve the requests we are still
  // watching. Watchdogs armed in the old view would otherwise depose each
  // new leader before the client's (slower) retransmission reaches it, and
  // when the client retry period is close to the view timeout this repeats
  // in every view — a view-change storm that starves the request forever.
  // Re-forwarding from the backups' own stash breaks the synchronization.
  for (auto& [key, watch] : watched_requests_) {
    if (!watch.payload) continue;
    if (IsLeader()) {
      // Broadcast/SendShared deliberately skip self-delivery, so feed the
      // stashed request straight back into our own request path.
      net::Message msg;
      msg.src = self_;
      msg.dst = self_;
      msg.type = kRequest;
      msg.payload = watch.payload;
      msg.trace_id = watch.trace_id;
      OnRequest(msg);
    } else {
      SendShared(leader(), kRequest, watch.payload, watch.trace_id);
    }
    ArmRequestWatchdog(key);
  }
}

}  // namespace blockplane::pbft
