#include "paxos/node.h"

#include <algorithm>

#include "common/logging.h"

namespace blockplane::paxos {

PaxosNode::PaxosNode(net::Network* network, PaxosConfig config,
                     net::NodeId self, CommitCallback commit)
    : network_(network),
      sim_(network->simulator()),
      config_(std::move(config)),
      self_(self),
      commit_(std::move(commit)),
      rng_(network->simulator()->rng().Fork()),
      election_timer_(sim_),
      heartbeat_timer_(sim_) {
  index_ = config_.IndexOf(self_);
  BP_CHECK_MSG(index_ >= 0, "paxos node not in its own config");
}

void PaxosNode::RegisterWithNetwork() { network_->Register(self_, this); }

void PaxosNode::Broadcast(net::MessageType type, const Bytes& payload) {
  for (const net::NodeId& node : config_.nodes) {
    if (node == self_) continue;
    SendTo(node, type, payload);
  }
}

void PaxosNode::SendTo(net::NodeId dst, net::MessageType type,
                       Bytes payload) {
  net::Message msg;
  msg.src = self_;
  msg.dst = dst;
  msg.type = type;
  msg.set_body(std::move(payload));
  network_->Send(std::move(msg));
}

void PaxosNode::HandleMessage(const net::Message& msg) {
  switch (static_cast<PaxosMessageType>(msg.type)) {
    case kPrepare:
      OnPrepare(msg);
      break;
    case kPromise:
      OnPromise(msg);
      break;
    case kAccept:
      OnAccept(msg);
      break;
    case kAccepted:
      OnAccepted(msg);
      break;
    case kNack:
      OnNack(msg);
      break;
    case kLearn:
      OnLearn(msg);
      break;
    case kHeartbeat:
      OnHeartbeat(msg);
      break;
    case kForward:
      OnForward(msg);
      break;
  }
}

// --- client entry -------------------------------------------------------------

void PaxosNode::Submit(Bytes value) {
  if (is_leader_) {
    pending_.push_back(std::move(value));
    ProposeNext();
    return;
  }
  ForwardMsg forward;
  forward.value = std::move(value);
  SendTo(config_.nodes[leader_hint_], kForward, forward.Encode());
}

void PaxosNode::OnForward(const net::Message& msg) {
  ForwardMsg forward;
  if (!ForwardMsg::Decode(msg.body(), &forward).ok()) return;
  if (is_leader_) {
    pending_.push_back(std::move(forward.value));
    ProposeNext();
  } else {
    // Pass it along to whoever we currently believe leads — verbatim, by
    // reference (no re-encode, no copy).
    net::Message fwd;
    fwd.src = self_;
    fwd.dst = config_.nodes[leader_hint_];
    fwd.type = kForward;
    fwd.payload = msg.payload;  // refcount bump
    network_->Send(std::move(fwd));
  }
}

// --- Leader Election routine (Algorithm 3 of the paper) ------------------------

void PaxosNode::StartLeaderElection() {
  electing_ = true;
  is_leader_ = false;
  ballot_ = MakeBallot(BallotRound(std::max(ballot_, promised_)) + 1, index_);
  promises_.clear();

  PrepareMsg prepare;
  prepare.ballot = ballot_;
  prepare.from_slot = last_committed_ + 1;
  Broadcast(kPrepare, prepare.Encode());

  // Count our own promise.
  if (ballot_ > promised_) promised_ = ballot_;
  PromiseMsg own;
  own.ballot = ballot_;
  own.last_committed = last_committed_;
  for (auto it = accepted_.lower_bound(last_committed_ + 1);
       it != accepted_.end(); ++it) {
    own.accepted.push_back(it->second);
  }
  promises_[index_] = std::move(own);
}

void PaxosNode::OnPrepare(const net::Message& msg) {
  PrepareMsg prepare;
  if (!PrepareMsg::Decode(msg.body(), &prepare).ok()) return;
  if (prepare.ballot <= promised_) {
    NackMsg nack;
    nack.promised = promised_;
    SendTo(msg.src, kNack, nack.Encode());
    return;
  }
  promised_ = prepare.ballot;
  if (is_leader_ || electing_) {
    // Someone outranks us; step down.
    is_leader_ = false;
    electing_ = false;
  }
  int proposer = BallotProposer(prepare.ballot);
  if (proposer >= 0 && proposer < config_.n()) leader_hint_ = proposer;

  PromiseMsg promise;
  promise.ballot = prepare.ballot;
  promise.last_committed = last_committed_;
  for (auto it = accepted_.lower_bound(prepare.from_slot);
       it != accepted_.end(); ++it) {
    promise.accepted.push_back(it->second);
  }
  SendTo(msg.src, kPromise, promise.Encode());
  ResetElectionTimer();
}

void PaxosNode::OnPromise(const net::Message& msg) {
  PromiseMsg promise;
  if (!PromiseMsg::Decode(msg.body(), &promise).ok()) return;
  if (!electing_ || promise.ballot != ballot_) return;
  int sender = config_.IndexOf(msg.src);
  if (sender < 0) return;
  promises_[sender] = std::move(promise);
  if (static_cast<int>(promises_.size()) < config_.majority()) return;

  // A majority of positive votes: we are the leader (l = true).
  electing_ = false;
  is_leader_ = true;
  leader_hint_ = index_;
  BP_LOG(kInfo) << self_.ToString() << " paxos leader, ballot " << ballot_;

  // Adopt the highest-ballot accepted value per open slot (max-val rule).
  std::map<uint64_t, AcceptedEntry> adopted;
  uint64_t max_slot = last_committed_;
  for (auto& [idx, p] : promises_) {
    for (AcceptedEntry& entry : p.accepted) {
      if (entry.slot <= last_committed_) continue;
      auto [it, inserted] = adopted.emplace(entry.slot, entry);
      if (!inserted && entry.ballot > it->second.ballot) it->second = entry;
      max_slot = std::max(max_slot, entry.slot);
    }
  }
  // Re-propose adopted values (and no-ops for gaps) before new values.
  for (uint64_t slot = last_committed_ + 1; slot <= max_slot; ++slot) {
    auto it = adopted.find(slot);
    SendAccept(slot, it == adopted.end() ? Bytes{} : it->second.value,
               /*refill=*/true);
  }
  next_slot_ = max_slot + 1;
  if (!heartbeat_timer_.armed() && failure_detector_) {
    SendHeartbeats();
  }
  ProposeNext();
}

void PaxosNode::OnNack(const net::Message& msg) {
  NackMsg nack;
  if (!NackMsg::Decode(msg.body(), &nack).ok()) return;
  if (nack.promised <= ballot_) return;
  // A higher ballot exists: we lost; update the round and step down.
  is_leader_ = false;
  electing_ = false;
  ballot_ = MakeBallot(BallotRound(nack.promised), index_);
  int proposer = BallotProposer(nack.promised);
  if (proposer >= 0 && proposer < config_.n()) leader_hint_ = proposer;
  ResetElectionTimer();
}

// --- Replication routine --------------------------------------------------------

void PaxosNode::ProposeNext() {
  if (!is_leader_ || replication_outstanding_ || pending_.empty()) return;
  Bytes value = std::move(pending_.front());
  pending_.pop_front();
  SendAccept(next_slot_++, std::move(value), /*refill=*/false);
}

void PaxosNode::SendAccept(uint64_t slot, Bytes value, bool refill) {
  replication_outstanding_ = true;
  Proposal& proposal = proposals_.try_emplace(slot, sim_).first->second;
  proposal.ballot = ballot_;
  proposal.value = value;
  proposal.noop_refill = refill;
  proposal.acks = {index_};

  // Accept our own proposal locally.
  accepted_[slot] = AcceptedEntry{slot, ballot_, proposal.value};

  AcceptMsg accept;
  accept.ballot = ballot_;
  accept.slot = slot;
  accept.value = std::move(value);
  Broadcast(kAccept, accept.Encode());
  ArmAcceptRetry(slot);
}

void PaxosNode::ArmAcceptRetry(uint64_t slot) {
  // Accept messages can be lost (drops, partitions); the leader keeps
  // retransmitting an undecided proposal while it still leads. Deciding
  // the slot destroys the proposal and its timer; a new ballot for the
  // slot re-arms it.
  proposals_.at(slot).retry.Arm(config_.election_timeout, [this, slot]() {
    const Proposal& proposal = proposals_.at(slot);
    if (!is_leader_ || ballot_ != proposal.ballot) return;
    AcceptMsg accept;
    accept.ballot = proposal.ballot;
    accept.slot = slot;
    accept.value = proposal.value;
    Broadcast(kAccept, accept.Encode());
    ArmAcceptRetry(slot);
  });
}

void PaxosNode::OnAccept(const net::Message& msg) {
  AcceptMsg accept;
  if (!AcceptMsg::Decode(msg.body(), &accept).ok()) return;
  if (accept.ballot < promised_) {
    NackMsg nack;
    nack.promised = promised_;
    SendTo(msg.src, kNack, nack.Encode());
    return;
  }
  promised_ = accept.ballot;
  int proposer = BallotProposer(accept.ballot);
  if (proposer >= 0 && proposer < config_.n()) leader_hint_ = proposer;
  accepted_[accept.slot] =
      AcceptedEntry{accept.slot, accept.ballot, accept.value};

  AcceptedMsg ack;
  ack.ballot = accept.ballot;
  ack.slot = accept.slot;
  SendTo(msg.src, kAccepted, ack.Encode());
  ResetElectionTimer();
}

void PaxosNode::OnAccepted(const net::Message& msg) {
  AcceptedMsg ack;
  if (!AcceptedMsg::Decode(msg.body(), &ack).ok()) return;
  auto it = proposals_.find(ack.slot);
  if (it == proposals_.end() || it->second.ballot != ack.ballot) return;
  int sender = config_.IndexOf(msg.src);
  if (sender < 0) return;
  Proposal& proposal = it->second;
  proposal.acks.insert(sender);
  if (static_cast<int>(proposal.acks.size()) < config_.majority()) return;

  // Majority accepted: decided. Tell everyone.
  Bytes value = proposal.value;
  proposals_.erase(it);
  LearnMsg learn;
  learn.slot = ack.slot;
  learn.value = value;
  Broadcast(kLearn, learn.Encode());
  Decide(ack.slot, std::move(value));
  if (proposals_.empty()) {
    replication_outstanding_ = false;
    ProposeNext();
  }
}

void PaxosNode::OnLearn(const net::Message& msg) {
  LearnMsg learn;
  if (!LearnMsg::Decode(msg.body(), &learn).ok()) return;
  Decide(learn.slot, std::move(learn.value));
}

void PaxosNode::Decide(uint64_t slot, Bytes value) {
  if (slot <= last_committed_ || decided_.count(slot) > 0) return;
  decided_[slot] = std::move(value);
  DeliverReady();
}

void PaxosNode::DeliverReady() {
  while (true) {
    auto it = decided_.find(last_committed_ + 1);
    if (it == decided_.end()) break;
    ++last_committed_;
    if (!it->second.empty() && commit_) {
      commit_(it->first, it->second);
    }
  }
}

// --- failure detector ------------------------------------------------------------

void PaxosNode::EnableFailureDetector() {
  failure_detector_ = true;
  if (is_leader_) {
    SendHeartbeats();
  } else {
    ResetElectionTimer();
  }
}

void PaxosNode::SendHeartbeats() {
  if (!is_leader_) return;
  HeartbeatMsg hb;
  hb.ballot = ballot_;
  hb.last_committed = last_committed_;
  Broadcast(kHeartbeat, hb.Encode());
  heartbeat_timer_.Arm(config_.heartbeat_interval,
                       [this]() { SendHeartbeats(); });
}

void PaxosNode::OnHeartbeat(const net::Message& msg) {
  HeartbeatMsg hb;
  if (!HeartbeatMsg::Decode(msg.body(), &hb).ok()) return;
  if (hb.ballot < promised_) return;
  promised_ = std::max(promised_, hb.ballot);
  int proposer = BallotProposer(hb.ballot);
  if (proposer >= 0 && proposer < config_.n()) leader_hint_ = proposer;
  if (is_leader_ && hb.ballot > ballot_) is_leader_ = false;
  ResetElectionTimer();
}

void PaxosNode::ResetElectionTimer() {
  if (!failure_detector_ || is_leader_) return;
  // Randomized timeout to break symmetry between would-be leaders.
  // Integer draw in [0, election_timeout] keeps the consensus path free of
  // floating point (DESIGN.md §11), so schedules replay bit-identically.
  sim::SimTime timeout =
      config_.election_timeout +
      static_cast<sim::SimTime>(rng_.NextBelow(
          static_cast<uint64_t>(config_.election_timeout) + 1));
  election_timer_.Arm(timeout, [this]() {
    if (is_leader_) return;
    BP_LOG(kInfo) << self_.ToString() << " paxos election timeout";
    StartLeaderElection();
    ResetElectionTimer();
  });
}

}  // namespace blockplane::paxos
