#include "protocols/bp_paxos.h"

#include "common/codec.h"
#include "common/logging.h"

namespace blockplane::protocols {

namespace {

enum MsgKind : uint8_t {
  kPrepare = 1,
  kPromise = 2,
  kPropose = 3,
  kAccept = 4,
  kDecide = 5,
};

struct PaxosMsg {
  uint8_t kind = 0;
  uint64_t ballot = 0;
  uint64_t slot = 0;
  bool ok = false;
  uint64_t accepted_ballot = 0;
  Bytes value;

  BP_WIRE(PaxosMsg, kind, ballot, slot, ok, accepted_ballot, value)
};

/// The "value committed" record the decision verifier checks.
struct Decision {
  std::string tag = "decided";
  uint64_t slot = 0;

  BP_WIRE(Decision, tag, slot)
};

/// A log-commit marker for a protocol state change (Definition 1).
Bytes StateChange(const std::string& what) { return ToBytes("paxos:" + what); }

}  // namespace

BpPaxos::BpPaxos(core::Deployment* deployment) : deployment_(deployment) {
  for (net::SiteId site = 0; site < deployment_->num_sites(); ++site) {
    auto state = std::make_unique<SiteState>();
    state->site = site;
    // r := proposal number, initially set to a unique number per site.
    state->r = static_cast<uint64_t>(site) + 1;
    sites_[site] = std::move(state);
    InstallAt(site);
  }
}

void BpPaxos::InstallAt(net::SiteId site) {
  // Verification routine: a "value committed" record is a legal state
  // transition only if the unit has received a majority of positive accept
  // votes for that slot (the leader's own vote counts).
  for (int i = 0; i < 3 * deployment_->options().fi + 1; ++i) {
    core::BlockplaneNode* node = deployment_->node(site, i);
    auto node_state = std::make_shared<NodeState>();
    node->SetApplyHook(
        [node_state](uint64_t pos, const core::LogRecord& record) {
          if (record.type != core::RecordType::kReceived) return;
          PaxosMsg msg;
          if (!PaxosMsg::Decode(record.payload, &msg).ok()) return;
          if (msg.kind == kAccept && msg.ok) {
            ++node_state->accept_oks[msg.slot];
          }
        });
    int majority = Majority();
    node->RegisterVerifier(
        kVerifyDecision,
        [node_state, majority](const core::LogRecord& record) {
          Decision decision;
          if (!Decision::Decode(record.payload, &decision).ok() ||
              decision.tag != "decided") {
            return false;
          }
          return node_state->accept_oks[decision.slot] + 1 >= majority;
        });
  }

  deployment_->participant(site)->SetReceiveHandler(
      [this, site](net::SiteId src, const Bytes& payload) {
        OnMessage(sites_.at(site).get(), src, payload);
      });
}

void BpPaxos::BroadcastToOthers(net::SiteId site, const Bytes& payload,
                                uint64_t routine_id) {
  core::Participant* participant = deployment_->participant(site);
  for (net::SiteId other = 0; other < deployment_->num_sites(); ++other) {
    if (other == site) continue;
    participant->Send(other, payload, routine_id, nullptr);
  }
}

// --- Algorithm 3: LeaderElection ------------------------------------------------

void BpPaxos::LeaderElection(net::SiteId site,
                             std::function<void(bool)> done) {
  SiteState* state = sites_.at(site).get();
  core::Participant* participant = deployment_->participant(site);
  state->promise_votes = 1;  // our own vote
  state->promise_replies = 1;
  state->election_done = std::move(done);
  if (state->r > state->promised) state->promised = state->r;

  // log-commit(Leader Election), then paxos-prepare to every participant.
  participant->LogCommit(
      StateChange("leader-election"), 0, [this, state, site](uint64_t) {
        PaxosMsg prepare;
        prepare.kind = kPrepare;
        prepare.ballot = state->r;
        BroadcastToOthers(site, prepare.Encode(), 0);
      });
}

// --- Algorithm 3: Replication ----------------------------------------------------

void BpPaxos::Replicate(net::SiteId site, Bytes value,
                        std::function<void(bool)> done) {
  SiteState* state = sites_.at(site).get();
  core::Participant* participant = deployment_->participant(site);
  // log-commit(Replication, value); if l == false return.
  if (!state->l) {
    if (done) done(false);
    return;
  }
  uint64_t slot = state->next_slot++;
  state->replicating_slot = slot;
  state->accept_votes = 1;  // our own acceptance
  state->accept_replies = 1;
  state->replicate_done = std::move(done);
  state->accepted[slot] = {state->r, value};

  participant->LogCommit(
      StateChange("replication-start"), 0,
      [this, state, site, slot, value = std::move(value)](uint64_t) {
        PaxosMsg propose;
        propose.kind = kPropose;
        propose.ballot = state->r;
        propose.slot = slot;
        propose.value = value;
        BroadcastToOthers(site, propose.Encode(), 0);
      });
}

// --- message handling --------------------------------------------------------------

void BpPaxos::OnMessage(SiteState* state, net::SiteId src,
                        const Bytes& payload) {
  PaxosMsg msg;
  if (!PaxosMsg::Decode(payload, &msg).ok()) return;
  core::Participant* participant = deployment_->participant(state->site);

  switch (msg.kind) {
    case kPrepare: {
      PaxosMsg promise;
      promise.kind = kPromise;
      promise.ballot = msg.ballot;
      if (msg.ballot > state->promised) {
        state->promised = msg.ballot;
        promise.ok = true;
        // Report the highest accepted value (max-val rule). Algorithm 3
        // tracks a single max-val; we report the latest slot's.
        if (!state->accepted.empty()) {
          promise.accepted_ballot = state->accepted.rbegin()->second.first;
          promise.value = state->accepted.rbegin()->second.second;
        }
      } else {
        promise.ok = false;
        promise.accepted_ballot = state->promised;
      }
      // Commit the promise (a state change), then respond.
      participant->LogCommit(
          StateChange("promise"), 0,
          [participant, src, promise](uint64_t) {
            participant->Send(src, promise.Encode(), 0, nullptr);
          });
      break;
    }
    case kPromise: {
      if (!state->election_done) break;
      ++state->promise_replies;
      if (msg.ok) {
        ++state->promise_votes;
        if (msg.accepted_ballot > state->max_val_ballot) {
          state->max_val_ballot = msg.accepted_ballot;
          state->max_val = msg.value;
        }
      }
      if (state->promise_votes >= Majority()) {
        state->l = true;
        auto done = std::move(state->election_done);
        state->election_done = nullptr;
        // log-commit(l, max-val).
        participant->LogCommit(StateChange("elected"), 0,
                               [done](uint64_t) {
                                 if (done) done(true);
                               });
      } else if (state->promise_replies >= deployment_->num_sites()) {
        // No majority: pick the next unique proposal number and commit it.
        state->r += deployment_->num_sites();
        auto done = std::move(state->election_done);
        state->election_done = nullptr;
        participant->LogCommit(StateChange("new-proposal-number"), 0,
                               [done](uint64_t) {
                                 if (done) done(false);
                               });
      }
      break;
    }
    case kPropose: {
      PaxosMsg accept;
      accept.kind = kAccept;
      accept.ballot = msg.ballot;
      accept.slot = msg.slot;
      if (msg.ballot >= state->promised) {
        state->promised = msg.ballot;
        state->accepted[msg.slot] = {msg.ballot, msg.value};
        accept.ok = true;
      } else {
        accept.ok = false;
        accept.accepted_ballot = state->promised;
      }
      participant->LogCommit(
          StateChange("accepted"), 0,
          [participant, src, accept](uint64_t) {
            participant->Send(src, accept.Encode(), 0, nullptr);
          });
      break;
    }
    case kAccept: {
      if (!state->replicate_done || msg.slot != state->replicating_slot) {
        break;
      }
      ++state->accept_replies;
      if (msg.ok) ++state->accept_votes;
      if (state->accept_votes >= Majority()) {
        auto done = std::move(state->replicate_done);
        state->replicate_done = nullptr;
        uint64_t slot = msg.slot;
        // log-commit(value committed), guarded by the decision verifier.
        Bytes value = state->accepted[slot].second;
        state->decided[slot] = value;
        participant->LogCommit(
            Decision{"decided", slot}.Encode(), kVerifyDecision,
            [this, state, slot, value, done](uint64_t) {
              // Disseminate the decision (asynchronous).
              PaxosMsg decide;
              decide.kind = kDecide;
              decide.slot = slot;
              decide.value = value;
              BroadcastToOthers(state->site, decide.Encode(), 0);
              if (done) done(true);
            });
      } else if (state->accept_replies >= deployment_->num_sites() &&
                 state->replicate_done) {
        // Lost the slot: step down (l = false, next proposal number).
        state->l = false;
        state->r += deployment_->num_sites();
        auto done = std::move(state->replicate_done);
        state->replicate_done = nullptr;
        participant->LogCommit(StateChange("stepped-down"), 0,
                               [done](uint64_t) {
                                 if (done) done(false);
                               });
      }
      break;
    }
    case kDecide: {
      state->decided[msg.slot] = msg.value;
      participant->LogCommit(StateChange("learned-decision"), 0, nullptr);
      break;
    }
    default:
      break;
  }
}

}  // namespace blockplane::protocols
