// A multi-decree Paxos node (proposer + acceptor + learner in one process),
// in the style of "Paxos Made Simple" [Lamport 2001] — the benign protocol
// the paper byzantizes in §VI-E and benchmarks in Fig. 7.
//
// Leader election: a node that suspects the leader (missed heartbeats) runs
// the prepare phase with a higher ballot; promises carry previously
// accepted values, which the new leader must re-propose (max-ballot rule).
// Replication: the leader sends accepts, commits on a majority of
// accepted-acks, and disseminates decisions with learn messages.
#ifndef BLOCKPLANE_PAXOS_NODE_H_
#define BLOCKPLANE_PAXOS_NODE_H_

#include <deque>
#include <functional>
#include <map>
#include <set>

#include "net/network.h"
#include "paxos/message.h"
#include "sim/timer.h"

namespace blockplane::paxos {

struct PaxosConfig {
  std::vector<net::NodeId> nodes;
  sim::SimTime heartbeat_interval = sim::Milliseconds(50);
  /// Follower election timeout; multiplied by a per-node random factor to
  /// avoid duelling proposers.
  sim::SimTime election_timeout = sim::Milliseconds(400);

  int n() const { return static_cast<int>(nodes.size()); }
  int majority() const { return n() / 2 + 1; }
  int IndexOf(net::NodeId id) const {
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] == id) return static_cast<int>(i);
    }
    return -1;
  }
};

class PaxosNode : public net::Host {
 public:
  /// Called for every decided value, in slot order.
  using CommitCallback =
      std::function<void(uint64_t slot, const Bytes& value)>;

  PaxosNode(net::Network* network, PaxosConfig config, net::NodeId self,
            CommitCallback commit);
  BP_DISALLOW_COPY_AND_ASSIGN(PaxosNode);

  void RegisterWithNetwork();
  void HandleMessage(const net::Message& msg) override;

  /// Submits a value for replication. If this node is not the leader the
  /// value is forwarded to the current leader.
  void Submit(Bytes value);

  /// Forces this node to run the Leader Election routine now.
  void StartLeaderElection();

  bool IsLeader() const { return is_leader_; }
  Ballot current_ballot() const { return ballot_; }
  uint64_t last_committed() const { return last_committed_; }
  const std::map<uint64_t, Bytes>& decided_log() const { return decided_; }

  /// Starts the failure detector (call once after all nodes exist).
  /// Wide-area benches that pin a stable leader can skip this.
  void EnableFailureDetector();

 private:
  struct Proposal {
    explicit Proposal(sim::Simulator* simulator) : retry(simulator) {}

    Ballot ballot = 0;
    Bytes value;
    std::set<int> acks;
    bool noop_refill = false;  // re-proposal of an adopted value
    /// Re-broadcasts the accept while this ballot still leads.
    sim::Timer retry;
  };

  void OnPrepare(const net::Message& msg);
  void OnPromise(const net::Message& msg);
  void OnAccept(const net::Message& msg);
  void OnAccepted(const net::Message& msg);
  void OnNack(const net::Message& msg);
  void OnLearn(const net::Message& msg);
  void OnHeartbeat(const net::Message& msg);
  void OnForward(const net::Message& msg);

  void ProposeNext();
  void SendAccept(uint64_t slot, Bytes value, bool refill);
  void ArmAcceptRetry(uint64_t slot);
  void Decide(uint64_t slot, Bytes value);
  void DeliverReady();
  void ResetElectionTimer();
  void SendHeartbeats();

  void Broadcast(net::MessageType type, const Bytes& payload);
  void SendTo(net::NodeId dst, net::MessageType type, Bytes payload);

  net::Network* network_;
  sim::Simulator* sim_;
  PaxosConfig config_;
  net::NodeId self_;
  int index_;
  CommitCallback commit_;
  sim::Rng rng_;

  // Acceptor state.
  Ballot promised_ = 0;
  std::map<uint64_t, AcceptedEntry> accepted_;  // slot -> (ballot, value)

  // Proposer state.
  bool is_leader_ = false;
  bool electing_ = false;
  Ballot ballot_ = 0;
  std::map<int, PromiseMsg> promises_;
  uint64_t next_slot_ = 1;
  std::map<uint64_t, Proposal> proposals_;  // in-flight accepts by slot
  std::deque<Bytes> pending_;
  bool replication_outstanding_ = false;

  // Learner state.
  std::map<uint64_t, Bytes> decided_;
  uint64_t last_committed_ = 0;

  // Failure detector.
  bool failure_detector_ = false;
  int leader_hint_ = 0;  // index of the believed leader
  sim::Timer election_timer_;
  sim::Timer heartbeat_timer_;
};

}  // namespace blockplane::paxos

#endif  // BLOCKPLANE_PAXOS_NODE_H_
