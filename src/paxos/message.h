// Multi-decree Paxos wire messages. Each lists its members once, in wire
// order (common/codec.h).
//
// Ballots are (round, node-index) pairs packed into a uint64 so that ballots
// from different nodes never tie. Paxos here is the *benign* baseline of the
// paper's Fig. 7 (and the cross-site layer of hierarchical PBFT); messages
// are not signed — byzantine tolerance is exactly what Blockplane adds on
// top of protocols like this one.
#ifndef BLOCKPLANE_PAXOS_MESSAGE_H_
#define BLOCKPLANE_PAXOS_MESSAGE_H_

#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "net/message.h"

namespace blockplane::paxos {

enum PaxosMessageType : net::MessageType {
  kPrepare = 301,
  kPromise = 302,
  kAccept = 303,
  kAccepted = 304,
  kNack = 305,
  kLearn = 306,
  kHeartbeat = 307,
  kForward = 308,
};

/// Ballot number: (round << 16) | proposer_index; 0 = no ballot.
using Ballot = uint64_t;

inline Ballot MakeBallot(uint64_t round, int proposer_index) {
  return (round << 16) | static_cast<uint64_t>(proposer_index & 0xffff);
}
inline uint64_t BallotRound(Ballot b) { return b >> 16; }
inline int BallotProposer(Ballot b) { return static_cast<int>(b & 0xffff); }

struct PrepareMsg {
  Ballot ballot = 0;
  uint64_t from_slot = 1;  // promise should report accepted slots >= this

  BP_WIRE(PrepareMsg, ballot, from_slot)
};

/// One previously-accepted (slot, ballot, value) reported in a promise.
struct AcceptedEntry {
  uint64_t slot = 0;
  Ballot ballot = 0;
  Bytes value;

  BP_WIRE(AcceptedEntry, slot, ballot, value)
};

struct PromiseMsg {
  Ballot ballot = 0;
  uint64_t last_committed = 0;
  std::vector<AcceptedEntry> accepted;

  BP_WIRE(PromiseMsg, ballot, last_committed, accepted)
};

struct AcceptMsg {
  Ballot ballot = 0;
  uint64_t slot = 0;
  Bytes value;

  BP_WIRE(AcceptMsg, ballot, slot, value)
};

struct AcceptedMsg {
  Ballot ballot = 0;
  uint64_t slot = 0;

  BP_WIRE(AcceptedMsg, ballot, slot)
};

struct NackMsg {
  Ballot promised = 0;

  BP_WIRE(NackMsg, promised)
};

struct LearnMsg {
  uint64_t slot = 0;
  Bytes value;

  BP_WIRE(LearnMsg, slot, value)
};

struct HeartbeatMsg {
  Ballot ballot = 0;
  uint64_t last_committed = 0;

  BP_WIRE(HeartbeatMsg, ballot, last_committed)
};

struct ForwardMsg {
  Bytes value;

  BP_WIRE(ForwardMsg, value)
};

}  // namespace blockplane::paxos

#endif  // BLOCKPLANE_PAXOS_MESSAGE_H_
