// Batching and group commit (§VI-C).
//
// "Blockplane utilizes batching in a similar manner to SMR-based systems,
// where transactions (or requests) are batched together. At any given point
// in time, a leader only attempts to commit a single batch and does not
// start the next one until the current one is committed. The transactions
// in a batch are ordered in a way that preserves any dependencies between
// them."
//
// The Batcher accumulates small operations and commits them as one Local
// Log record. Operations keep their submission order within and across
// batches (a conservative superset of dependency order), and at most one
// batch is in flight at a time (the paper's group-commit rule).
// Completion callbacks carry the batch's log position and the operation's
// index within the batch.
#ifndef BLOCKPLANE_CORE_BATCHER_H_
#define BLOCKPLANE_CORE_BATCHER_H_

#include <deque>
#include <functional>
#include <vector>

#include "core/participant.h"
#include "sim/timer.h"

namespace blockplane::core {

class Batcher {
 public:
  struct Options {
    /// Flush when the pending payload reaches this size.
    size_t max_batch_bytes = 100'000;
    /// Flush when this many operations are pending.
    size_t max_ops = 256;
    /// Flush this long after the first pending operation arrived, even if
    /// the size thresholds are not met.
    sim::SimTime max_delay = sim::Milliseconds(5);
  };

  /// Called when an operation's batch is durably committed.
  using OpCallback =
      std::function<void(uint64_t log_pos, uint32_t index_in_batch)>;

  Batcher(Participant* participant, sim::Simulator* simulator,
          Options options, uint64_t routine_id = 0);
  /// Default options.
  Batcher(Participant* participant, sim::Simulator* simulator)
      : Batcher(participant, simulator, Options()) {}
  BP_DISALLOW_COPY_AND_ASSIGN(Batcher);

  /// Queues one operation for the next batch.
  void Add(Bytes op, OpCallback done = nullptr);

  /// Forces the pending operations out now (subject to group commit).
  void Flush();

  uint64_t batches_committed() const { return batches_committed_; }
  uint64_t ops_committed() const { return ops_committed_; }

  /// Batch payload wire format, exposed so verification routines and
  /// appliers can iterate the operations of a committed batch record.
  static Bytes EncodeBatch(const std::vector<Bytes>& ops);
  static Status DecodeBatch(const Bytes& payload, std::vector<Bytes>* ops);

 private:
  struct PendingOp {
    Bytes op;
    OpCallback done;
  };

  void MaybeFlush();
  void CommitBatch();

  Participant* participant_;
  Options options_;
  uint64_t routine_id_;

  std::deque<PendingOp> pending_;
  size_t pending_bytes_ = 0;
  bool batch_in_flight_ = false;
  sim::Timer delay_timer_;
  uint64_t batches_committed_ = 0;
  uint64_t ops_committed_ = 0;
};

}  // namespace blockplane::core

#endif  // BLOCKPLANE_CORE_BATCHER_H_
