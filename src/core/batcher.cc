#include "core/batcher.h"

#include <algorithm>

namespace blockplane::core {

Batcher::Batcher(Participant* participant, sim::Simulator* simulator,
                 Options options, uint64_t routine_id)
    : participant_(participant),
      options_(options),
      routine_id_(routine_id),
      delay_timer_(simulator) {}

Bytes Batcher::EncodeBatch(const std::vector<Bytes>& ops) {
  return WireEncode(ops);
}

Status Batcher::DecodeBatch(const Bytes& payload, std::vector<Bytes>* ops) {
  Decoder dec(payload);
  BP_RETURN_NOT_OK(WireGet(&dec, ops));
  if (!dec.AtEnd()) return Status::Corruption("trailing batch bytes");
  return Status::OK();
}

void Batcher::Add(Bytes op, OpCallback done) {
  pending_bytes_ += op.size();
  pending_.push_back(PendingOp{std::move(op), std::move(done)});
  if (pending_.size() == 1 && options_.max_delay > 0) {
    delay_timer_.Arm(options_.max_delay, [this]() { MaybeFlush(); });
  }
  if (pending_bytes_ >= options_.max_batch_bytes ||
      pending_.size() >= options_.max_ops) {
    MaybeFlush();
  }
}

void Batcher::Flush() { MaybeFlush(); }

void Batcher::MaybeFlush() {
  // Group commit: one batch at a time; the rest waits its turn.
  if (!batch_in_flight_ && !pending_.empty()) CommitBatch();
}

void Batcher::CommitBatch() {
  batch_in_flight_ = true;
  delay_timer_.Disarm();

  // Submission order is preserved, which preserves any dependency order.
  size_t take = std::min(pending_.size(), options_.max_ops);
  std::vector<Bytes> ops;
  std::vector<OpCallback> callbacks;
  ops.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    ops.push_back(std::move(pending_.front().op));
    callbacks.push_back(std::move(pending_.front().done));
    pending_bytes_ -= ops.back().size();
    pending_.pop_front();
  }

  participant_->LogCommit(
      EncodeBatch(ops), routine_id_,
      [this, callbacks = std::move(callbacks)](uint64_t pos) {
        ++batches_committed_;
        ops_committed_ += callbacks.size();
        for (size_t i = 0; i < callbacks.size(); ++i) {
          if (callbacks[i]) callbacks[i](pos, static_cast<uint32_t>(i));
        }
        batch_in_flight_ = false;
        MaybeFlush();
      });
}

}  // namespace blockplane::core
