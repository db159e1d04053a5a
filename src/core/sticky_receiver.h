// The sticky receiver of a destination group (DESIGN.md §5 item 5): the
// node that gets the body of a first attempt. A communication daemon keeps
// one for its destination unit, and a participant one per mirror group.
#ifndef BLOCKPLANE_CORE_STICKY_RECEIVER_H_
#define BLOCKPLANE_CORE_STICKY_RECEIVER_H_

#include "common/metrics.h"

namespace blockplane::core {

/// Starts at index 0, the view-0 leader, and moves to the next index when a
/// record first sent to it is retried. The other records it received retry
/// without moving it again, so one faulty receiver costs one move.
class StickyReceiver {
 public:
  int index() const { return index_; }

  /// A record whose first attempt went to node `first` of a group of
  /// `group_size` nodes is being retried.
  void OnRetry(int first, int group_size) {
    if (first != index_) return;
    index_ = (index_ + 1) % group_size;
    robustness_stats().receiver_moves++;
  }

 private:
  int index_ = 0;
};

}  // namespace blockplane::core

#endif  // BLOCKPLANE_CORE_STICKY_RECEIVER_H_
