// Configuration of one PBFT replication group.
//
// Blockplane instantiates a group per participant (all nodes in one site,
// the "unit" of §III-B); the flat-PBFT baseline instantiates a single group
// with one node per site.
#ifndef BLOCKPLANE_PBFT_CONFIG_H_
#define BLOCKPLANE_PBFT_CONFIG_H_

#include <vector>

#include "common/macros.h"
#include "net/node_id.h"
#include "sim/sim_time.h"

namespace blockplane::pbft {

struct PbftConfig {
  /// The 3f+1 replicas; nodes[i] has replica index i.
  std::vector<net::NodeId> nodes;
  /// Number of tolerated independent byzantine failures (f_i in the paper).
  int f = 1;

  /// A replica that knows of a pending request but sees no progress for
  /// this long initiates a view change. Wide-area groups need larger values.
  sim::SimTime view_timeout = sim::Milliseconds(60);
  /// Client retry period before broadcasting its request to all replicas.
  sim::SimTime client_retry = sim::Milliseconds(120);
  /// A stable checkpoint is taken (and the log truncated) every this many
  /// executed sequence numbers.
  uint64_t checkpoint_interval = 128;

  /// Ceiling of the leader's proposal window: at most this many
  /// concurrently outstanding (proposed-but-unexecuted) instances. 1
  /// reproduces the paper's group-commit rule ("a leader only attempts to
  /// commit a single batch and does not start the next one until the
  /// current one is committed"); larger values pipeline consensus instances
  /// while execution and replies stay strictly in sequence order
  /// (DESIGN.md §9). The replica's window controller starts here, halves on
  /// each completed view change and regrows back up to it (DESIGN.md §13).
  uint64_t window = 1;

  int n() const { return static_cast<int>(nodes.size()); }
  /// 2f+1: prepares needed beyond the pre-prepare, commits needed, and the
  /// view-change quorum.
  int quorum() const { return 2 * f + 1; }

  net::NodeId LeaderOf(uint64_t view) const {
    return nodes[view % nodes.size()];
  }

  /// Replica index of `id`, or -1 if not a member.
  int ReplicaIndex(net::NodeId id) const {
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] == id) return static_cast<int>(i);
    }
    return -1;
  }

  void Validate() const {
    BP_CHECK_MSG(n() >= 3 * f + 1, "PBFT needs n >= 3f+1 nodes");
    BP_CHECK(f >= 1);
  }
};

/// Builds the canonical unit config for a site: nodes (site, 0..3f).
PbftConfig UnitConfig(net::SiteId site, int f);

}  // namespace blockplane::pbft

#endif  // BLOCKPLANE_PBFT_CONFIG_H_
