// The simulated network.
//
// Cost model for delivering a message from node A (site Sa) to node B (Sb):
//
//   start      = max(now, A's NIC free time)            // FIFO per sender NIC
//   serialize  = wire_bytes / 640 MB/s                  // LAN and WAN alike
//   propagate  = OneWay(Sa, Sb)  (+ seeded jitter)      // intra-site one-way
//                                                       //   when Sa == Sb
//   arrive     = start + serialize + propagate
//   handled_at = max(arrive, B's CPU free time) + per_message_cpu
//
// The per-NIC serialization queue is what reproduces the bandwidth
// saturation of Fig. 4 / Table II (a PBFT leader pushing a 1 MB batch to
// n-1 replicas shares one 640 MB/s NIC); the per-CPU handling queue models
// the message-processing pressure of larger units.
//
// Fault injection (crashes, site outages, partitions, drops, corruption,
// duplication) lives here so that every protocol sees the same failure
// semantics.
//
// Work per delivered message is constant and allocation-free once the
// network is warm: a message in flight is parked in a pool slot the network
// owns, and both delivery stages schedule a 16-byte [this, slot] callback,
// which std::function stores inline. Counters are plain integers, turned
// into named counters only when read.
#ifndef BLOCKPLANE_NET_NETWORK_H_
#define BLOCKPLANE_NET_NETWORK_H_

#include <array>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/metrics.h"
#include "net/message.h"
#include "net/node_id.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace blockplane::net {

/// Anything that can receive messages from the network.
class Host {
 public:
  virtual ~Host() = default;
  virtual void HandleMessage(const Message& msg) = 0;
};

struct NetworkOptions {
  /// One-way latency between two nodes in the same site.
  sim::SimTime intra_site_one_way = sim::Microseconds(250);
  /// Serial per-message receive-processing cost at a node.
  sim::SimTime per_message_cpu = sim::Microseconds(30);
  /// Uniform jitter added to propagation, as a fraction of the one-way
  /// latency (e.g. 0.02 = up to 2%).
  double jitter_frac = 0.02;
  /// Bytes of protocol/transport headers modeled on top of each payload.
  uint64_t header_bytes = 64;
  /// Per-message-type WAN byte accounting: adds a `wan_bytes.type_<id>`
  /// counter per protocol MessageType tag seen on wide-area sends. Off by
  /// default — it is bench-only instrumentation (the e2e benchmark's
  /// per-message-type breakdown), and keeping it off leaves the counter
  /// namespace byte-identical to the seed.
  bool per_type_wan_counters = false;
  /// Unreliable-channel knobs, applied to every send through this
  /// Network (chaos campaigns and lossy_network_test set them).
  double drop_prob = 0.0;
  double corrupt_prob = 0.0;
  double duplicate_prob = 0.0;
};

class Network {
 public:
  Network(sim::Simulator* simulator, Topology topology,
          NetworkOptions options = {});
  ~Network();
  BP_DISALLOW_COPY_AND_ASSIGN(Network);

  /// Registers the handler for a node. Re-registering replaces the handler
  /// (used when a node recovers with fresh state).
  void Register(NodeId id, Host* host);
  void Unregister(NodeId id);

  /// Sends a message. Delivery is asynchronous via the simulator; the send
  /// itself never fails (failures manifest as silence, like UDP).
  void Send(Message msg);

  const Topology& topology() const { return topology_; }
  const NetworkOptions& options() const { return options_; }
  sim::Simulator* simulator() const { return sim_; }

  // --- Fault injection -----------------------------------------------------

  /// Crashes a node: all traffic to and from it is dropped until Recover.
  void Crash(NodeId id);
  void Recover(NodeId id);
  bool IsCrashed(NodeId id) const;

  /// Crashes every node of a site (a geo-correlated, datacenter-scale
  /// outage per §V of the paper).
  void CrashSite(SiteId site);
  void RecoverSite(SiteId site);
  bool IsSiteCrashed(SiteId site) const;

  /// Drops all traffic between two sites (both directions).
  void PartitionSites(SiteId a, SiteId b);
  void HealPartition(SiteId a, SiteId b);

  /// One-way (asymmetric) partition: drops traffic flowing `from` -> `to`
  /// only; the reverse direction still delivers. Models the asymmetric
  /// route failures common on wide-area links (BGP blackholes, unidirectional
  /// congestion collapse) that symmetric partitions cannot express.
  void PartitionOneWay(SiteId from, SiteId to);
  void HealOneWay(SiteId from, SiteId to);
  /// True if traffic flowing `from` -> `to` is currently dropped (by either
  /// a symmetric or a matching one-way partition).
  bool IsPartitioned(SiteId from, SiteId to) const;
  /// Heals every partition (symmetric and one-way) at once. Crash state is
  /// untouched; use RecoverSite/Recover for that.
  void HealAll();

  void set_drop_prob(double p) { options_.drop_prob = p; }
  void set_corrupt_prob(double p) { options_.corrupt_prob = p; }
  void set_duplicate_prob(double p) { options_.duplicate_prob = p; }

  // --- Accounting ----------------------------------------------------------

  /// Counters: {lan,wan}_messages, {lan,wan}_bytes, dropped_messages,
  /// corrupted_messages, duplicated_messages and, with
  /// per_type_wan_counters, wan_bytes.type_<id>. A counter that never moved
  /// is absent. A crashed sender's messages count only as drops: they never
  /// reach the wire. The set is rebuilt on each call; read it before the
  /// simulation moves on.
  const CounterSet& counters() const;
  void ResetCounters();

 private:
  /// The fixed counters, named by kCounterNames in network.cc.
  enum Counter {
    kLanMessages,
    kWanMessages,
    kLanBytes,
    kWanBytes,
    kDroppedMessages,
    kCorruptedMessages,
    kDuplicatedMessages,
    kNumCounters,
  };
  /// Every counter that moved, by name.
  std::map<std::string, int64_t> CounterMap() const;

  /// Parks `msg` in the in-flight pool and schedules its arrival.
  void Deliver(const Message& msg, sim::SimTime arrive);
  /// Arrival: claims the destination's CPU and schedules the hand-off.
  void Arrive(uint32_t slot);
  /// Hand-off: frees the slot, then delivers to the destination host.
  void Handle(uint32_t slot);

  struct PairHash {
    size_t operator()(const std::pair<NodeId, NodeId>& p) const {
      NodeIdHash h;
      return h(p.first) * 0x9e3779b97f4a7c15ULL ^ h(p.second);
    }
  };

  sim::Simulator* sim_;
  Topology topology_;
  NetworkOptions options_;
  sim::Rng rng_;

  common::HashMap<NodeId, Host*, NodeIdHash> hosts_;
  common::HashMap<NodeId, sim::SimTime, NodeIdHash> nic_free_at_;
  common::HashMap<NodeId, sim::SimTime, NodeIdHash> cpu_free_at_;
  common::HashMap<std::pair<NodeId, NodeId>, sim::SimTime, PairHash>
      pair_last_arrival_;
  common::HashSet<NodeId, NodeIdHash> crashed_;
  common::HashSet<SiteId> crashed_sites_;
  /// Directed partition edges: {from, to} present means traffic flowing
  /// from -> to is dropped. PartitionSites inserts both directions;
  /// PartitionOneWay inserts just one.
  std::set<std::pair<SiteId, SiteId>> partitions_;

  /// Messages between Send and their host's HandleMessage, by slot.
  std::vector<Message> in_flight_;
  std::vector<uint32_t> free_in_flight_;

  std::array<int64_t, kNumCounters> counts_{};
  /// WAN bytes per message type (per_type_wan_counters only).
  std::map<MessageType, int64_t> wan_bytes_by_type_;
  /// What counters() returns.
  mutable CounterSet counter_view_;
  /// Handle of this network's group in the process-wide metrics registry.
  int64_t metrics_handle_ = 0;
};

}  // namespace blockplane::net

#endif  // BLOCKPLANE_NET_NETWORK_H_
