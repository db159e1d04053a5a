#include "net/network.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"

namespace blockplane::net {

namespace {

/// Every NIC's bandwidth, intra-site and wide-area alike: the paper
/// measured 640 MB/s with iperf (its WAN payloads are small, so the
/// wide-area value rarely matters).
constexpr double kNicBytesPerSecond = 640e6;

/// Reported names of Network's fixed counters, in Counter order.
constexpr const char* kCounterNames[] = {
    "lan_messages",     "wan_messages",       "lan_bytes",
    "wan_bytes",        "dropped_messages",   "corrupted_messages",
    "duplicated_messages",
};

}  // namespace

Network::Network(sim::Simulator* simulator, Topology topology,
                 NetworkOptions options)
    : sim_(simulator),
      topology_(std::move(topology)),
      options_(options),
      rng_(simulator->rng().Fork()) {
  // Expose this network's counters in the unified registry. The handle is
  // dropped in ~Network so a registry dump never reads freed memory.
  metrics_handle_ = metrics_registry().Register(
      "network", [this]() { return CounterMap(); },
      [this]() { ResetCounters(); });
}

Network::~Network() { metrics_registry().Unregister(metrics_handle_); }

void Network::Register(NodeId id, Host* host) {
  BP_CHECK(id.valid());
  BP_CHECK(id.site < topology_.num_sites());
  hosts_[id] = host;
}

void Network::Unregister(NodeId id) { hosts_.erase(id); }

void Network::Send(Message msg) {
  BP_CHECK(msg.src.valid() && msg.dst.valid());
  if (msg.wire_bytes == 0) {
    msg.wire_bytes = msg.body().size() + options_.header_bytes;
  }

  // A crashed sender emits nothing, so its messages are not traffic.
  if (IsCrashed(msg.src)) {
    ++counts_[kDroppedMessages];
    return;
  }

  const bool local = msg.src.site == msg.dst.site;
  ++counts_[local ? kLanMessages : kWanMessages];
  counts_[local ? kLanBytes : kWanBytes] +=
      static_cast<int64_t>(msg.wire_bytes);
  if (!local && options_.per_type_wan_counters) {
    // Bench-only breakdown: the network is protocol-agnostic, so the key
    // carries the numeric type tag; benches map tags back to names.
    wan_bytes_by_type_[msg.type] += static_cast<int64_t>(msg.wire_bytes);
  }

  // A crashed destination hears nothing (the bytes did leave the sender).
  if (IsCrashed(msg.dst)) {
    ++counts_[kDroppedMessages];
    return;
  }
  // Partitioned directions drop everything (symmetric partitions insert
  // both directed edges; one-way partitions just one).
  if (partitions_.count({msg.src.site, msg.dst.site}) > 0) {
    ++counts_[kDroppedMessages];
    return;
  }
  if (options_.drop_prob > 0 && rng_.Bernoulli(options_.drop_prob)) {
    ++counts_[kDroppedMessages];
    return;
  }
  if (options_.corrupt_prob > 0 && !msg.body().empty() &&
      rng_.Bernoulli(options_.corrupt_prob)) {
    // Flip one random byte; the reliable transport's checksum catches this.
    // Payload buffers are shared (broadcast fan-out, retransmission
    // buffers), so corruption must copy-on-write: only THIS in-flight copy
    // gets the flipped byte, never the sender's buffer or sibling sends.
    auto corrupted = std::make_shared<Bytes>(msg.body());
    size_t pos = rng_.NextBelow(corrupted->size());
    (*corrupted)[pos] ^= 0xff;
    msg.payload = std::move(corrupted);
    ++counts_[kCorruptedMessages];
  }

  const sim::SimTime serialize = static_cast<sim::SimTime>(
      static_cast<double>(msg.wire_bytes) / kNicBytesPerSecond * 1e9);

  sim::SimTime& nic_free = nic_free_at_[msg.src];
  sim::SimTime start = std::max(sim_->Now(), nic_free);
  nic_free = start + serialize;

  sim::SimTime propagate = local ? options_.intra_site_one_way
                                 : topology_.OneWay(msg.src.site, msg.dst.site);
  if (options_.jitter_frac > 0) {
    propagate += static_cast<sim::SimTime>(
        rng_.NextDouble() * options_.jitter_frac *
        static_cast<double>(propagate));
  }

  sim::SimTime arrive = start + serialize + propagate;

  // FIFO per (src, dst) pair: the paper's channels ride on TCP, so jitter
  // must not reorder two messages between the same endpoints.
  sim::SimTime& last_arrival = pair_last_arrival_[{msg.src, msg.dst}];
  if (arrive <= last_arrival) arrive = last_arrival + 1;
  last_arrival = arrive;

  Deliver(msg, arrive);
  if (options_.duplicate_prob > 0 && rng_.Bernoulli(options_.duplicate_prob)) {
    // The duplicate shares the original's payload allocation.
    hotpath_stats().bytes_copied_saved +=
        static_cast<int64_t>(msg.body().size());
    Deliver(msg, arrive + sim::Microseconds(10));
    ++counts_[kDuplicatedMessages];
  }
}

void Network::Deliver(const Message& msg, sim::SimTime arrive) {
  // Two-stage delivery: the message first *arrives*, then queues on the
  // destination's CPU. Claiming CPU time at arrival (not at send) keeps a
  // long-flight wide-area message from reserving the receiver's CPU far in
  // the future ahead of local traffic that actually arrives earlier.
  //
  // The message waits in a pool slot, and both stages capture only the
  // slot. With shared payloads parking it is a refcount bump, where it used
  // to deep-copy the bytes twice per delivered message.
  hotpath_stats().bytes_copied_saved +=
      2 * static_cast<int64_t>(msg.body().size());
  uint32_t slot;
  if (free_in_flight_.empty()) {
    slot = static_cast<uint32_t>(in_flight_.size());
    in_flight_.push_back(msg);
  } else {
    slot = free_in_flight_.back();
    free_in_flight_.pop_back();
    in_flight_[slot] = msg;
  }
  sim_->ScheduleAt(arrive, [this, slot]() { Arrive(slot); });
}

void Network::Arrive(uint32_t slot) {
  sim::SimTime& cpu_free = cpu_free_at_[in_flight_[slot].dst];
  sim::SimTime handled_at =
      std::max(sim_->Now(), cpu_free) + options_.per_message_cpu;
  cpu_free = handled_at;
  sim_->ScheduleAt(handled_at, [this, slot]() { Handle(slot); });
}

void Network::Handle(uint32_t slot) {
  // Take the message out and free its slot first: the handler sends, and
  // its sends may reuse the slot or grow the pool.
  const Message msg = std::move(in_flight_[slot]);
  free_in_flight_.push_back(slot);
  // Re-check crash state at delivery time: the destination may have
  // crashed while the message was in flight.
  if (IsCrashed(msg.dst)) {
    ++counts_[kDroppedMessages];
    return;
  }
  auto it = hosts_.find(msg.dst);
  if (it == hosts_.end()) {
    ++counts_[kDroppedMessages];
    return;
  }
  it->second->HandleMessage(msg);
}

std::map<std::string, int64_t> Network::CounterMap() const {
  static_assert(std::size(kCounterNames) == kNumCounters);
  std::map<std::string, int64_t> out;
  // Bytes move with their message count, possibly by 0; the other fixed
  // counters move by 1.
  for (int c = 0; c < kNumCounters; ++c) {
    const int64_t moved = c == kLanBytes   ? counts_[kLanMessages]
                          : c == kWanBytes ? counts_[kWanMessages]
                                           : counts_[c];
    if (moved != 0) out[kCounterNames[c]] = counts_[c];
  }
  for (const auto& [type, bytes] : wan_bytes_by_type_) {
    out["wan_bytes.type_" + std::to_string(type)] = bytes;
  }
  return out;
}

const CounterSet& Network::counters() const {
  counter_view_.Clear();
  for (const auto& [name, value] : CounterMap()) {
    counter_view_.Increment(name, value);
  }
  return counter_view_;
}

void Network::ResetCounters() {
  counts_.fill(0);
  wan_bytes_by_type_.clear();
}

void Network::Crash(NodeId id) { crashed_.insert(id); }

void Network::Recover(NodeId id) { crashed_.erase(id); }

bool Network::IsCrashed(NodeId id) const {
  return crashed_.count(id) > 0 || crashed_sites_.count(id.site) > 0;
}

void Network::CrashSite(SiteId site) {
  BP_LOG(kInfo) << "site " << topology_.site_name(site) << " crashed";
  crashed_sites_.insert(site);
}

void Network::RecoverSite(SiteId site) { crashed_sites_.erase(site); }

bool Network::IsSiteCrashed(SiteId site) const {
  return crashed_sites_.count(site) > 0;
}

void Network::PartitionSites(SiteId a, SiteId b) {
  partitions_.insert({a, b});
  partitions_.insert({b, a});
}

void Network::HealPartition(SiteId a, SiteId b) {
  partitions_.erase({a, b});
  partitions_.erase({b, a});
}

void Network::PartitionOneWay(SiteId from, SiteId to) {
  partitions_.insert({from, to});
}

void Network::HealOneWay(SiteId from, SiteId to) {
  partitions_.erase({from, to});
}

bool Network::IsPartitioned(SiteId from, SiteId to) const {
  return partitions_.count({from, to}) > 0;
}

void Network::HealAll() { partitions_.clear(); }

}  // namespace blockplane::net
