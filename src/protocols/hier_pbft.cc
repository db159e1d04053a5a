#include "protocols/hier_pbft.h"

#include "common/codec.h"
#include "common/metrics.h"
#include "pbft/config.h"

namespace blockplane::protocols {

namespace {

enum HierMsg : net::MessageType {
  kPush = 401,  // leader site -> remote coordinators
  kAck = 402,   // remote coordinator -> leader site
};

constexpr int32_t kCoordinatorIndex = 500;

/// The value the leader site pushes for one round.
struct Round {
  uint64_t round = 0;
  Bytes value;

  BP_WIRE(Round, round, value)
};

}  // namespace

HierPbft::HierPbft(net::Network* network, crypto::KeyStore* keys, int f)
    : network_(network),
      majority_(network->topology().num_sites() / 2 + 1) {
  const int num_sites = network->topology().num_sites();
  for (net::SiteId site = 0; site < num_sites; ++site) {
    pbft::PbftConfig config = pbft::UnitConfig(site, f);
    auto& unit = units_[site];
    for (const net::NodeId& node : config.nodes) {
      auto replica = std::make_unique<pbft::PbftReplica>(network, keys,
                                                         config, node,
                                                         nullptr);
      replica->RegisterWithNetwork();
      unit.push_back(std::move(replica));
    }
    auto coordinator = std::make_unique<Coordinator>();
    coordinator->owner = this;
    coordinator->site = site;
    coordinator->self = net::NodeId{site, kCoordinatorIndex};
    coordinator->client = std::make_unique<pbft::PbftClient>(
        network, config, net::NodeId{site, kCoordinatorIndex + 1});
    network->Register(coordinator->self, coordinator.get());
    coordinators_[site] = std::move(coordinator);
  }
}

void HierPbft::Replicate(net::SiteId leader_site, Bytes value,
                         std::function<void(uint64_t)> done) {
  Coordinator* leader = coordinators_.at(leader_site).get();
  uint64_t round = ++leader->round;
  leader->acks = {leader_site};  // our own site counts once committed
  leader->done = std::move(done);

  // 1. Local PBFT commit at the leader site, then 2. push to every site.
  Bytes encoded = Round{round, std::move(value)}.Encode();
  // Encode-once push fan-out: all sites' kPush messages share one payload
  // allocation (each send is a refcount bump).
  net::PayloadPtr shared = net::MakePayload(Bytes(encoded));
  leader->client->Submit(
      Bytes(encoded), [this, leader, shared](uint64_t) {
        for (auto& [site, coordinator] : coordinators_) {
          if (site == leader->site) continue;
          net::Message msg;
          msg.src = leader->self;
          msg.dst = coordinator->self;
          msg.type = kPush;
          msg.payload = shared;
          hotpath_stats().bytes_copied_saved +=
              static_cast<int64_t>(shared->size());
          network_->Send(std::move(msg));
        }
      });
}

void HierPbft::Coordinator::HandleMessage(const net::Message& msg) {
  switch (static_cast<HierMsg>(msg.type)) {
    case kPush: {
      Round push;
      if (!Round::Decode(msg.body(), &push).ok()) return;
      const uint64_t push_round = push.round;
      // 3. Commit the received value into the local SMR log, then ack.
      net::NodeId reply_to = msg.src;
      client->Submit(Bytes(msg.body()),
                     [this, push_round, reply_to](uint64_t) {
                       ++decided;
                       Encoder enc;
                       enc.PutU64(push_round);
                       net::Message ack;
                       ack.src = self;
                       ack.dst = reply_to;
                       ack.type = kAck;
                       ack.set_body(enc.Take());
                       owner->network_->Send(std::move(ack));
                     });
      break;
    }
    case kAck: {
      Decoder dec(msg.body());
      uint64_t acked_round = 0;
      if (!dec.GetU64(&acked_round).ok() || acked_round != round) return;
      if (!done) return;
      acks.insert(msg.src.site);
      if (static_cast<int>(acks.size()) < owner->majority_) return;
      // 4. Majority holds the value: commit the decision locally.
      auto callback = std::move(done);
      done = nullptr;
      uint64_t decided_round = round;
      Encoder enc;
      enc.PutString("decided");
      enc.PutU64(decided_round);
      client->Submit(enc.Take(),
                     [this, callback, decided_round](uint64_t) {
                       ++decided;
                       if (callback) callback(decided_round);
                     });
      break;
    }
  }
}

}  // namespace blockplane::protocols
