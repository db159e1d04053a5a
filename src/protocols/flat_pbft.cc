#include "protocols/flat_pbft.h"

namespace blockplane::protocols {

FlatPbft::FlatPbft(net::Network* network, crypto::KeyStore* keys,
                   net::SiteId leader_site) {
  const int num_sites = network->topology().num_sites();
  BP_CHECK_MSG((num_sites - 1) % 3 == 0,
               "flat PBFT needs n = 3f+1 sites");

  pbft::PbftConfig config;
  config.f = (num_sites - 1) / 3;
  // Order the replica list so the desired site leads view 0.
  for (int i = 0; i < num_sites; ++i) {
    config.nodes.push_back(net::NodeId{(leader_site + i) % num_sites, 0});
  }
  // Wide-area deployment: timeouts must exceed WAN round trips.
  config.view_timeout = sim::Milliseconds(1500);
  config.client_retry = sim::Milliseconds(3000);

  for (int i = 0; i < num_sites; ++i) {
    net::NodeId self{i, 0};
    auto replica = std::make_unique<pbft::PbftReplica>(
        network, keys, config, self, nullptr);
    replica->RegisterWithNetwork();
    replicas_.push_back(std::move(replica));
  }
  client_ = std::make_unique<pbft::PbftClient>(
      network, config, net::NodeId{leader_site, 900});
}

void FlatPbft::Commit(Bytes value, pbft::PbftClient::DoneCallback done) {
  client_->Submit(std::move(value), std::move(done));
}

}  // namespace blockplane::protocols
