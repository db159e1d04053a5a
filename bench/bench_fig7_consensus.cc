// Figure 7: the global consensus use case — latency of the paxos
// Replication phase per leader datacenter, for four protocols:
//
//   * paxos                — benign baseline (one node per datacenter)
//   * Blockplane-paxos     — paxos byzantized through Blockplane (§VI-E)
//   * PBFT                 — flat byzantine agreement across datacenters
//   * hierarchical PBFT    — PBFT per site + paxos-style cross-site commit
//
// Paper reference: paxos ≈ RTT to the closest majority (within 10%);
// Blockplane-paxos 0–33% above paxos; PBFT 102–157 ms (16–78% above
// Blockplane-paxos); hierarchical PBFT between paxos and Blockplane-paxos.
#include <cstdio>

#include "bench_util.h"
#include "core/deployment.h"
#include "paxos/node.h"
#include "protocols/bp_paxos.h"
#include "protocols/flat_pbft.h"
#include "protocols/hier_pbft.h"

namespace blockplane {
namespace {

constexpr int kWarmup = 3;
constexpr int kRounds = 20;

net::NetworkOptions BenchNet() {
  net::NetworkOptions options;
  options.intra_site_one_way = sim::Microseconds(100);
  options.per_message_cpu = sim::Microseconds(25);
  return options;
}

double RunPaxos(net::SiteId leader) {
  sim::Simulator simulator(1);
  net::Network network(&simulator, net::Topology::Aws4(), BenchNet());
  paxos::PaxosConfig config;
  for (int site = 0; site < 4; ++site) config.nodes.push_back({site, 0});
  std::vector<std::unique_ptr<paxos::PaxosNode>> nodes;
  uint64_t committed = 0;
  for (int site = 0; site < 4; ++site) {
    auto node = std::make_unique<paxos::PaxosNode>(
        &network, config, config.nodes[site],
        [&, site](uint64_t, const Bytes&) {
          if (site == leader) ++committed;
        });
    node->RegisterWithNetwork();
    nodes.push_back(std::move(node));
  }
  nodes[leader]->StartLeaderElection();
  simulator.RunUntilCondition([&] { return nodes[leader]->IsLeader(); },
                              sim::Seconds(10));

  Histogram latency_ms;
  for (int i = 0; i < kWarmup + kRounds; ++i) {
    sim::SimTime start = simulator.Now();
    uint64_t target = committed + 1;
    nodes[leader]->Submit(bench::MakeBatch(1));
    simulator.RunUntilCondition([&] { return committed >= target; },
                                simulator.Now() + sim::Seconds(10));
    if (i >= kWarmup) latency_ms.Add(sim::ToMillis(simulator.Now() - start));
  }
  return latency_ms.Mean();
}

double RunBpPaxos(net::SiteId leader) {
  sim::Simulator simulator(1);
  core::Deployment deployment(&simulator, net::Topology::Aws4(), {},
                              BenchNet());
  protocols::BpPaxos paxos(&deployment);
  bool elected = false;
  paxos.LeaderElection(leader, [&](bool won) { elected = won; });
  simulator.RunUntilCondition([&] { return elected; }, sim::Seconds(60));
  BP_CHECK(elected);

  Histogram latency_ms;
  for (int i = 0; i < kWarmup + kRounds; ++i) {
    bool done = false;
    sim::SimTime start = simulator.Now();
    paxos.Replicate(leader, bench::MakeBatch(1),
                    [&](bool ok) { done = ok; });
    simulator.RunUntilCondition([&] { return done; },
                                simulator.Now() + sim::Seconds(10));
    if (i >= kWarmup) latency_ms.Add(sim::ToMillis(simulator.Now() - start));
  }
  return latency_ms.Mean();
}

double RunFlatPbft(net::SiteId leader) {
  sim::Simulator simulator(1);
  net::Network network(&simulator, net::Topology::Aws4(), BenchNet());
  crypto::KeyStore keys;
  protocols::FlatPbft pbft(&network, &keys, leader);
  Histogram latency_ms;
  for (int i = 0; i < kWarmup + kRounds; ++i) {
    bool done = false;
    sim::SimTime start = simulator.Now();
    pbft.Commit(bench::MakeBatch(1), [&](uint64_t) { done = true; });
    simulator.RunUntilCondition([&] { return done; },
                                simulator.Now() + sim::Seconds(10));
    if (i >= kWarmup) latency_ms.Add(sim::ToMillis(simulator.Now() - start));
  }
  return latency_ms.Mean();
}

double RunHierPbft(net::SiteId leader) {
  sim::Simulator simulator(1);
  net::Network network(&simulator, net::Topology::Aws4(), BenchNet());
  crypto::KeyStore keys;
  protocols::HierPbft hier(&network, &keys, /*f=*/1);
  Histogram latency_ms;
  for (int i = 0; i < kWarmup + kRounds; ++i) {
    bool done = false;
    sim::SimTime start = simulator.Now();
    hier.Replicate(leader, bench::MakeBatch(1), [&](uint64_t) { done = true; });
    simulator.RunUntilCondition([&] { return done; },
                                simulator.Now() + sim::Seconds(10));
    if (i >= kWarmup) latency_ms.Add(sim::ToMillis(simulator.Now() - start));
  }
  return latency_ms.Mean();
}

}  // namespace
}  // namespace blockplane

int main() {
  using namespace blockplane;
  bench::PrintHeader(
      "Figure 7: Blockplane-paxos vs paxos, PBFT, hierarchical PBFT",
      "paxos ~ majority RTT; BP-paxos +0-33%; PBFT 102-157ms; hier-PBFT "
      "between paxos and BP-paxos");
  net::Topology topo = net::Topology::Aws4();
  std::printf("%12s %10s %18s %10s %18s\n", "leader DC", "paxos",
              "Blockplane-paxos", "PBFT", "hierarchical PBFT");
  for (int leader = 0; leader < 4; ++leader) {
    double paxos_ms = RunPaxos(leader);
    double bp_ms = RunBpPaxos(leader);
    double pbft_ms = RunFlatPbft(leader);
    double hier_ms = RunHierPbft(leader);
    std::printf("%12s %10.1f %18.1f %10.1f %18.1f\n",
                topo.site_name(leader).c_str(), paxos_ms, bp_ms, pbft_ms,
                hier_ms);
  }
  return 0;
}
