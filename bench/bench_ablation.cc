// Ablations of Blockplane's design choices (see DESIGN.md §5):
//
//   A. Wide-area message complexity per consensus round — the hierarchy's
//      core claim: byzantine masking stays local, so the WAN traffic of
//      Blockplane-paxos looks like paxos's, not PBFT's.
//   B. Communication-daemon pipelining — serializing transmissions per
//      destination (window = 1) adds an extra cross-round RTT under load.
//   D. Read strategies (§VI-A) — read-1 vs 2f+1-quorum vs linearizable,
//      for a 1 KB and a 32 KB entry: latency and LAN traffic per read.
//   E. Resource and message cost per deployment and local commit (§VI-D).
#include <cstdio>

#include "bench_util.h"
#include "core/deployment.h"
#include "paxos/node.h"
#include "protocols/bp_paxos.h"
#include "protocols/flat_pbft.h"

namespace blockplane {
namespace {

net::NetworkOptions BenchNet() {
  net::NetworkOptions options;
  options.intra_site_one_way = sim::Microseconds(100);
  options.per_message_cpu = sim::Microseconds(25);
  return options;
}

// --- A: WAN messages per round -------------------------------------------------

void AblateWanMessages() {
  std::printf("--- A. wide-area traffic per replicated command "
              "(leader: Virginia, 1 KB commands, mean of 20) ---\n");
  std::printf("%20s %16s %14s\n", "protocol", "WAN messages", "WAN KB");
  constexpr int kRounds = 20;

  {  // paxos
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
            if (site == net::kVirginia) ++committed;
          });
      node->RegisterWithNetwork();
      nodes.push_back(std::move(node));
    }
    nodes[net::kVirginia]->StartLeaderElection();
    simulator.RunUntilCondition(
        [&] { return nodes[net::kVirginia]->IsLeader(); }, sim::Seconds(10));
    network.ResetCounters();
    for (int i = 0; i < kRounds; ++i) {
      uint64_t target = committed + 1;
      nodes[net::kVirginia]->Submit(bench::MakeBatch(1));
      simulator.RunUntilCondition([&] { return committed >= target; },
                                  simulator.Now() + sim::Seconds(10));
    }
    simulator.RunFor(sim::Seconds(1));
    std::printf("%20s %16.1f %14.1f\n", "paxos",
                static_cast<double>(network.counters().Get("wan_messages")) /
                    kRounds,
                static_cast<double>(network.counters().Get("wan_bytes")) /
                    kRounds / 1000.0);
  }

  {  // Blockplane-paxos
    sim::Simulator simulator(1);
    core::Deployment deployment(&simulator, net::Topology::Aws4(), {},
                                BenchNet());
    protocols::BpPaxos paxos(&deployment);
    bool elected = false;
    paxos.LeaderElection(net::kVirginia, [&](bool won) { elected = won; });
    simulator.RunUntilCondition([&] { return elected; }, sim::Seconds(60));
    deployment.network()->ResetCounters();
    for (int i = 0; i < kRounds; ++i) {
      bool done = false;
      paxos.Replicate(net::kVirginia, bench::MakeBatch(1),
                      [&](bool) { done = true; });
      simulator.RunUntilCondition([&] { return done; },
                                  simulator.Now() + sim::Seconds(10));
    }
    simulator.RunFor(sim::Seconds(1));
    const CounterSet& counters = deployment.network()->counters();
    std::printf("%20s %16.1f %14.1f\n", "Blockplane-paxos",
                static_cast<double>(counters.Get("wan_messages")) / kRounds,
                static_cast<double>(counters.Get("wan_bytes")) / kRounds /
                    1000.0);
  }

  {  // flat PBFT
    sim::Simulator simulator(1);
    net::Network network(&simulator, net::Topology::Aws4(), BenchNet());
    crypto::KeyStore keys;
    protocols::FlatPbft pbft(&network, &keys, net::kVirginia);
    network.ResetCounters();
    for (int i = 0; i < kRounds; ++i) {
      bool done = false;
      pbft.Commit(bench::MakeBatch(1), [&](uint64_t) { done = true; });
      simulator.RunUntilCondition([&] { return done; },
                                  simulator.Now() + sim::Seconds(10));
    }
    simulator.RunFor(sim::Seconds(1));
    std::printf("%20s %16.1f %14.1f\n", "flat PBFT",
                static_cast<double>(network.counters().Get("wan_messages")) /
                    kRounds,
                static_cast<double>(network.counters().Get("wan_bytes")) /
                    kRounds / 1000.0);
  }
  std::printf(
      "(Blockplane keeps paxos's one-WAN-round-trip critical path but pays\n"
      " more raw WAN messages: each transmission ships one body to a\n"
      " receiver and a small notice to f_i more nodes, is acked by all\n"
      " f_i+1, and reserves keep polling. Flat PBFT sends fewer messages\n"
      " yet needs three sequential WAN phases - which is why its latency\n"
      " in Fig. 7 is far worse.)\n\n");
}

// --- B: daemon pipelining --------------------------------------------------------

void AblatePipelining() {
  std::printf("--- B. communication-daemon pipelining: 10 back-to-back "
              "messages California -> Virginia ---\n");
  std::printf("%14s %22s\n", "window", "total delivery (ms)");
  for (size_t window : {size_t{1}, size_t{4}, size_t{32}}) {
    sim::Simulator simulator(1);
    core::BlockplaneOptions options;
    options.daemon_window = window;
    core::Deployment deployment(&simulator, net::Topology::Aws4(), options,
                                BenchNet());
    for (int i = 0; i < 10; ++i) {
      deployment.participant(net::kCalifornia)
          ->Send(net::kVirginia, bench::MakeBatch(1), 0, nullptr);
    }
    int received = 0;
    deployment.participant(net::kVirginia)
        ->SetReceiveHandler(
            [&](net::SiteId, const Bytes&) { ++received; });
    sim::SimTime start = simulator.Now();
    simulator.RunUntilCondition([&] { return received == 10; },
                                sim::Seconds(60));
    std::printf("%14zu %22.1f\n", window,
                sim::ToMillis(simulator.Now() - start));
  }
  std::printf("(window=1 pays ~1 extra RTT per queued message.)\n\n");
}

// --- E: resource & message cost summary (§VI-D) ---------------------------------

void AblateCosts() {
  std::printf("--- E. performance and monetary costs (SVI-D): resources "
              "per deployment, traffic per local commit ---\n");
  std::printf("%6s %14s %16s %18s\n", "f_i", "nodes/site",
              "LAN msgs/commit", "LAN KB/commit");
  for (int fi = 1; fi <= 3; ++fi) {
    sim::Simulator simulator(1);
    core::BlockplaneOptions options;
    options.fi = fi;
    core::Deployment deployment(&simulator,
                                net::Topology::SingleSite("Virginia"),
                                options, BenchNet());
    constexpr int kCommits = 50;
    int completed = 0;
    deployment.network()->ResetCounters();
    for (int i = 0; i < kCommits; ++i) {
      deployment.participant(0)->LogCommit(bench::MakeBatch(1), 0,
                                           [&](uint64_t) { ++completed; });
    }
    simulator.RunUntilCondition([&] { return completed == kCommits; },
                                sim::Seconds(60));
    const CounterSet& counters = deployment.network()->counters();
    std::printf("%6d %14d %16.1f %18.2f\n", fi, 3 * fi + 1,
                static_cast<double>(counters.Get("lan_messages")) / kCommits,
                static_cast<double>(counters.Get("lan_bytes")) / kCommits /
                    1000.0);
  }
  std::printf("(the paper's SVI-D: 3*f_i extra nodes per participant plus "
              "the three-phase commit traffic\n are the monetary price of "
              "byzantizing; traffic grows quadratically with the unit "
              "size.)\n\n");
}

// --- D: read strategies -------------------------------------------------------------

struct ReadCost {
  double latency_ms = 0;  // mean over the reads
  double lan_kb = 0;      // LAN traffic per read
};

/// 30 reads of one committed `kilobytes` entry at California.
ReadCost MeasureRead(core::ReadStrategy strategy, size_t kilobytes) {
  sim::Simulator simulator(1);
  core::Deployment deployment(&simulator, net::Topology::Aws4(), {},
                              BenchNet());
  bool committed = false;
  uint64_t pos = 0;
  deployment.participant(net::kCalifornia)
      ->LogCommit(bench::MakeBatch(kilobytes), 0, [&](uint64_t p) {
        pos = p;
        committed = true;
      });
  simulator.RunUntilCondition([&] { return committed; }, sim::Seconds(30));
  simulator.RunFor(sim::Seconds(1));

  constexpr int kReads = 30;
  const int64_t lan_before = deployment.network()->counters().Get("lan_bytes");
  Histogram latency_ms;
  for (int i = 0; i < kReads; ++i) {
    bool done = false;
    sim::SimTime start = simulator.Now();
    deployment.participant(net::kCalifornia)
        ->Read(pos, strategy, [&](Status, core::LogRecord) { done = true; });
    simulator.RunUntilCondition([&] { return done; },
                                simulator.Now() + sim::Seconds(10));
    latency_ms.Add(sim::ToMillis(simulator.Now() - start));
  }
  // The replies a read did not wait for are part of its traffic.
  simulator.RunFor(sim::Milliseconds(10));
  ReadCost cost;
  cost.latency_ms = latency_ms.Mean();
  cost.lan_kb = static_cast<double>(
                    deployment.network()->counters().Get("lan_bytes") -
                    lan_before) /
                kReads / 1000.0;
  return cost;
}

void AblateReads() {
  std::printf("--- D. read strategies (SVI-A), reading one committed "
              "entry of 1 KB or 32 KB ---\n");
  std::printf("%16s %10s %14s %14s\n", "strategy", "entry", "latency (ms)",
              "LAN KB/read");
  const core::ReadStrategy strategies[] = {core::ReadStrategy::kReadOne,
                                           core::ReadStrategy::kReadQuorum,
                                           core::ReadStrategy::kLinearizable};
  const char* names[] = {"read-1", "quorum(2f+1)", "linearizable"};
  for (int s = 0; s < 3; ++s) {
    for (size_t kilobytes : {size_t{1}, size_t{32}}) {
      const ReadCost cost = MeasureRead(strategies[s], kilobytes);
      std::printf("%16s %7zu KB %14.2f %14.1f\n", names[s], kilobytes,
                  cost.latency_ms, cost.lan_kb);
    }
  }
  std::printf(
      "(a quorum read ships the entry from f_i+1 nodes and its digest from\n"
      " the other 2f_i; a linearizable read also commits a marker.)\n\n");
}

}  // namespace
}  // namespace blockplane

int main() {
  using namespace blockplane;
  bench::PrintHeader("Ablations of Blockplane design choices",
                     "hierarchy/WAN traffic, daemon pipelining, "
                     "read strategies");
  AblateWanMessages();
  AblatePipelining();
  AblateReads();
  AblateCosts();
  return 0;
}
