// Table II: local commitment performance while varying the number of unit
// nodes (4/7/10/13, i.e. f_i = 1..4), batch size 100 KB.
//
// Paper reference: throughput 83/51/28/25 MB/s; latency 1.2/1.9/3.5/4 ms.
#include <cstdio>

#include "bench_util.h"
#include "core/deployment.h"

namespace blockplane {
namespace {

void RunOne(int fi) {
  sim::Simulator simulator(1);
  core::BlockplaneOptions options;
  options.fi = fi;
  options.checkpoint_interval = 8;
  net::NetworkOptions net_options;
  net_options.intra_site_one_way = sim::Microseconds(100);
  net_options.per_message_cpu = sim::Microseconds(25);
  core::Deployment deployment(&simulator,
                              net::Topology::SingleSite("Virginia"), options,
                              net_options);

  Bytes batch = bench::MakeBatch(100);
  Histogram latency_ms;
  constexpr int kWarmup = 20;
  constexpr int kBatches = 200;
  for (int i = 0; i < kWarmup + kBatches; ++i) {
    bool done = false;
    sim::SimTime start = simulator.Now();
    deployment.participant(0)->LogCommit(Bytes(batch), 0,
                                         [&](uint64_t) { done = true; });
    simulator.RunUntilCondition([&] { return done; },
                                simulator.Now() + sim::Seconds(30));
    if (i >= kWarmup) latency_ms.Add(sim::ToMillis(simulator.Now() - start));
  }
  double mean = latency_ms.Mean();
  double mbps = static_cast<double>(batch.size()) / 1e6 / (mean / 1e3);
  std::printf("%10d %6d %14.2f %18.1f\n", 3 * fi + 1, fi, mean, mbps);
}

}  // namespace
}  // namespace blockplane

int main() {
  using namespace blockplane;
  bench::PrintHeader(
      "Table II: local commitment scalability (100 KB batches)",
      "nodes 4/7/10/13 -> 83/51/28/25 MB/s and 1.2/1.9/3.5/4 ms");
  std::printf("%10s %6s %14s %18s\n", "nodes", "f_i", "latency (ms)",
              "throughput (MB/s)");
  for (int fi = 1; fi <= 4; ++fi) RunOne(fi);
  return 0;
}
