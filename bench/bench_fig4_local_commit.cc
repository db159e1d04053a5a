// Figure 4: local-commitment performance (latency and throughput of the
// log-commit instruction) while varying the batch size, in the Virginia
// datacenter with f_i = 1 (4 Blockplane nodes, 640 MB/s links).
//
// Paper reference points: ~1 ms latency up to 100 KB batches; 4.5 ms at
// 1000 KB; 8.2 ms at 2000 KB; throughput 83 MB/s at 100 KB growing to a
// plateau (+160% to 1000 KB, +10% more to 2000 KB).
#include <cstdio>

#include "bench_util.h"
#include "core/deployment.h"

namespace blockplane {
namespace {

struct Result {
  size_t batch_kb;
  double latency_ms;
  double throughput_mbps;
};

Result RunOne(size_t batch_kb, int warmup, int batches) {
  sim::Simulator simulator(1);
  core::BlockplaneOptions options;
  options.fi = 1;
  options.checkpoint_interval = 8;
  // Intra-datacenter parameters calibrated to the paper's EC2 testbed
  // (m5.xlarge, same-AZ latency ~0.2 ms RTT, 640 MB/s iperf bandwidth).
  net::NetworkOptions net_options;
  net_options.intra_site_one_way = sim::Microseconds(100);
  net_options.per_message_cpu = sim::Microseconds(25);
  core::Deployment deployment(&simulator, net::Topology::SingleSite("Virginia"),
                              options, net_options);

  Bytes batch = bench::MakeBatch(batch_kb);
  Histogram latency_ms;
  for (int i = 0; i < warmup + batches; ++i) {
    bool done = false;
    sim::SimTime start = simulator.Now();
    deployment.participant(0)->LogCommit(Bytes(batch), 0,
                                         [&](uint64_t) { done = true; });
    simulator.RunUntilCondition([&] { return done; },
                                simulator.Now() + sim::Seconds(30));
    if (i >= warmup) {
      latency_ms.Add(sim::ToMillis(simulator.Now() - start));
    }
  }
  double mean = latency_ms.Mean();
  // Group commit: one batch at a time, so throughput = batch / latency.
  double mbps = static_cast<double>(batch.size()) / 1e6 / (mean / 1e3);
  return {batch_kb, mean, mbps};
}

}  // namespace
}  // namespace blockplane

int main() {
  using namespace blockplane;
  bench::PrintHeader(
      "Figure 4: local commitment latency/throughput vs batch size",
      "~1 ms & 83 MB/s @100 KB; 4.5 ms @1000 KB; 8.2 ms & plateau @2000 KB");

  std::printf("%12s %14s %18s\n", "batch (KB)", "latency (ms)",
              "throughput (MB/s)");
  for (size_t kb : {1, 10, 100, 500, 1000, 2000}) {
    // The paper commits 1000 batches after 100 warm-up; the simulator is
    // deterministic, so 200 measured batches give the same means.
    Result result = RunOne(kb, /*warmup=*/20, /*batches=*/200);
    std::printf("%12zu %14.2f %18.1f\n", result.batch_kb, result.latency_ms,
                result.throughput_mbps);
  }
  return 0;
}
