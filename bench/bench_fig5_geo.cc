// Figure 5: commitment latency with geo-correlated fault tolerance, per
// datacenter, for f_g = 1, 2, 3 (f_i = 1 throughout).
//
// Paper reference points: C(1)≈23 ms, +176% from C(1) to C(2); V(1)→V(2)
// only +13%; at f_g=2 all sites land between 64-80 ms except Ireland
// (~135 ms); at f_g=3 everything exceeds 135 ms except Virginia (~80 ms).
#include <cstdio>
#include <string>
#include <string_view>

#include "bench_util.h"
#include "common/trace.h"
#include "core/deployment.h"

namespace blockplane {
namespace {

double RunOne(net::SiteId site, int fg) {
  sim::Simulator simulator(1);
  core::BlockplaneOptions options;
  options.fi = 1;
  options.fg = fg;
  options.checkpoint_interval = 16;
  net::NetworkOptions net_options;
  net_options.intra_site_one_way = sim::Microseconds(100);
  net_options.per_message_cpu = sim::Microseconds(25);
  core::Deployment deployment(&simulator, net::Topology::Aws4(), options,
                              net_options);

  // The paper's workload: 1000-byte batches of arbitrary commands.
  Bytes batch = bench::MakeBatch(1);
  Histogram latency_ms;
  constexpr int kWarmup = 5;
  constexpr int kBatches = 50;
  for (int i = 0; i < kWarmup + kBatches; ++i) {
    bool done = false;
    sim::SimTime start = simulator.Now();
    deployment.participant(site)->LogCommit(Bytes(batch), 0,
                                            [&](uint64_t) { done = true; });
    simulator.RunUntilCondition([&] { return done; },
                                simulator.Now() + sim::Seconds(30));
    if (i >= kWarmup) latency_ms.Add(sim::ToMillis(simulator.Now() - start));
  }
  return latency_ms.Mean();
}

// With --trace=FILE: re-runs one representative commit (California, f_g=1)
// with the causal tracer enabled, prints the latency breakdown, and writes
// the Chrome trace_event JSON to FILE (open in chrome://tracing/Perfetto).
void RunTraced(const std::string& path) {
  tracer().Clear();
  tracer().Enable();
  sim::Simulator simulator(1);
  core::BlockplaneOptions options;
  options.fi = 1;
  options.fg = 1;
  net::NetworkOptions net_options;
  net_options.intra_site_one_way = sim::Microseconds(100);
  net_options.per_message_cpu = sim::Microseconds(25);
  core::Deployment deployment(&simulator, net::Topology::Aws4(), options,
                              net_options);
  bool done = false;
  deployment.participant(net::kCalifornia)
      ->LogCommit(bench::MakeBatch(1), 0, [&](uint64_t) { done = true; });
  simulator.RunUntilCondition([&] { return done; },
                              simulator.Now() + sim::Seconds(30));

  const TraceId trace = 1;  // first (and only) traced operation
  std::printf("\ntraced commit (California, f_g=1) breakdown:\n");
  for (const auto& c : tracer().BreakdownFor(trace)) {
    std::printf("  %-16s -> %-16s %8.3f ms\n", c.from.c_str(), c.to.c_str(),
                static_cast<double>(c.dur) / 1e6);
  }
  std::printf("  %-36s %8.3f ms\n", "end-to-end",
              static_cast<double>(tracer().EndToEndFor(trace)) / 1e6);
  if (tracer().WriteChromeTrace(path)) {
    std::printf("chrome trace written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "failed to write chrome trace to %s\n", path.c_str());
  }
  tracer().Disable();
  tracer().Clear();
}

}  // namespace
}  // namespace blockplane

int main(int argc, char** argv) {
  using namespace blockplane;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = std::string(arg.substr(8));
    }
  }
  bench::PrintHeader(
      "Figure 5: commitment latency with geo-correlated fault tolerance",
      "C(1)~23ms; C(1)->C(2) +176%; V(1)->V(2) +13%; fg=2: 64-80ms except "
      "I~135; fg=3: >135ms except V~80");
  net::Topology topo = net::Topology::Aws4();
  std::printf("%12s %8s %14s\n", "scenario", "f_g", "latency (ms)");
  for (int site = 0; site < topo.num_sites(); ++site) {
    for (int fg = 1; fg <= 3; ++fg) {
      double ms = RunOne(site, fg);
      std::printf("%11.1s(%d) %8d %14.1f\n", topo.site_name(site).c_str(),
                  fg, fg, ms);
    }
  }
  if (!trace_path.empty()) RunTraced(trace_path);
  return 0;
}
