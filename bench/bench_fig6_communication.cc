// Figure 6: latency of communication between participants — a message
// through the send interface, received at the destination, with the
// receipt acknowledged back at the source — for every datacenter pair.
//
// Paper reference: C-O 23.4 ms; {C-V, O-V, V-I} 64-80 ms; {C-I, O-I}
// >135 ms. Overhead vs the raw RTT is 1-7% (23% for the close C-O pair).
#include <cstdio>
#include <utility>

#include "bench_util.h"
#include "core/deployment.h"

namespace blockplane {
namespace {

double RunOne(net::SiteId src, net::SiteId dest) {
  sim::Simulator simulator(1);
  core::BlockplaneOptions options;
  options.fi = 1;
  net::NetworkOptions net_options;
  net_options.intra_site_one_way = sim::Microseconds(100);
  net_options.per_message_cpu = sim::Microseconds(25);
  core::Deployment deployment(&simulator, net::Topology::Aws4(), options,
                              net_options);

  Bytes batch = bench::MakeBatch(1);
  Histogram latency_ms;
  core::BlockplaneNode* daemon_host = deployment.node(src, 0);
  constexpr int kWarmup = 3;
  constexpr int kMessages = 30;
  for (int i = 0; i < kWarmup + kMessages; ++i) {
    sim::SimTime start = simulator.Now();
    deployment.participant(src)->Send(dest, Bytes(batch), 0, nullptr);
    uint64_t target = static_cast<uint64_t>(i) + 1;
    // "Acknowledging the receipt of the message back at the source": the
    // daemon's ack watermark reaches this message once f_i+1 destination
    // nodes confirmed the committed reception.
    // Sends are the only records in this workload, so the i-th message is
    // the communication record at Local Log position i+1.
    simulator.RunUntilCondition(
        [&] { return daemon_host->daemon_acked(dest) >= target; },
        simulator.Now() + sim::Seconds(30));
    if (i >= kWarmup) latency_ms.Add(sim::ToMillis(simulator.Now() - start));
  }
  return latency_ms.Mean();
}

}  // namespace
}  // namespace blockplane

int main() {
  using namespace blockplane;
  bench::PrintHeader(
      "Figure 6: communication latency between participants (send -> "
      "receive -> ack)",
      "CO 23.4ms; CV/OV/VI 64-80ms; CI/OI >135ms; overhead vs RTT 1-7% "
      "(23% for CO)");
  net::Topology topo = net::Topology::Aws4();
  std::printf("%10s %14s %12s %14s\n", "pair", "latency (ms)", "RTT (ms)",
              "overhead");
  const std::pair<int, int> pairs[] = {
      {net::kCalifornia, net::kOregon},  {net::kCalifornia, net::kVirginia},
      {net::kCalifornia, net::kIreland}, {net::kOregon, net::kVirginia},
      {net::kOregon, net::kIreland},     {net::kVirginia, net::kIreland}};
  for (auto [a, b] : pairs) {
    double ms = RunOne(a, b);
    double rtt = sim::ToMillis(topo.Rtt(a, b));
    std::printf("%9.1s%1.1s %14.1f %12.1f %13.1f%%\n",
                topo.site_name(a).c_str(), topo.site_name(b).c_str(), ms,
                rtt, (ms - rtt) / rtt * 100.0);
  }
  return 0;
}
