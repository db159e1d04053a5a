// Geo-correlated fault tolerance (§V): surviving the loss of an entire
// datacenter.
//
// With f_g = 1 every participant mirrors its Local Log on its two closest
// peers and commits only after one of them proves it holds the record.
// When California's datacenter burns down, Virginia — one of its mirrors —
// takes over as primary and continues the log, exactly like primary-copy
// replication (Fig. 8b).
//
//   $ ./failover_demo
#include <cstdio>

#include "core/deployment.h"

using namespace blockplane;

int main() {
  sim::Simulator simulator(11);
  core::BlockplaneOptions options;
  options.fg = 1;  // tolerate one datacenter-scale outage
  core::Deployment deployment(&simulator, net::Topology::Aws4(), options);

  std::printf("Geo-correlated failover demo (f_i = 1, f_g = 1)\n");
  std::printf("California's mirrors:");
  for (net::SiteId m : deployment.mirror_sites_of(net::kCalifornia)) {
    std::printf(" %s",
                deployment.network()->topology().site_name(m).c_str());
  }
  std::printf("\n\n");

  // The primary commits a few records; each waits for a mirror proof.
  for (int i = 0; i < 3; ++i) {
    bool done = false;
    sim::SimTime start = simulator.Now();
    deployment.participant(net::kCalifornia)
        ->LogCommit(ToBytes("order-" + std::to_string(i)), 0,
                    [&](uint64_t) { done = true; });
    simulator.RunUntilCondition([&] { return done; }, sim::Seconds(60));
    std::printf("primary committed order-%d in %.1f ms\n", i,
                sim::ToMillis(simulator.Now() - start));
  }

  std::printf("\n*** California datacenter fails ***\n\n");
  deployment.network()->CrashSite(net::kCalifornia);

  // Virginia detects the outage and takes over as acting primary for
  // California's log, using the remaining mirror peers.
  core::Participant* secondary = deployment.participant(net::kVirginia);
  std::vector<net::SiteId> peers =
      deployment.mirror_sites_of(net::kCalifornia);
  peers.push_back(net::kCalifornia);
  secondary->SetMirrorPeers(net::kCalifornia, peers);

  for (int i = 3; i < 6; ++i) {
    bool done = false;
    uint64_t pos = 0;
    sim::SimTime start = simulator.Now();
    secondary->MirrorCommit(net::kCalifornia,
                            ToBytes("order-" + std::to_string(i)), 0,
                            [&](uint64_t p) {
                              pos = p;
                              done = true;
                            });
    simulator.RunUntilCondition([&] { return done; }, sim::Seconds(60));
    std::printf("secondary (Virginia) committed order-%d at stream pos %lu "
                "in %.1f ms\n",
                i, static_cast<unsigned long>(pos),
                sim::ToMillis(simulator.Now() - start));
  }

  // The mirrored stream at Virginia holds all six records, in order.
  core::BlockplaneNode* mirror =
      deployment.mirror_node(net::kVirginia, net::kCalifornia, 0);
  simulator.RunFor(sim::Seconds(2));
  std::printf("\nVirginia's mirror of California's log (%lu entries):\n",
              static_cast<unsigned long>(mirror->mirror_high()));
  for (const auto& [mirror_pos, record] : mirror->log()) {
    core::LogRecord inner;
    if (core::LogRecord::Decode(record.payload, &inner).ok()) {
      std::printf("  [%lu] %s (acting primary: %s)\n",
                  static_cast<unsigned long>(record.geo_pos),
                  ToString(inner.payload).c_str(),
                  deployment.network()
                      ->topology()
                      .site_name(record.src_site)
                      .c_str());
    }
  }
  bool ok = mirror->mirror_high() == 6;
  std::printf("\n%s\n", ok ? "OK: the log survived the datacenter outage"
                           : "UNEXPECTED mirror state");
  return ok ? 0 : 1;
}
