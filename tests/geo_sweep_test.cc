// Property sweeps for geo-correlated fault tolerance (§V): across f_g
// levels, commit sites, and seeds, commits complete, latency is bounded
// below by the RTT to the f_g-th closest mirror, and mirror streams stay
// consistent across sites.
#include <gtest/gtest.h>

#include "core/deployment.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace blockplane::core {
namespace {

using net::Topology;
using sim::Seconds;

class GeoSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GeoSweepTest, CommitLatencyBoundedByMirrorRtt) {
  auto [fg, site, seed] = GetParam();
  sim::Simulator simulator(static_cast<uint64_t>(seed));
  BlockplaneOptions options;
  options.fg = fg;
  Deployment deployment(&simulator, Topology::Aws4(), options);

  constexpr int kCommits = 3;
  int completed = 0;
  sim::SimTime start = simulator.Now();
  std::function<void()> commit_next = [&]() {
    deployment.participant(site)->LogCommit(
        ToBytes("geo-" + std::to_string(completed)), 0, [&](uint64_t) {
          ++completed;
          if (completed < kCommits) commit_next();
        });
  };
  commit_next();
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return completed == kCommits; }, Seconds(300)))
      << "fg=" << fg << " site=" << site;

  // Each commit needs proofs from fg mirrors, so the average is bounded
  // below by the RTT to the fg-th closest site.
  double mean_ms =
      sim::ToMillis(simulator.Now() - start) / static_cast<double>(kCommits);
  double bound_ms =
      sim::ToMillis(Topology::Aws4().RttToKthClosest(site, fg));
  EXPECT_GE(mean_ms, bound_ms * 0.99);
  // ...and stays within the farthest-site RTT plus generous local slack.
  double ceiling_ms =
      sim::ToMillis(Topology::Aws4().RttToKthClosest(site, 3)) + 30.0;
  EXPECT_LE(mean_ms, ceiling_ms);

  // Mirror streams: at least fg mirror sites hold a prefix of the stream,
  // and any two mirrors agree on every position both hold.
  simulator.RunFor(Seconds(3));
  std::map<uint64_t, Bytes> reference;
  int holding = 0;
  for (net::SiteId host : deployment.mirror_sites_of(site)) {
    BlockplaneNode* node = deployment.mirror_node(host, site, 0);
    if (node->mirror_high() == 0) continue;
    ++holding;
    for (auto& [pos, record] : node->log()) {
      auto [it, inserted] = reference.emplace(record.geo_pos, record.payload);
      if (!inserted) {
        EXPECT_EQ(it->second, record.payload)
            << "mirror divergence at geo pos " << record.geo_pos;
      }
    }
  }
  EXPECT_GE(holding, fg);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GeoSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 3),      // f_g
                       ::testing::Values(0, 1, 2, 3),   // commit site
                       ::testing::Values(1, 2)),        // seed
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& pinfo) {
      return "fg" + std::to_string(std::get<0>(pinfo.param)) + "_site" +
             std::to_string(std::get<1>(pinfo.param)) + "_seed" +
             std::to_string(std::get<2>(pinfo.param));
    });

}  // namespace
}  // namespace blockplane::core
