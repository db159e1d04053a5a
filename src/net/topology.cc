#include "net/topology.h"

#include <algorithm>

namespace blockplane::net {

StatusOr<Topology> Topology::Create(std::vector<std::string> site_names,
                                    std::vector<std::vector<double>> rtt_ms) {
  const size_t n = site_names.size();
  if (n == 0) {
    return Status::InvalidArgument("topology needs at least one site");
  }
  if (rtt_ms.size() != n) {
    return Status::InvalidArgument(
        "RTT matrix has " + std::to_string(rtt_ms.size()) + " rows for " +
        std::to_string(n) + " sites");
  }
  for (size_t i = 0; i < n; ++i) {
    if (rtt_ms[i].size() != n) {
      return Status::InvalidArgument(
          "RTT matrix row " + std::to_string(i) + " has " +
          std::to_string(rtt_ms[i].size()) + " entries for " +
          std::to_string(n) + " sites");
    }
    for (size_t j = 0; j < n; ++j) {
      if (rtt_ms[i][j] < 0.0) {
        return Status::InvalidArgument(
            "negative RTT between " + site_names[i] + " and " +
            site_names[j]);
      }
      if (rtt_ms[i][j] != rtt_ms[j][i]) {
        return Status::InvalidArgument(
            "asymmetric RTT between " + site_names[i] + " and " +
            site_names[j]);
      }
      if (i == j && rtt_ms[i][j] != 0.0) {
        return Status::InvalidArgument("nonzero self-RTT for " +
                                       site_names[i]);
      }
    }
  }
  return Topology(std::move(site_names), std::move(rtt_ms));
}

Topology::Topology(std::vector<std::string> site_names,
                   std::vector<std::vector<double>> rtt_ms)
    : names_(std::move(site_names)) {
  const size_t n = names_.size();
  rtt_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    rtt_[i].resize(n);
    for (size_t j = 0; j < n; ++j) {
      rtt_[i][j] = sim::MillisecondsD(rtt_ms[i][j]);
    }
  }
}

Topology Topology::Aws4() {
  // Table I of the paper: average RTTs in ms between C, O, V, I.
  StatusOr<Topology> t =
      Topology::Create({"California", "Oregon", "Virginia", "Ireland"},
                       {
                           {0, 19, 61, 130},   // C
                           {19, 0, 79, 132},   // O
                           {61, 79, 0, 70},    // V
                           {130, 132, 70, 0},  // I
                       });
  BP_CHECK(t.ok());  // compiled-in matrix; failure is a programming error
  return std::move(t).value();
}

Topology Topology::SingleSite(const std::string& name) {
  StatusOr<Topology> t = Topology::Create({name}, {{0}});
  BP_CHECK(t.ok());
  return std::move(t).value();
}

Topology Topology::Uniform(int num_sites, double rtt_ms) {
  std::vector<std::string> names;
  std::vector<std::vector<double>> rtt(num_sites,
                                       std::vector<double>(num_sites, rtt_ms));
  for (int i = 0; i < num_sites; ++i) {
    names.push_back("site" + std::to_string(i));
    rtt[i][i] = 0.0;
  }
  StatusOr<Topology> t = Topology::Create(std::move(names), std::move(rtt));
  BP_CHECK(t.ok());
  return std::move(t).value();
}

sim::SimTime Topology::Rtt(int a, int b) const {
  BP_CHECK(a >= 0 && a < num_sites() && b >= 0 && b < num_sites());
  return rtt_[a][b];
}

std::vector<int> Topology::SitesByProximity(int from) const {
  std::vector<int> sites;
  for (int s = 0; s < num_sites(); ++s) {
    if (s != from) sites.push_back(s);
  }
  std::stable_sort(sites.begin(), sites.end(), [&](int a, int b) {
    return Rtt(from, a) < Rtt(from, b);
  });
  return sites;
}

sim::SimTime Topology::RttToKthClosest(int from, int k) const {
  BP_CHECK(k >= 1);
  std::vector<int> sites = SitesByProximity(from);
  BP_CHECK(static_cast<size_t>(k) <= sites.size());
  return Rtt(from, sites[k - 1]);
}

}  // namespace blockplane::net
