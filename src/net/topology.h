// Wide-area topology: sites (datacenters) and the round-trip times between
// them. The default topology is the paper's Table I — the four AWS regions
// California (C), Oregon (O), Virginia (V), and Ireland (I).
#ifndef BLOCKPLANE_NET_TOPOLOGY_H_
#define BLOCKPLANE_NET_TOPOLOGY_H_

#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status_or.h"
#include "sim/sim_time.h"

namespace blockplane::net {

class Topology {
 public:
  /// Builds a topology from a symmetric RTT matrix in milliseconds.
  /// rtt_ms must be square and match site_names, rtt_ms[i][j] must equal
  /// rtt_ms[j][i] >= 0, and rtt_ms[i][i] must be 0. Violations return
  /// InvalidArgument — operator-supplied matrices (config files, CLI
  /// flags) must not be able to abort a daemon.
  static StatusOr<Topology> Create(std::vector<std::string> site_names,
                                   std::vector<std::vector<double>> rtt_ms);

  /// The paper's Table I: C, O, V, I with RTTs 19–132 ms.
  /// Site order (and thus SiteId values): C=0, O=1, V=2, I=3.
  static Topology Aws4();

  /// A single-site topology (for local-commit experiments).
  static Topology SingleSite(const std::string& name = "local");

  /// Uniform n-site topology with the same RTT between every pair — handy
  /// for property tests.
  static Topology Uniform(int num_sites, double rtt_ms);

  int num_sites() const { return static_cast<int>(names_.size()); }
  const std::string& site_name(int site) const { return names_[site]; }

  /// Round-trip time between two sites (0 for a == b).
  sim::SimTime Rtt(int a, int b) const;

  /// One-way propagation delay between sites (Rtt/2).
  sim::SimTime OneWay(int a, int b) const { return Rtt(a, b) / 2; }

  /// Sites sorted by RTT from `from`, excluding `from` itself.
  std::vector<int> SitesByProximity(int from) const;

  /// RTT from `from` to its k-th closest other site (k >= 1).
  sim::SimTime RttToKthClosest(int from, int k) const;

 private:
  /// Trusts its input: all validation lives in Create().
  Topology(std::vector<std::string> site_names,
           std::vector<std::vector<double>> rtt_ms);

  std::vector<std::string> names_;
  std::vector<std::vector<sim::SimTime>> rtt_;
};

/// Site indices for Topology::Aws4().
enum Aws4Site : int {
  kCalifornia = 0,
  kOregon = 1,
  kVirginia = 2,
  kIreland = 3,
};

}  // namespace blockplane::net

#endif  // BLOCKPLANE_NET_TOPOLOGY_H_
