// Deterministic fault campaigns (DESIGN.md §10).
//
// A Campaign is a seeded, pre-compiled schedule of fault actions — node
// crashes and recoveries, site outages, symmetric and one-way partitions,
// message drop/corrupt/duplicate bursts, and scripted byzantine behaviors
// (equivocation, certificate withholding, reply forgery, geo-reordering
// leaders). CompileCampaign turns a CampaignConfig (seed + schedule
// template + deployment shape) into a concrete action list under
// recoverability constraints:
//
//   * at most f_i simultaneously-faulty (crashed or byzantine) nodes per
//     unit, so PBFT safety always holds and liveness returns after heals,
//   * at most one full-site outage at a time, always healed,
//   * every partition and probability burst ends before `horizon`, and the
//     compiled schedule ends with a heal-everything action,
//   * byzantine role assignments are permanent for the run but capped at
//     f_i per unit (the paper's fault model).
//
// The same (config → campaign) mapping is bit-for-bit deterministic, so a
// failing campaign is fully reproducible from its JSON (which embeds the
// config). The chaos engine (engine.h) applies a campaign to a real
// core::Deployment and checks cross-site invariants afterwards.
#ifndef BLOCKPLANE_CHAOS_CAMPAIGN_H_
#define BLOCKPLANE_CHAOS_CAMPAIGN_H_

#include <string>
#include <vector>

#include "net/node_id.h"
#include "sim/sim_time.h"

namespace blockplane::chaos {

enum class FaultType : uint8_t {
  kCrashNode = 1,   // site_a + node_index; paired with kRecoverNode
  kRecoverNode,     // also re-runs the node's catch-up (§VI-B)
  kCrashSite,       // site_a; paired with kRecoverSite
  kRecoverSite,
  kPartition,       // site_a <-> site_b, both directions
  kHeal,
  kPartitionOneWay,  // site_a -> site_b only
  kHealOneWay,
  kDropBurst,       // probability for duration, then restored to 0
  kCorruptBurst,
  kDuplicateBurst,
  kHealAll,         // heal every partition (the end-of-campaign sweep)
  // Scripted byzantine behaviors (site_a + node_index; permanent). They
  // stay last: the engine tells them apart by `>= kByzEquivocate`.
  kByzEquivocate,       // leader sends conflicting pre-prepares
  kByzSilent,           // mute node
  kByzBogusVotes,       // corrupted vote digests
  kByzWithholdAttest,   // certificate withholding: never attests
  kByzForgeReads,       // forged read bodies under the honest digest
  kByzReorderGeo,       // unit leader censors a request -> non-contiguous
                        // geo positions (DESIGN.md §10 defense target)
};

/// Human-readable name of a fault type (stable; used in campaign JSON).
const char* FaultTypeName(FaultType type);

struct FaultAction {
  sim::SimTime at = 0;
  FaultType type = FaultType::kCrashNode;
  net::SiteId site_a = -1;
  net::SiteId site_b = -1;
  int node_index = -1;
  double probability = 0.0;   // bursts only
  sim::SimTime duration = 0;  // bursts only (engine restores at at+duration)
};

/// The four soak schedule templates.
enum class ScheduleTemplate : uint8_t {
  kCrashHeavy = 0,
  kPartitionHeavy = 1,
  kByzantineHeavy = 2,
  kMixed = 3,
};

const char* ScheduleTemplateName(ScheduleTemplate t);

struct CampaignConfig {
  uint64_t seed = 1;
  ScheduleTemplate schedule = ScheduleTemplate::kMixed;

  /// Deployment shape. fg > 0 enables geo mirroring (and the geo-reorder
  /// byzantine action); templates pick their own default below.
  int num_sites = 3;
  int fi = 1;
  int fg = 0;
  uint64_t pbft_window = 1;
  uint64_t participant_window = 1;
  double rtt_ms = 40.0;

  /// All faults are injected in [start, horizon] and healed by horizon.
  sim::SimTime start = sim::Milliseconds(500);
  sim::SimTime horizon = sim::Seconds(20);
  /// Liveness deadline: every workload completion must fire by then.
  sim::SimTime deadline = sim::Seconds(60);

  /// Workload: log-commits and cross-site sends per participant, spread
  /// over [0, horizon].
  int ops_per_site = 6;
  int sends_per_site = 2;
  /// Quorum reads issued (byzantine templates; 0 elsewhere).
  int reads_per_site = 0;
};

struct Campaign {
  CampaignConfig config;
  std::vector<FaultAction> actions;  // sorted by `at`

  /// Full campaign as pretty-printed JSON: the config (sufficient to
  /// recompile the identical campaign) plus the expanded action list.
  std::string ToJson() const;
};

/// Applies the template's deployment-shape defaults (fg, windows, reads)
/// to `config` and compiles the seeded action schedule.
Campaign CompileCampaign(CampaignConfig config);

}  // namespace blockplane::chaos

#endif  // BLOCKPLANE_CHAOS_CAMPAIGN_H_
