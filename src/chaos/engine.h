// The chaos engine (DESIGN.md §10): applies a compiled Campaign to a real
// core::Deployment inside a fresh deterministic simulation, drives a
// log-commit / send / quorum-read workload through every participant, and
// then checks the cross-site invariants the paper promises:
//
//   I1  log agreement      — honest nodes of every unit (and every mirror
//                            group) hold pairwise-identical log prefixes,
//                            and equal digest chains at equal heights,
//   I2  completion order   — each participant's completion callbacks fire
//                            exactly once; with fg > 0 (the windowed geo
//                            path of DESIGN.md §9) additionally in
//                            submission order — fg == 0 deployments submit
//                            concurrently and let the unit leader order,
//   I3  mirror contiguity  — every mirror log holds geo positions 1..max
//                            with no holes, and no unit node ends the run
//                            with quarantined API records,
//   I4  liveness           — the whole workload completes before the
//                            campaign deadline (faults heal by `horizon`,
//                            so PBFT view changes + catch-up must restore
//                            progress afterwards).
//
// A failing run reports which invariant broke and why; callers print the
// campaign's JSON (which embeds the config) so the exact run can be
// recompiled and replayed from the seed.
#ifndef BLOCKPLANE_CHAOS_ENGINE_H_
#define BLOCKPLANE_CHAOS_ENGINE_H_

#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "core/deployment.h"

namespace blockplane::chaos {

struct InvariantFailure {
  /// One of "log-agreement", "completion-order", "mirror-contiguity",
  /// "liveness", "read".
  std::string invariant;
  std::string detail;
};

struct ChaosReport {
  bool ok = false;
  /// The workload finished before `config.deadline`.
  bool live = false;
  std::vector<InvariantFailure> failures;

  int expected_completions = 0;
  int completions = 0;
  int expected_reads = 0;
  int reads_ok = 0;
  /// Virtual time when the workload finished (or the deadline, if it
  /// never did).
  sim::SimTime finished_at = 0;
  uint64_t events_processed = 0;

  /// Window-controller aggregates over the whole deployment, collected
  /// before teardown: summed loss events / multiplicative decreases, and
  /// the min/max of the per-controller gauges at campaign end plus the
  /// smallest window any controller ever reached.
  int64_t congestion_loss_events = 0;
  int64_t congestion_decreases = 0;
  int64_t window_min_seen = 0;
  int64_t window_final_min = 0;
  int64_t window_final_max = 0;

  /// One-line summary plus one line per failure.
  std::string ToString() const;
};

/// Applies one fault action to `deployment` now. A recovery also re-runs
/// catch-up (§VI-B) on the recovered nodes: a site's unit and the mirror
/// groups it hosts. A burst restores its probability to 0 after
/// `action.duration`. Callers schedule the call at `action.at`.
void ApplyFault(core::Deployment* deployment, const FaultAction& action);

/// Runs `campaign` from scratch (fresh Simulator seeded with
/// `campaign.config.seed`, fresh Deployment) and checks I1–I4. Bit-for-bit
/// deterministic: the same campaign always produces the same report.
ChaosReport RunCampaign(const Campaign& campaign);

}  // namespace blockplane::chaos

#endif  // BLOCKPLANE_CHAOS_ENGINE_H_
