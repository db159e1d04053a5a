#include "chaos/engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "common/bytes.h"
#include "sim/simulator.h"

namespace blockplane::chaos {
namespace {

/// One scheduled workload operation on one participant.
struct WorkItem {
  sim::SimTime at = 0;
  bool is_send = false;
  net::SiteId dest = -1;  // sends only
  Bytes payload;
};

class Engine {
 public:
  explicit Engine(const Campaign& campaign)
      : campaign_(campaign),
        cfg_(campaign.config),
        sim_(cfg_.seed),
        deployment_(&sim_, net::Topology::Uniform(cfg_.num_sites, cfg_.rtt_ms),
                    MakeOptions(cfg_)) {}

  ChaosReport Run() {
    ScheduleFaults();
    ScheduleWorkload();
    report_.expected_completions = expected_completions_;
    report_.expected_reads = cfg_.reads_per_site * cfg_.num_sites;
    report_.live = sim_.RunUntilCondition(
        [this]() {
          return completions_ == expected_completions_ &&
                 reads_done_ == cfg_.reads_per_site * cfg_.num_sites;
        },
        cfg_.deadline);
    report_.finished_at = report_.live ? sim_.Now() : cfg_.deadline;
    report_.completions = completions_;
    report_.reads_ok = reads_ok_;
    report_.events_processed = sim_.processed_events();
    if (!report_.live) {
      std::ostringstream os;
      os << "workload stuck at deadline: " << completions_ << "/"
         << expected_completions_ << " completions, " << reads_done_ << "/"
         << cfg_.reads_per_site * cfg_.num_sites << " reads";
      for (const auto& [site, state] : sites_) {
        for (int k = 0; k < state.total; ++k) {
          if (!state.fired[k]) os << "; site " << site << " op#" << k;
        }
      }
      // Log heights tell which layer stalled (unit PBFT vs geo mirrors).
      for (net::SiteId site = 0; site < cfg_.num_sites; ++site) {
        os << "; unit" << site << " h=";
        for (int i = 0; i < 3 * cfg_.fi + 1; ++i) {
          os << (i ? "/" : "") << deployment_.node(site, i)->log_size();
        }
        os << " q=" << deployment_.node(site, 0)->quarantined_api_records();
        for (net::SiteId host : deployment_.mirror_sites_of(site)) {
          os << " mirror@" << host << "="
             << deployment_.mirror_node(host, site, 0)->mirror_high();
        }
      }
      Fail("liveness", os.str());
    }
    CheckLogAgreement();
    CheckMirrorContiguity();
    CollectCongestion();
    report_.ok = report_.failures.empty();
    return std::move(report_);
  }

 private:
  static core::BlockplaneOptions MakeOptions(const CampaignConfig& cfg) {
    core::BlockplaneOptions options;
    options.fi = cfg.fi;
    options.fg = cfg.fg;
    options.pbft_window = cfg.pbft_window;
    options.participant_window = cfg.participant_window;
    return options;
  }

  void Fail(const std::string& invariant, const std::string& detail) {
    report_.failures.push_back({invariant, detail});
  }

  // --- fault application ------------------------------------------------------

  void ScheduleFaults() {
    for (const FaultAction& action : campaign_.actions) {
      sim_.ScheduleAt(action.at, [this, action]() { Apply(action); });
    }
  }

  void Apply(const FaultAction& action) {
    // Byzantine roles are permanent; I1 compares honest nodes only.
    if (action.type >= FaultType::kByzEquivocate) {
      byzantine_.insert({action.site_a, action.node_index});
    }
    ApplyFault(&deployment_, action);
  }

  bool IsByzantine(net::SiteId site, int index) const {
    return byzantine_.count({site, index}) > 0;
  }

  // --- workload ---------------------------------------------------------------

  void ScheduleWorkload() {
    // Submissions arrive in bursts of `participant_window` ops so the
    // pipelined window actually fills: this is what lets a byzantine
    // geo-reordering leader commit later positions around a censored one
    // (and lets the quarantine defense see a real gap). Bursts are spread
    // over (0, horizon) and staggered per site.
    int burst = static_cast<int>(
        std::max<uint64_t>(1, cfg_.participant_window));
    for (net::SiteId site = 0; site < cfg_.num_sites; ++site) {
      std::vector<WorkItem> items;
      int commits = cfg_.ops_per_site;
      int sends = cfg_.sends_per_site;
      int total = commits + sends;
      int num_bursts = (total + burst - 1) / burst;
      int commit_idx = 0;
      int send_idx = 0;
      for (int k = 0; k < total; ++k) {
        WorkItem item;
        item.at = (static_cast<sim::SimTime>(k / burst) + 1) * cfg_.horizon /
                      (static_cast<sim::SimTime>(num_bursts) + 1) +
                  sim::Microseconds(10) * (k % burst) +
                  sim::Milliseconds(1) * site;
        bool want_send = sends > 0 && (commit_idx >= commits || k % 3 == 2);
        if (want_send) {
          item.is_send = true;
          item.dest = static_cast<net::SiteId>(
              (site + 1 + send_idx % (cfg_.num_sites - 1)) % cfg_.num_sites);
          item.payload = ToBytes("send-" + std::to_string(site) + "-" +
                                 std::to_string(send_idx));
          ++send_idx;
          --sends;
        } else {
          item.payload = ToBytes("op-" + std::to_string(site) + "-" +
                                 std::to_string(commit_idx));
          ++commit_idx;
        }
        items.push_back(std::move(item));
      }
      auto& state = sites_[site];
      state.total = total;
      state.fired.assign(total, 0);
      expected_completions_ += total;
      for (int k = 0; k < total; ++k) {
        const WorkItem& item = items[k];
        sim_.ScheduleAt(item.at, [this, site, k, item]() {
          Submit(site, k, item);
        });
      }
    }
  }

  void Submit(net::SiteId site, int order, const WorkItem& item) {
    core::Participant* p = deployment_.participant(site);
    auto done = [this, site, order](uint64_t pos) {
      OnCompleted(site, order, pos);
    };
    if (item.is_send) {
      p->Send(item.dest, item.payload, /*routine_id=*/0, done);
    } else {
      // The first `reads_per_site` log-commits are read back with a quorum
      // read once durable (byzantine templates; the forged-reply node must
      // not be able to poison the result).
      bool read_back = reads_started_[site] < cfg_.reads_per_site;
      if (read_back) ++reads_started_[site];
      core::Participant::CommitCallback commit_done = done;
      if (read_back) {
        Bytes payload = item.payload;
        commit_done = [this, site, order, payload](uint64_t pos) {
          OnCompleted(site, order, pos);
          IssueRead(site, pos, payload);
        };
      }
      p->LogCommit(item.payload, /*routine_id=*/0, std::move(commit_done));
    }
  }

  void OnCompleted(net::SiteId site, int order, uint64_t pos) {
    SiteState& state = sites_[site];
    if (state.fired[order]) {
      std::ostringstream os;
      os << "site " << site << " op " << order
         << " completion fired twice (pos " << pos << ")";
      Fail("completion-order", os.str());
      return;
    }
    state.fired[order] = 1;
    // The submission-order guarantee belongs to the participant's windowed
    // path (DESIGN.md §9), which fg == 0 deployments bypass: there the unit
    // leader orders concurrent requests, and a crash mid-request can
    // legitimately reorder completions. Exactly-once holds regardless.
    if (cfg_.fg > 0 && order != state.next_expected) {
      std::ostringstream os;
      os << "site " << site << " op " << order << " completed before op "
         << state.next_expected << " (submission order violated)";
      Fail("completion-order", os.str());
    }
    state.next_expected = std::max(state.next_expected, order + 1);
    ++completions_;
  }

  void IssueRead(net::SiteId site, uint64_t pos, const Bytes& expect) {
    deployment_.participant(site)->Read(
        pos, core::ReadStrategy::kReadQuorum,
        [this, site, pos, expect](Status status, core::LogRecord record) {
          ++reads_done_;
          if (!status.ok()) {
            std::ostringstream os;
            os << "site " << site << " quorum read of pos " << pos
               << " failed: " << status.ToString();
            Fail("read", os.str());
            return;
          }
          if (record.payload != expect) {
            std::ostringstream os;
            os << "site " << site << " quorum read of pos " << pos
               << " returned a corrupted payload";
            Fail("read", os.str());
            return;
          }
          ++reads_ok_;
        });
  }

  // --- invariants -------------------------------------------------------------

  /// I1: pairwise agreement on the log positions both nodes still hold +
  /// equal digest chains at equal heights, for every honest unit node and
  /// every mirror node.
  void CheckLogAgreement() {
    for (net::SiteId site = 0; site < cfg_.num_sites; ++site) {
      std::vector<core::BlockplaneNode*> honest;
      for (int i = 0; i < 3 * cfg_.fi + 1; ++i) {
        if (!IsByzantine(site, i)) honest.push_back(deployment_.node(site, i));
      }
      CompareGroup(honest, "unit " + std::to_string(site));
    }
    if (cfg_.fg == 0) return;
    for (net::SiteId origin = 0; origin < cfg_.num_sites; ++origin) {
      for (net::SiteId host : deployment_.mirror_sites_of(origin)) {
        std::vector<core::BlockplaneNode*> group;
        for (int i = 0; i < 3 * cfg_.fi + 1; ++i) {
          group.push_back(deployment_.mirror_node(host, origin, i));
        }
        CompareGroup(group, "mirror " + std::to_string(host) + "<-" +
                                std::to_string(origin));
      }
    }
  }

  void CompareGroup(const std::vector<core::BlockplaneNode*>& nodes,
                    const std::string& label) {
    if (nodes.size() < 2) return;
    core::BlockplaneNode* ref = nodes[0];
    for (size_t n = 1; n < nodes.size(); ++n) {
      core::BlockplaneNode* other = nodes[n];
      uint64_t common = std::min(ref->applied_high(), other->applied_high());
      // A unit node serves nothing at or below its horizon (DESIGN.md §10,
      // retention); nodes move theirs at their own stable checkpoints.
      uint64_t held_from = std::max(ref->horizon(), other->horizon()) + 1;
      for (uint64_t pos = held_from; pos <= common; ++pos) {
        auto a = ref->log().find(pos);
        auto b = other->log().find(pos);
        if (a == ref->log().end() && b == other->log().end()) continue;
        bool diverged =
            (a == ref->log().end()) != (b == other->log().end()) ||
            (a != ref->log().end() && a->second.Encode() != b->second.Encode());
        if (diverged) {
          std::ostringstream os;
          os << label << ": node " << other->self().ToString()
             << " diverges from " << ref->self().ToString() << " at log pos "
             << pos;
          Fail("log-agreement", os.str());
          break;
        }
      }
      if (ref->applied_high() == other->applied_high() &&
          ref->chain_digest() != other->chain_digest()) {
        std::ostringstream os;
        os << label << ": nodes " << ref->self().ToString() << " and "
           << other->self().ToString() << " applied " << common
           << " values but hold different digest chains";
        Fail("log-agreement", os.str());
      }
    }
  }

  /// I3: every mirror node holds the geo positions from just above its
  /// base or horizon up to its mirror high with no holes, and no honest
  /// unit node ends the run with quarantined API records.
  void CheckMirrorContiguity() {
    for (net::SiteId site = 0; site < cfg_.num_sites; ++site) {
      for (int i = 0; i < 3 * cfg_.fi + 1; ++i) {
        if (IsByzantine(site, i)) continue;
        core::BlockplaneNode* node = deployment_.node(site, i);
        if (node->quarantined_api_records() != 0) {
          std::ostringstream os;
          os << "unit node " << node->self().ToString() << " ended with "
             << node->quarantined_api_records()
             << " quarantined API records (geo gap never filled)";
          Fail("mirror-contiguity", os.str());
        }
      }
    }
    if (cfg_.fg == 0) return;
    for (net::SiteId origin = 0; origin < cfg_.num_sites; ++origin) {
      for (net::SiteId host : deployment_.mirror_sites_of(origin)) {
        for (int i = 0; i < 3 * cfg_.fi + 1; ++i) {
          core::BlockplaneNode* node = deployment_.mirror_node(host, origin, i);
          const uint64_t low = node->mirror_horizon();
          const uint64_t high = node->mirror_high();
          std::set<uint64_t> positions;
          for (const auto& [pos, record] : node->log()) {
            if (record.type == core::RecordType::kMirrored &&
                record.geo_pos > low) {
              positions.insert(record.geo_pos);
            }
          }
          // Distinct positions above `low`: as many as the span and the
          // highest at `high` means every one of them.
          const bool contiguous =
              low <= high && positions.size() == high - low &&
              (positions.empty() || *positions.rbegin() == high);
          if (!contiguous) {
            std::ostringstream os;
            os << "mirror node " << node->self().ToString() << " (origin "
               << origin << ") holds " << positions.size()
               << " mirrored entries above position " << low
               << " but high position " << high << " (stream has holes)";
            Fail("mirror-contiguity", os.str());
          }
        }
      }
    }
  }

  /// Snapshots the per-controller "congestion.<label>" gauge groups while
  /// the deployment is still alive (controllers unregister on teardown)
  /// plus the process-wide aggregates.
  void CollectCongestion() {
    const CongestionStats& cs = congestion_stats();
    report_.congestion_loss_events = cs.loss_events;
    report_.congestion_decreases = cs.decreases;
    bool any = false;
    for (const auto& [group, counters] : metrics_registry().Snapshot()) {
      if (group.rfind("congestion.", 0) != 0) continue;
      auto window = counters.find("window");
      auto min_seen = counters.find("min_window_seen");
      if (window == counters.end() || min_seen == counters.end()) continue;
      if (!any) {
        any = true;
        report_.window_final_min = window->second;
        report_.window_final_max = window->second;
        report_.window_min_seen = min_seen->second;
      } else {
        report_.window_final_min =
            std::min(report_.window_final_min, window->second);
        report_.window_final_max =
            std::max(report_.window_final_max, window->second);
        report_.window_min_seen =
            std::min(report_.window_min_seen, min_seen->second);
      }
    }
  }

  const Campaign& campaign_;
  const CampaignConfig& cfg_;
  sim::Simulator sim_;
  core::Deployment deployment_;
  ChaosReport report_;

  struct SiteState {
    int total = 0;
    int next_expected = 0;
    std::vector<uint8_t> fired;
  };
  std::map<net::SiteId, SiteState> sites_;
  std::map<net::SiteId, int> reads_started_;
  std::set<std::pair<net::SiteId, int>> byzantine_;
  int expected_completions_ = 0;
  int completions_ = 0;
  int reads_done_ = 0;
  int reads_ok_ = 0;
};

}  // namespace

void ApplyFault(core::Deployment* deployment, const FaultAction& action) {
  net::Network* net = deployment->network();
  auto node = [&]() {
    return deployment->node(action.site_a, action.node_index);
  };
  switch (action.type) {
    case FaultType::kCrashNode:
      net->Crash({action.site_a, action.node_index});
      break;
    case FaultType::kRecoverNode:
      net->Recover({action.site_a, action.node_index});
      node()->Recover();
      break;
    case FaultType::kCrashSite:
      net->CrashSite(action.site_a);
      break;
    case FaultType::kRecoverSite: {
      net->RecoverSite(action.site_a);
      // The site's unit and the mirror groups it hosts for other origins
      // all went down with it, and all need catch-up (§VI-B).
      const int group_size = 3 * deployment->options().fi + 1;
      for (int i = 0; i < group_size; ++i) {
        deployment->node(action.site_a, i)->Recover();
      }
      for (net::SiteId origin = 0; origin < deployment->num_sites();
           ++origin) {
        const auto& hosts = deployment->mirror_sites_of(origin);
        if (std::find(hosts.begin(), hosts.end(), action.site_a) ==
            hosts.end()) {
          continue;
        }
        for (int i = 0; i < group_size; ++i) {
          deployment->mirror_node(action.site_a, origin, i)->Recover();
        }
      }
      break;
    }
    case FaultType::kPartition:
      net->PartitionSites(action.site_a, action.site_b);
      break;
    case FaultType::kHeal:
      net->HealPartition(action.site_a, action.site_b);
      break;
    case FaultType::kPartitionOneWay:
      net->PartitionOneWay(action.site_a, action.site_b);
      break;
    case FaultType::kHealOneWay:
      net->HealOneWay(action.site_a, action.site_b);
      break;
    case FaultType::kDropBurst:
      net->set_drop_prob(action.probability);
      net->simulator()->Schedule(action.duration,
                                 [net]() { net->set_drop_prob(0.0); });
      break;
    case FaultType::kCorruptBurst:
      net->set_corrupt_prob(action.probability);
      net->simulator()->Schedule(action.duration,
                                 [net]() { net->set_corrupt_prob(0.0); });
      break;
    case FaultType::kDuplicateBurst:
      net->set_duplicate_prob(action.probability);
      net->simulator()->Schedule(action.duration,
                                 [net]() { net->set_duplicate_prob(0.0); });
      break;
    case FaultType::kHealAll:
      net->HealAll();
      break;
    case FaultType::kByzEquivocate:
      node()->SetByzantineMode(pbft::ByzantineMode::kEquivocate);
      break;
    case FaultType::kByzSilent:
      node()->SetByzantineMode(pbft::ByzantineMode::kSilent);
      node()->MuteDaemons();
      break;
    case FaultType::kByzBogusVotes:
      node()->SetByzantineMode(pbft::ByzantineMode::kBogusVotes);
      break;
    case FaultType::kByzWithholdAttest:
      node()->RefuseAttestations();
      break;
    case FaultType::kByzForgeReads:
      // Forged bytes under the honest digest: the lie that gets past the
      // digest vote and only the body check stops.
      node()->LieOnReads(core::ReadLie::kForgedBody);
      break;
    case FaultType::kByzReorderGeo:
      node()->SetByzantineMode(pbft::ByzantineMode::kReorderGeo);
      break;
  }
}

std::string ChaosReport::ToString() const {
  std::ostringstream os;
  os << (ok ? "OK" : "FAIL") << ": " << completions << "/"
     << expected_completions << " completions";
  if (expected_reads > 0) {
    os << ", " << reads_ok << "/" << expected_reads << " quorum reads";
  }
  os << ", finished at " << sim::ToMillis(finished_at) << " ms, "
     << events_processed << " events";
  for (const InvariantFailure& f : failures) {
    os << "\n  [" << f.invariant << "] " << f.detail;
  }
  return os.str();
}

ChaosReport RunCampaign(const Campaign& campaign) {
  // The congestion aggregates are process-wide; reset so the report's
  // numbers are attributable to this campaign alone (controllers are
  // created during Deployment construction, hence before Engine::Run).
  congestion_stats().Reset();
  Engine engine(campaign);
  return engine.Run();
}

}  // namespace blockplane::chaos
