// End-to-end benchmark of a Blockplane deployment (see README.md here).
//
// One workload per process. A seeded open-loop schedule — Poisson arrivals
// in simulated time — drives log-commits, cross-site sends, or reads and
// writes against a core::Deployment on the paper's Table-I topology. The
// program receives only the generated ops; every op's latency runs in
// simulated time from its due time to its completion, so a stall also
// charges the ops queued behind it. Throughput, set-up time and memory are
// wall-clock.
//
// With --traced the same schedule runs twice: once plain, to time it, and
// once with a timing net::Host wrapper around every unit node, mirror node
// and participant plus the Tracer, to split wall time and simulated time
// into layers. Nothing in src/ is instrumented for this.
//
//   bench_e2e --workload=geo_commit --seed=1 [--seconds=10] [--smoke]
//             [--traced --trace-file=PATH]
//
// Prints one JSON object on stdout. Exit status: 0 ok, 1 a correctness
// violation, 2 bad usage, 3 a run guard tripped (drain deadline, event
// budget or RSS ceiling); partial metrics are still printed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/deployment.h"
#include "pbft/message.h"
#include "sim/random.h"
#include "sim/simulator.h"

#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif
#ifndef BENCH_COMPILER
#define BENCH_COMPILER "unknown"
#endif

namespace blockplane::e2e {
namespace {

using WallClock = std::chrono::steady_clock;

double WallSeconds(WallClock::duration d) {
  return std::chrono::duration<double>(d).count();
}

int64_t WallNanos(WallClock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// Simulated warm-up before the measured phase: lets the pipelines fill and
/// the verify-once caches warm, which every long-running deployment has.
constexpr sim::SimTime kWarmup = sim::Seconds(2);
/// Run guard: ops still open this long after the last arrival count as
/// failed.
constexpr sim::SimTime kDrainGrace = sim::Seconds(30);
/// Idle time after the last completion before the replicas' logs are
/// compared, so every replica has applied what its quorum committed.
constexpr sim::SimTime kQuiesce = sim::Milliseconds(500);
/// Granularity of the run-guard checks.
constexpr sim::SimTime kGuardChunk = sim::Milliseconds(50);
/// Run guard: resident memory at which the run gives up (4 GB).
constexpr int64_t kRssCeilingKb = int64_t{4} << 20;
/// Run guard: the event budget is this many times the events the workload
/// needs when it runs clean (WorkloadSpec::events_per_op).
constexpr uint64_t kEventBudgetFactor = 10;
/// Reads target one of this many most recently committed writes.
constexpr size_t kReadWindow = 256;
/// Completions per wall-clock stretch of the measured phase.
constexpr size_t kSegmentOps = 500;
/// ReferenceRate() of a quiet run on the 4-core host the benchmark was
/// defined on. norm_ops_s and setup_s are rescaled to a host this fast.
constexpr double kNominalReferenceRate = 4.0e6;
/// Deployments built and warmed per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// The traced run writes handler spans for the first this-many ops.
constexpr size_t kSpanOps = 2000;
/// Capacity search: log-space bisection over [lo, hi] ops/s.
constexpr double kCapacityLo = 50;
constexpr double kCapacityHi = 2000;
constexpr int kCapacityProbes = 7;
constexpr sim::SimTime kProbeWindow = sim::Seconds(5);

enum class OpKind : uint8_t { kCommit, kSend, kWrite, kRead };

/// One workload. Why each exists is in README.md.
struct WorkloadSpec {
  const char* name;
  /// kCommit, kSend, or kWrite (writes mixed with reads_per_write reads).
  OpKind kind;
  net::SiteId origin;
  net::SiteId dest;  // kSend only
  int fg;
  size_t record_bytes;
  /// Offered load, ops per simulated second.
  double rate;
  /// Arrival window in simulated seconds per --seconds: the measured
  /// phase then takes roughly --seconds of wall time on a 4-core host.
  int sim_per_second;
  int reads_per_write;
  /// Crash the origin's node 0 (view-0 leader, active daemon) a third into
  /// the arrival window and recover it at two thirds.
  bool crash_leader;
  /// p99 latency limit for the capacity search; 0 skips the search.
  double slo_ms;
  /// Simulator events per op when the workload runs clean (measured at
  /// seed 1), the base of the event budget.
  uint64_t events_per_op;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"geo_commit", OpKind::kCommit, net::kCalifornia, -1, 1, 1024, 150, 8, 0,
     false, 60, 220},
    {"xsite_send", OpKind::kSend, net::kCalifornia, net::kIreland, 0, 1024,
     150, 8, 0, false, 200, 150},
    {"local_rw", OpKind::kWrite, net::kVirginia, -1, 0, 32 * 1024, 200, 4, 3,
     false, 0, 30},
    {"send_faults", OpKind::kSend, net::kCalifornia, net::kIreland, 0, 1024,
     150, 6, 0, true, 0, 160},
};

// --- ops and payloads --------------------------------------------------------

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The bytes of op `id`: its id in the first 8 bytes, then seeded filler,
/// so a receiver can tell which op a payload belongs to and check it.
Bytes OpPayload(uint64_t seed, uint64_t id, size_t size) {
  Bytes bytes(std::max<size_t>(size, 8));
  for (int b = 0; b < 8; ++b) bytes[b] = static_cast<uint8_t>(id >> (8 * b));
  uint64_t x = Mix(seed ^ Mix(id)) | 1;
  for (size_t i = 8; i < bytes.size(); i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(&bytes[i], &x, std::min<size_t>(8, bytes.size() - i));
  }
  return bytes;
}

uint64_t PayloadId(const Bytes& payload) {
  uint64_t id = 0;
  for (int b = 0; b < 8 && b < static_cast<int>(payload.size()); ++b) {
    id |= static_cast<uint64_t>(payload[b]) << (8 * b);
  }
  return id;
}

/// Ids of the writes that fill the log before a read workload starts; they
/// sit above every schedule index.
constexpr uint64_t kPrefillIdBase = uint64_t{1} << 40;

struct Op {
  sim::SimTime due = 0;
  OpKind kind = OpKind::kCommit;
  bool measured = false;
  /// kRead: which recent write, counted back from the newest.
  uint32_t read_back = 0;
  /// Log position reported by the commit or send callback (0 = none yet).
  uint64_t pos = 0;
  sim::SimTime done_at = -1;
  bool error = false;
};

/// Times a fixed amount of work shaped like the event loop's: lookups in an
/// ordered map of about 1 MB, a heap, closures and buffer fills. It is
/// written here, so no change to the library alters it, and it allocates
/// nothing after construction, so the heap the workload leaves behind does
/// not alter it either. Other tenants of the host slow it down as they slow
/// the workload.
class ReferenceLoop {
 public:
  ReferenceLoop() : buf_(512) {
    uint64_t x = 0;
    for (size_t i = 0; i < kMapSize; ++i) map_[x = Mix(x)] = i;
    heap_.reserve(2 * kHeapSize);
  }
  BP_DISALLOW_COPY_AND_ASSIGN(ReferenceLoop);

  /// Units per wall second: the host's speed at this moment.
  double Rate() {
    constexpr int kUnits = 20000;
    heap_.clear();
    uint64_t x = 88172645463325252ULL;
    uint64_t sink = 0;
    WallClock::time_point begin = WallClock::now();
    for (int i = 0; i < kUnits; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      auto it = map_.lower_bound(x);
      if (it == map_.end()) it = map_.begin();
      it->second += static_cast<uint64_t>(i);
      heap_.push_back(x);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      if (heap_.size() > kHeapSize) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        sink += heap_.back();
        heap_.pop_back();
      }
      std::function<void()> fn = [&sink, x] { sink += x; };
      fn();
      std::memset(buf_.data(), static_cast<int>(x & 0xff), buf_.size());
      sink += buf_[x % buf_.size()];
    }
    const double seconds = WallSeconds(WallClock::now() - begin);
    // Keeps the loop observable so it cannot be optimised away.
    if (sink == 0) std::fprintf(stderr, "reference loop sink is 0\n");
    return kUnits / seconds;
  }

 private:
  static constexpr size_t kMapSize = size_t{1} << 14;
  static constexpr size_t kHeapSize = 512;
  std::map<uint64_t, uint64_t> map_;
  std::vector<uint64_t> heap_;
  Bytes buf_;
};

double ReferenceRate() {
  static ReferenceLoop loop;
  return loop.Rate();
}

int64_t PeakRssKb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// --- timing wrapper (--traced) -------------------------------------------------

enum HostKind : int { kUnitHost = 0, kMirrorHost = 1, kParticipantHost = 2 };
constexpr int kHostKinds = 3;

/// Handler slots: PBFT types 101..112, core types 201..217, anything else.
constexpr int kPbftSlots = 12;
constexpr int kCoreSlots = 17;
constexpr int kSlots = kPbftSlots + kCoreSlots + 1;

int SlotOf(net::MessageType type) {
  if (type >= pbft::kRequest && type <= pbft::kSnapshot) {
    return static_cast<int>(type - pbft::kRequest);
  }
  if (type >= core::kTransmission && type <= core::kGeoGapNotice) {
    return kPbftSlots + static_cast<int>(type - core::kTransmission);
  }
  return kSlots - 1;
}

const char* SlotName(int slot) {
  static const char* const kNames[kSlots] = {
      "request",          "pre_prepare",       "prepare",
      "commit",           "reply",             "checkpoint",
      "view_change",      "new_view",          "fetch_committed",
      "committed_entry",  "fetch_snapshot",    "snapshot",
      "transmission",     "transmission_ack",  "attest_request",
      "attest_response",  "deliver_notice",    "recv_status_query",
      "recv_status_reply", "geo_replicate",    "geo_ack",
      "geo_proof_bundle", "read_request",      "read_reply",
      "mirror_fetch",     "mirror_entry",      "log_sync_request",
      "log_sync_reply",   "geo_gap_notice",    "other"};
  return kNames[slot];
}

bool IsPbftSlot(int slot) { return slot < kPbftSlots; }

struct HandlerStat {
  int64_t count = 0;
  int64_t ns = 0;
};

/// One timed HandleMessage call, for the span file.
struct Span {
  int16_t kind = 0;
  int16_t slot = 0;
  int32_t site = 0;
  int32_t index = 0;
  int64_t wall_begin_ns = 0;  // since the measured phase started
  int64_t wall_end_ns = 0;
  sim::SimTime sim_ns = 0;
  uint64_t parent = 0;  // the op's trace id; 0 for untraced traffic
};

/// Wall time spent in message handlers, by host kind and message type.
struct LayerClock {
  HandlerStat stats[kHostKinds][kSlots];
  std::vector<Span> spans;
  WallClock::time_point origin;
  /// Spans are kept for messages handled before this simulated time (the
  /// due time of the (kSpanOps+1)-th measured op).
  sim::SimTime span_until = 0;

  int64_t TotalNs() const {
    int64_t total = 0;
    for (const auto& kind : stats) {
      for (const HandlerStat& s : kind) total += s.ns;
    }
    return total;
  }
};

class TimedHost : public net::Host {
 public:
  TimedHost(net::Host* inner, HostKind kind, net::NodeId id,
            const sim::Simulator* simulator, LayerClock* clock)
      : inner_(inner), kind_(kind), id_(id), sim_(simulator), clock_(clock) {}

  void HandleMessage(const net::Message& msg) override {
    WallClock::time_point begin = WallClock::now();
    inner_->HandleMessage(msg);
    WallClock::time_point end = WallClock::now();
    int slot = SlotOf(msg.type);
    HandlerStat& stat = clock_->stats[kind_][slot];
    ++stat.count;
    stat.ns += WallNanos(end - begin);
    if (sim_->Now() < clock_->span_until) {
      Span span;
      span.kind = static_cast<int16_t>(kind_);
      span.slot = static_cast<int16_t>(slot);
      span.site = id_.site;
      span.index = id_.index;
      span.wall_begin_ns = WallNanos(begin - clock_->origin);
      span.wall_end_ns = WallNanos(end - clock_->origin);
      span.sim_ns = sim_->Now();
      span.parent = msg.trace_id;
      clock_->spans.push_back(span);
    }
  }

 private:
  net::Host* inner_;
  HostKind kind_;
  net::NodeId id_;
  const sim::Simulator* sim_;
  LayerClock* clock_;
};

// --- one deployment driven by one schedule -------------------------------------

/// What one measured phase did.
struct Outcome {
  /// Wall time of the measured phase, reference loops excluded.
  double wall_s = 0;
  /// Ops completed per wall second over consecutive stretches of
  /// kSegmentOps completions, and ReferenceRate() right after each.
  std::vector<double> segment_rates;
  std::vector<double> reference_rates;
  uint64_t events = 0;
  /// Which run guard tripped, or empty.
  std::string guard;
  /// Capacity probe only: 1% of its ops missed the latency limit.
  bool aborted = false;
};

class Harness {
 public:
  /// `window` is the measured arrival window, after `warmup`.
  Harness(const WorkloadSpec& w, uint64_t seed, double rate,
          sim::SimTime warmup, sim::SimTime window, bool per_type_wan)
      : w_(w),
        seed_(seed),
        rate_(rate),
        warmup_(warmup),
        window_(window),
        sim_(seed),
        deployment_(&sim_, net::Topology::Aws4(), Options(w),
                    NetOptions(per_type_wan)),
        origin_(deployment_.participant(w.origin)) {
    if (w.kind == OpKind::kSend) {
      deployment_.participant(w.dest)->SetReceiveHandler(
          [this](net::SiteId src, const Bytes& payload) {
            OnReceive(src, payload);
          });
    }
  }
  BP_DISALLOW_COPY_AND_ASSIGN(Harness);

  /// Fills the log (read workloads), generates the schedule and runs the
  /// warm-up arrivals.
  void Setup() {
    if (w_.kind == OpKind::kWrite) Prefill();
    start_ = sim_.Now();
    MakeSchedule();
    if (!ops_.empty()) ScheduleIssue(0);
    if (w_.crash_leader) ScheduleCrash();
    sim_.RunUntil(start_ + warmup_);
  }

  /// Wraps every unit node, mirror node and participant in a TimedHost.
  void Instrument(LayerClock* clock) {
    net::Network* network = deployment_.network();
    auto wrap = [&](net::Host* host, HostKind kind, net::NodeId id) {
      wrappers_.push_back(
          std::make_unique<TimedHost>(host, kind, id, &sim_, clock));
      network->Register(id, wrappers_.back().get());
    };
    for (const std::vector<core::BlockplaneNode*>& group : Groups()) {
      for (core::BlockplaneNode* node : group) {
        wrap(node, node->is_mirror() ? kMirrorHost : kUnitHost, node->self());
      }
    }
    for (net::SiteId site = 0; site < deployment_.num_sites(); ++site) {
      wrap(deployment_.participant(site), kParticipantHost,
           core::ParticipantNodeId(site));
    }
    size_t measured = 0;
    clock->span_until = sim::kSimTimeMax;
    for (const Op& op : ops_) {
      if (op.measured && ++measured > kSpanOps) {
        clock->span_until = op.due;
        break;
      }
    }
  }

  /// Runs until every op completed, a run guard trips, or (with
  /// `abort_slo_ms` > 0) 1% of the ops missed that latency limit.
  Outcome Measure(double abort_slo_ms) {
    Outcome out;
    slo_ns_ = static_cast<sim::SimTime>(abort_slo_ms * 1e6);
    const size_t miss_limit =
        abort_slo_ms > 0
            ? std::max<size_t>(1, (ops_.size() + 99) / 100)
            : 0;
    const sim::SimTime deadline = start_ + warmup_ + window_ + kDrainGrace;
    const uint64_t events0 = sim_.processed_events();
    const uint64_t budget = kEventBudgetFactor * w_.events_per_op *
                            std::max<uint64_t>(ops_.size(), 1000);
    auto all_done = [this] { return completed_ == ops_.size(); };
    WallClock::time_point wall0 = WallClock::now();
    double reference_s = 0;
    WallClock::time_point segment_wall = wall0;
    size_t segment_done = completed_;
    while (!all_done()) {
      if (sim_.Now() >= deadline) {
        out.guard = "drain deadline";
        break;
      }
      sim::SimTime until = std::min(sim_.Now() + kGuardChunk, deadline);
      if (!sim_.RunUntilCondition(all_done, until)) sim_.RunUntil(until);
      if (completed_ - segment_done >= kSegmentOps) {
        WallClock::time_point now = WallClock::now();
        out.segment_rates.push_back(
            static_cast<double>(completed_ - segment_done) /
            WallSeconds(now - segment_wall));
        out.reference_rates.push_back(ReferenceRate());
        segment_wall = WallClock::now();
        reference_s += WallSeconds(segment_wall - now);
        segment_done = completed_;
      }
      if (sim_.processed_events() - events0 > budget) {
        out.guard = "event budget";
        break;
      }
      if (PeakRssKb() > kRssCeilingKb) {
        out.guard = "rss ceiling";
        break;
      }
      if (miss_limit > 0 && slo_misses_ + Overdue() >= miss_limit) {
        out.aborted = true;
        break;
      }
    }
    out.wall_s = WallSeconds(WallClock::now() - wall0) - reference_s;
    out.events = sim_.processed_events() - events0;
    return out;
  }

  /// Lets the deployment go idle, then requires sends to have arrived in
  /// source-log order and the replicas of every unit and mirror group to
  /// have applied the same log.
  void CheckFinalState() {
    sim_.RunFor(kQuiesce);
    // Concurrent sends are ordered by the unit's leader, and a view change
    // may order them differently from their submission, so "in order"
    // means in the order of their communication records in the source log.
    uint64_t last_pos = 0;
    for (size_t id : deliveries_) {
      const uint64_t pos = ops_[id].pos;
      if (pos == 0) {
        Violation("op " + std::to_string(id) +
                  " delivered but never committed at its source");
      } else if (pos <= last_pos) {
        Violation("op " + std::to_string(id) + " at source position " +
                  std::to_string(pos) + " delivered after position " +
                  std::to_string(last_pos));
      }
      last_pos = std::max(last_pos, pos);
    }
    for (const std::vector<core::BlockplaneNode*>& group : Groups()) {
      CheckGroup(group);
    }
  }

  /// Nearest-rank latency percentiles over the measured ops that completed.
  Histogram MeasuredLatencyMs() const {
    Histogram h;
    for (const Op& op : ops_) {
      if (op.measured && op.done_at >= 0 && !op.error) {
        h.Add(sim::ToMillis(op.done_at - op.due));
      }
    }
    return h;
  }

  size_t measured_attempted() const {
    size_t n = 0;
    for (const Op& op : ops_) n += op.measured ? 1 : 0;
    return n;
  }
  /// Measured ops not completed, or completed with an error status.
  size_t measured_failed() const {
    size_t n = 0;
    for (const Op& op : ops_) {
      n += op.measured && (op.done_at < 0 || op.error) ? 1 : 0;
    }
    return n;
  }
  size_t errors() const {
    size_t n = 0;
    for (const Op& op : ops_) n += op.error ? 1 : 0;
    return n;
  }

  /// Longest gap between completions, from the last one before the crash
  /// on.
  double OutageMs() const {
    std::vector<sim::SimTime> done;
    for (const Op& op : ops_) {
      if (op.done_at >= 0) done.push_back(op.done_at);
    }
    std::sort(done.begin(), done.end());
    auto first = std::upper_bound(done.begin(), done.end(), crash_at_);
    if (first != done.begin()) --first;
    sim::SimTime gap = 0;
    for (auto it = first; it != done.end() && std::next(it) != done.end();
         ++it) {
      gap = std::max(gap, *std::next(it) - *it);
    }
    return sim::ToMillis(gap);
  }

  sim::SimTime generator_late_ns() const { return late_max_; }
  uint64_t recovered_lag() const { return recovered_lag_; }
  const std::vector<std::string>& violations() const { return violations_; }
  size_t violation_count() const { return violation_count_; }

 private:
  static core::BlockplaneOptions Options(const WorkloadSpec& w) {
    // Shipped defaults (real crypto, qc and adaptive windows off, no log
    // pruning) except f_i = 1, pipelining at 8 and the workload's f_g: a
    // later change to a default then shows up as a benchmark delta.
    core::BlockplaneOptions options;
    options.fi = 1;
    options.fg = w.fg;
    options.pbft_window = 8;
    options.participant_window = 8;
    return options;
  }

  static net::NetworkOptions NetOptions(bool per_type_wan) {
    net::NetworkOptions options;
    options.per_type_wan_counters = per_type_wan;
    return options;
  }

  /// Every PBFT group: each site's unit, then the mirror groups of its log.
  std::vector<std::vector<core::BlockplaneNode*>> Groups() {
    std::vector<std::vector<core::BlockplaneNode*>> groups;
    const int unit_size = 3 * deployment_.options().fi + 1;
    for (net::SiteId site = 0; site < deployment_.num_sites(); ++site) {
      groups.emplace_back();
      for (int i = 0; i < unit_size; ++i) {
        groups.back().push_back(deployment_.node(site, i));
      }
      for (net::SiteId host : deployment_.mirror_sites_of(site)) {
        groups.emplace_back();
        for (int i = 0; i < unit_size; ++i) {
          groups.back().push_back(deployment_.mirror_node(host, site, i));
        }
      }
    }
    return groups;
  }

  void Violation(std::string what) {
    if (violations_.size() < 20) violations_.push_back(std::move(what));
    ++violation_count_;
  }

  void MakeSchedule() {
    uint64_t name_hash = 0xcbf29ce484222325ULL;  // FNV-1a: portable
    for (const char* c = w_.name; *c != '\0'; ++c) {
      name_hash = (name_hash ^ static_cast<uint8_t>(*c)) * 0x100000001b3ULL;
    }
    sim::Rng rng(Mix(seed_) ^ Mix(name_hash));
    const double end_s = sim::ToSeconds(warmup_ + window_);
    double t = 0;
    for (uint64_t n = 0;; ++n) {
      t += -std::log(1.0 - rng.NextDouble()) / rate_;
      if (t >= end_s) break;
      Op op;
      op.due = start_ + static_cast<sim::SimTime>(t * 1e9);
      op.measured = op.due >= start_ + warmup_;
      op.kind = w_.kind;
      if (w_.kind == OpKind::kWrite &&
          n % static_cast<uint64_t>(1 + w_.reads_per_write) != 0) {
        op.kind = OpKind::kRead;
      }
      op.read_back = static_cast<uint32_t>(rng.NextBelow(kReadWindow));
      ops_.push_back(op);
    }
  }

  /// The log holds kReadWindow committed writes before the schedule
  /// starts, so every read has a full window of targets.
  void Prefill() {
    prefill_open_ = kReadWindow;
    for (size_t k = 0; k < kReadWindow; ++k) {
      Bytes payload = OpPayload(seed_, kPrefillIdBase + k, w_.record_bytes);
      auto kept = std::make_shared<const Bytes>(payload);
      origin_->LogCommit(std::move(payload), 0, [this, kept](uint64_t pos) {
        OnCommitted(pos);
        RememberWrite(pos, kept);
        --prefill_open_;
      });
    }
    sim_.RunUntilCondition([this] { return prefill_open_ == 0; },
                           sim_.Now() + kDrainGrace);
    if (prefill_open_ != 0) Violation("prefill writes did not commit");
  }

  void ScheduleCrash() {
    core::BlockplaneNode* leader = deployment_.node(w_.origin, 0);
    crashed_ = leader;
    crash_at_ = start_ + warmup_ + window_ / 3;
    sim_.ScheduleAt(crash_at_, [this, leader] {
      deployment_.network()->Crash(leader->self());
    });
    sim_.ScheduleAt(start_ + warmup_ + 2 * window_ / 3, [this, leader] {
      deployment_.network()->Recover(leader->self());
      leader->Recover();
    });
  }

  void ScheduleIssue(size_t i) {
    sim_.ScheduleAt(ops_[i].due, [this, i] { Issue(i); });
  }

  void Issue(size_t i) {
    const Op& op = ops_[i];
    // Arrivals are simulator events at their due time, so the generator can
    // never fall behind; a late arrival would hide queueing from latency.
    if (sim_.Now() != op.due) {
      late_max_ = std::max(late_max_, sim_.Now() - op.due);
      Violation("generator late for op " + std::to_string(i));
    }
    if (i + 1 < ops_.size()) ScheduleIssue(i + 1);
    switch (op.kind) {
      case OpKind::kCommit:
        origin_->LogCommit(OpPayload(seed_, i, w_.record_bytes), 0,
                           [this, i](uint64_t pos) {
                             OnCommitted(pos);
                             ops_[i].pos = pos;
                             Complete(i);
                           });
        break;
      case OpKind::kWrite: {
        Bytes payload = OpPayload(seed_, i, w_.record_bytes);
        auto kept = std::make_shared<const Bytes>(payload);
        origin_->LogCommit(std::move(payload), 0,
                           [this, i, kept](uint64_t pos) {
                             OnCommitted(pos);
                             ops_[i].pos = pos;
                             RememberWrite(pos, kept);
                             Complete(i);
                           });
        break;
      }
      case OpKind::kSend:
        // Completes at the destination (OnReceive); the callback reports
        // the communication record's position in the source log.
        origin_->Send(w_.dest, OpPayload(seed_, i, w_.record_bytes), 0,
                      [this, i](uint64_t pos) {
                        OnCommitted(pos);
                        ops_[i].pos = pos;
                      });
        break;
      case OpKind::kRead:
        IssueRead(i);
        break;
    }
  }

  void IssueRead(size_t i) {
    const size_t n = std::min(kReadWindow, recent_writes_.size());
    if (n == 0) {
      Violation("read " + std::to_string(i) + " before any committed write");
      ops_[i].error = true;
      Complete(i);
      return;
    }
    const uint64_t pos =
        recent_writes_[recent_writes_.size() - 1 - ops_[i].read_back % n];
    std::shared_ptr<const Bytes> expected = written_.at(pos);
    origin_->Read(pos, core::ReadStrategy::kReadQuorum,
                  [this, i, pos, expected](Status status,
                                           core::LogRecord record) {
                    if (!status.ok()) {
                      ops_[i].error = true;
                    } else if (record.type != core::RecordType::kLogCommit ||
                               record.payload != *expected) {
                      Violation("read at position " + std::to_string(pos) +
                                " returned other bytes than were written");
                    }
                    Complete(i);
                  });
  }

  void OnCommitted(uint64_t pos) {
    if (pos <= last_commit_pos_) {
      Violation("commit position " + std::to_string(pos) + " after " +
                std::to_string(last_commit_pos_));
    }
    last_commit_pos_ = std::max(last_commit_pos_, pos);
  }

  void RememberWrite(uint64_t pos, std::shared_ptr<const Bytes> payload) {
    written_[pos] = std::move(payload);
    recent_writes_.push_back(pos);
    // Keep more than the read window: a read issued against the window may
    // complete after later writes committed.
    if (recent_writes_.size() > 4 * kReadWindow) {
      written_.erase(recent_writes_.front());
      recent_writes_.pop_front();
    }
  }

  void OnReceive(net::SiteId src, const Bytes& payload) {
    const uint64_t id = PayloadId(payload);
    if (src != w_.origin || payload.size() < 8 || id >= ops_.size() ||
        ops_[id].kind != OpKind::kSend) {
      Violation("unexpected delivery from site " + std::to_string(src));
      return;
    }
    deliveries_.push_back(id);
    if (payload != OpPayload(seed_, id, w_.record_bytes)) {
      Violation("payload of op " + std::to_string(id) + " altered");
    }
    Complete(id);
  }

  void Complete(size_t i) {
    Op& op = ops_[i];
    if (op.done_at >= 0) {
      Violation("op " + std::to_string(i) + " completed twice");
      return;
    }
    op.done_at = sim_.Now();
    ++completed_;
    if (slo_ns_ > 0 && op.done_at - op.due > slo_ns_) ++slo_misses_;
  }

  /// Issued ops still open for longer than the latency limit.
  size_t Overdue() {
    while (first_open_ < ops_.size() && ops_[first_open_].done_at >= 0) {
      ++first_open_;
    }
    size_t n = 0;
    for (size_t i = first_open_;
         i < ops_.size() && ops_[i].due + slo_ns_ < sim_.Now(); ++i) {
      n += ops_[i].done_at < 0 ? 1 : 0;
    }
    return n;
  }

  void CheckGroup(const std::vector<core::BlockplaneNode*>& group) {
    const core::BlockplaneNode* ref = nullptr;
    for (const core::BlockplaneNode* node : group) {
      if (node != crashed_) {
        ref = node;
        break;
      }
    }
    for (const core::BlockplaneNode* node : group) {
      if (node->applied_high() == ref->applied_high() &&
          node->chain_digest() == ref->chain_digest()) {
        continue;
      }
      // A recovered node may still be catching up; only a node that
      // applied as far as its peers must match them.
      if (node == crashed_ && node->applied_high() < ref->applied_high()) {
        recovered_lag_ = ref->applied_high() - node->applied_high();
        continue;
      }
      Violation("replica " + std::to_string(node->self().site) + "/" +
                std::to_string(node->self().index) +
                " disagrees with its group: applied " +
                std::to_string(node->applied_high()) + " vs " +
                std::to_string(ref->applied_high()));
    }
  }

  const WorkloadSpec& w_;
  const uint64_t seed_;
  const double rate_;
  const sim::SimTime warmup_;
  const sim::SimTime window_;
  sim::Simulator sim_;
  core::Deployment deployment_;
  core::Participant* origin_;
  /// Declared after deployment_: destroyed first, while the hosts they wrap
  /// still exist (no message is delivered during destruction).
  std::vector<std::unique_ptr<TimedHost>> wrappers_;

  sim::SimTime start_ = 0;
  std::vector<Op> ops_;
  size_t completed_ = 0;
  size_t first_open_ = 0;
  sim::SimTime slo_ns_ = 0;
  size_t slo_misses_ = 0;
  sim::SimTime late_max_ = 0;

  size_t prefill_open_ = 0;
  uint64_t last_commit_pos_ = 0;
  /// Send op ids in the order the destination delivered them.
  std::vector<size_t> deliveries_;
  std::map<uint64_t, std::shared_ptr<const Bytes>> written_;
  std::deque<uint64_t> recent_writes_;

  const core::BlockplaneNode* crashed_ = nullptr;
  sim::SimTime crash_at_ = 0;
  uint64_t recovered_lag_ = 0;

  std::vector<std::string> violations_;
  size_t violation_count_ = 0;
};

// --- results -------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

double PerOp(double total, size_t ops) {
  return ops > 0 ? total / static_cast<double>(ops) : 0.0;
}

/// The process-wide counters, flattened to "group.counter".
std::map<std::string, int64_t> CounterSnapshot(uint64_t events) {
  std::map<std::string, int64_t> out;
  for (const auto& [group, counters] : metrics_registry().Snapshot()) {
    for (const auto& [name, value] : counters) out[group + "." + name] = value;
  }
  out["sim.events"] = static_cast<int64_t>(events);
  return out;
}

int64_t Count(const std::map<std::string, int64_t>& counts,
              const std::string& name) {
  auto it = counts.find(name);
  return it == counts.end() ? 0 : it->second;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

std::string JsonMetrics(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

/// Wall nanoseconds per MAC through KeyStore::Sign and Verify (cache off,
/// so every verify recomputes), on a message the size of a PBFT header.
double NanosPerMac() {
  crypto::KeyStore keys;
  keys.set_verify_cache_capacity(0);
  std::unique_ptr<crypto::Signer> signer = keys.RegisterNode({0, 0});
  Bytes msg(96, 0x5a);
  constexpr int kRounds = 50000;
  int ok = 0;
  WallClock::time_point begin = WallClock::now();
  for (int i = 0; i < kRounds; ++i) {
    msg[i % msg.size()] ^= static_cast<uint8_t>(i);
    crypto::Signature sig = signer->Sign(msg);
    ok += keys.Verify(msg, sig) ? 1 : 0;
  }
  double ns = static_cast<double>(WallNanos(WallClock::now() - begin));
  BP_CHECK(ok == kRounds);
  return ns / (2.0 * kRounds);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

struct Report {
  bool correct = true;
  std::string guard;
  size_t attempted = 0;
  size_t failed = 0;
  size_t errors = 0;
  size_t samples = 0;
  std::vector<std::string> violations;
  size_t violation_count = 0;
  Metrics metrics;
  Metrics layers;
  std::map<std::string, int64_t> counts;
  std::string probes = "[]";
  std::vector<double> setup_samples;
  std::vector<double> segment_rates;
  std::vector<double> reference_rates;

  void Absorb(const Harness& run) {
    for (const std::string& v : run.violations()) {
      if (violations.size() < 20) violations.push_back(v);
    }
    violation_count += run.violation_count();
    if (run.violation_count() > 0) correct = false;
  }
};

/// The capacity search: highest offered rate whose probe completes every op
/// with p99 within the workload's limit. Appends each probe to `report`.
double SearchCapacity(const WorkloadSpec& w, uint64_t seed,
                      sim::SimTime probe_window, Report* report) {
  double lo = kCapacityLo;
  double hi = kCapacityHi;
  std::string probes = "[";
  for (int k = 0; k < kCapacityProbes; ++k) {
    const double rate = std::sqrt(lo * hi);
    Harness probe(w, seed, rate, 0, probe_window, false);
    probe.Setup();
    Outcome out = probe.Measure(w.slo_ms);
    Histogram latency = probe.MeasuredLatencyMs();
    const double p99 = latency.Percentile(99);
    const bool pass = !out.aborted && out.guard.empty() &&
                      probe.measured_failed() == 0 && p99 <= w.slo_ms;
    report->Absorb(probe);
    if (pass) {
      lo = rate;
    } else {
      hi = rate;
    }
    if (k > 0) probes += ", ";
    probes += "{\"rate\": " + JsonNumber(rate) + ", \"pass\": " +
              (pass ? "true" : "false") + ", \"aborted\": " +
              (out.aborted ? "true" : "false") +
              ", \"ops\": " + std::to_string(probe.measured_attempted()) +
              ", \"p99_ms\": " + JsonNumber(p99) + ", \"wall_s\": " +
              JsonNumber(out.wall_s) + "}";
  }
  report->probes = probes + "]";
  return lo;
}

/// Per-layer metrics of a traced run (README.md, "Layer map").
void LayerMetrics(const LayerClock& clock, const Outcome& out,
                  const std::map<std::string, int64_t>& counts, size_t ops,
                  double untraced_wall_s, Metrics* layers) {
  auto put = [layers](const std::string& name, double value,
                      const char* unit) {
    (*layers)[name] = Metric{value, unit};
  };
  auto us_per_msg = [](const HandlerStat& s) {
    return s.count > 0 ? static_cast<double>(s.ns) / 1e3 /
                             static_cast<double>(s.count)
                       : 0.0;
  };

  HandlerStat pbft_all;
  HandlerStat pbft_by_slot[kPbftSlots];
  HandlerStat node_core;
  HandlerStat mirror_core;
  HandlerStat participant_all;
  for (int slot = 0; slot < kSlots; ++slot) {
    for (int kind : {kUnitHost, kMirrorHost}) {
      const HandlerStat& s = clock.stats[kind][slot];
      if (IsPbftSlot(slot)) {
        pbft_all.count += s.count;
        pbft_all.ns += s.ns;
        pbft_by_slot[slot].count += s.count;
        pbft_by_slot[slot].ns += s.ns;
      } else {
        HandlerStat& core_stat = kind == kUnitHost ? node_core : mirror_core;
        core_stat.count += s.count;
        core_stat.ns += s.ns;
      }
    }
    participant_all.count += clock.stats[kParticipantHost][slot].count;
    participant_all.ns += clock.stats[kParticipantHost][slot].ns;
  }

  put("pbft.busy_s", static_cast<double>(pbft_all.ns) / 1e9, "s");
  put("pbft.us_per_msg", us_per_msg(pbft_all), "us");
  put("pbft.msgs_per_op", PerOp(static_cast<double>(pbft_all.count), ops),
      "msg/op");
  for (net::MessageType type :
       {pbft::kRequest, pbft::kPrePrepare, pbft::kPrepare, pbft::kCommit,
        pbft::kCheckpoint, pbft::kViewChange, pbft::kNewView}) {
    int slot = SlotOf(type);
    put(std::string("pbft.") + SlotName(slot) + ".us_per_msg",
        us_per_msg(pbft_by_slot[slot]), "us");
  }
  put("pbft.proposals_per_op",
      PerOp(static_cast<double>(Count(counts, "pipeline.pbft_proposals")),
            ops),
      "1/op");
  put("pbft.window_stalls",
      static_cast<double>(Count(counts, "pipeline.pbft_window_stalls")),
      "count");
  put("pbft.view_change_attempts",
      static_cast<double>(Count(counts, "robustness.viewchange_attempts")),
      "count");

  put("core.node.busy_s", static_cast<double>(node_core.ns) / 1e9, "s");
  for (net::MessageType type :
       {core::kTransmission, core::kTransmissionAck, core::kAttestRequest,
        core::kAttestResponse, core::kRecvStatusQuery, core::kRecvStatusReply,
        core::kGeoProofBundle, core::kReadRequest}) {
    int slot = SlotOf(type);
    put(std::string("core.node.") + SlotName(slot) + ".us_per_msg",
        us_per_msg(clock.stats[kUnitHost][slot]), "us");
  }
  put("core.participant.busy_s", static_cast<double>(participant_all.ns) / 1e9,
      "s");
  for (net::MessageType type : {core::kDeliverNotice, core::kAttestResponse,
                                core::kGeoAck, core::kReadReply}) {
    int slot = SlotOf(type);
    put(std::string("core.participant.") + SlotName(slot) + ".us_per_msg",
        us_per_msg(clock.stats[kParticipantHost][slot]), "us");
  }
  put("core.mirror.busy_s", static_cast<double>(mirror_core.ns) / 1e9, "s");
  put("core.transmissions_per_op",
      PerOp(static_cast<double>(
                clock.stats[kUnitHost][SlotOf(core::kTransmission)].count),
            ops),
      "msg/op");
  put("core.daemon_window_stalls",
      static_cast<double>(Count(counts, "pipeline.daemon_window_stalls")),
      "count");
  put("core.participant_window_stalls",
      static_cast<double>(Count(counts, "pipeline.participant_window_stalls")),
      "count");

  const double macs =
      static_cast<double>(Count(counts, "hotpath.hmac_precomputed_ops"));
  const double hits =
      static_cast<double>(Count(counts, "hotpath.sig_cache_hits"));
  const double misses =
      static_cast<double>(Count(counts, "hotpath.sig_cache_misses"));
  const double ns_per_mac = NanosPerMac();
  put("crypto.macs_per_op", PerOp(macs, ops), "1/op");
  put("crypto.sig_cache_hit_ratio",
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  put("crypto.ns_per_mac", ns_per_mac, "ns");
  put("crypto.est_mac_s", macs * ns_per_mac / 1e9, "s");

  put("net.lan_msgs_per_op",
      PerOp(static_cast<double>(Count(counts, "network.lan_messages")), ops),
      "msg/op");
  put("net.wan_msgs_per_op",
      PerOp(static_cast<double>(Count(counts, "network.wan_messages")), ops),
      "msg/op");
  put("net.lan_bytes_per_op",
      PerOp(static_cast<double>(Count(counts, "network.lan_bytes")), ops),
      "B/op");
  for (net::MessageType type :
       {core::kTransmission, core::kTransmissionAck, core::kRecvStatusQuery,
        core::kRecvStatusReply, core::kGeoReplicate, core::kGeoAck}) {
    put(std::string("net.wan_bytes_per_op.") + SlotName(SlotOf(type)),
        PerOp(static_cast<double>(Count(
                  counts, "network.wan_bytes.type_" + std::to_string(type))),
              ops),
        "B/op");
  }

  const double handler_s = static_cast<double>(clock.TotalNs()) / 1e9;
  put("sim.events_per_op", PerOp(static_cast<double>(out.events), ops),
      "1/op");
  put("sim.loop_self_s", std::max(0.0, out.wall_s - handler_s), "s");
  put("sim.ns_per_event",
      out.events > 0 ? out.wall_s * 1e9 / static_cast<double>(out.events)
                     : 0.0,
      "ns");
  put("trace.overhead_ratio",
      untraced_wall_s > 0 ? out.wall_s / untraced_wall_s : 0.0, "ratio");
}

/// Phase-to-phase latency and queue waits from the Tracer, over every
/// traced op (ids 1..n are the measured log-commits and sends in order).
void PhaseMetrics(Metrics* layers) {
  const Tracer& tr = tracer();
  std::map<std::string, Histogram> phases;
  uint64_t traces = 0;
  for (TraceId t = 1; !tr.MarksFor(t).empty(); ++t) {
    ++traces;
    for (const BreakdownComponent& c : tr.BreakdownFor(t)) {
      phases[c.from + "_to_" + c.to].Add(sim::ToMillis(c.dur));
    }
  }
  // Every catalogued pair is reported, as 0 where the workload's path does
  // not pass through it, so all workloads print the same metric names.
  static const char* const kPairs[] = {
      "submit_to_local_committed",       "local_committed_to_attested",
      "attested_to_mirrored",            "mirrored_to_done",
      "local_committed_to_done",         "done_to_transmitted",
      "transmitted_to_remote_committed", "remote_committed_to_delivered"};
  for (const char* pair : kPairs) phases[pair];
  for (const auto& [pair, h] : phases) {
    (*layers)["phase." + pair + ".p50_ms"] = Metric{h.Percentile(50), "ms"};
    (*layers)["phase." + pair + ".p99_ms"] = Metric{h.Percentile(99), "ms"};
  }

  // Queue waits: participant spans sit on the participant's track, PBFT
  // spans on a replica's. Ops that never waited count as 0.
  const int32_t participant_index = core::ParticipantNodeId(0).index;
  std::vector<double> pbft_wait(traces + 1, 0.0);
  std::vector<double> participant_wait(traces + 1, 0.0);
  for (const TraceEvent& ev : tr.events()) {
    if (ev.kind != TraceEvent::Kind::kSpan || ev.trace == kNoTrace ||
        ev.trace > traces || std::strcmp(ev.name, "queue_wait") != 0) {
      continue;
    }
    auto& waits = ev.index == participant_index ? participant_wait : pbft_wait;
    waits[ev.trace] += sim::ToMillis(ev.dur);
  }
  auto p99 = [](const std::vector<double>& waits) {
    Histogram h;
    for (size_t i = 1; i < waits.size(); ++i) h.Add(waits[i]);
    return h.Percentile(99);
  };
  (*layers)["pbft.queue_wait_p99_ms"] = Metric{p99(pbft_wait), "ms"};
  (*layers)["core.queue_wait_p99_ms"] = Metric{p99(participant_wait), "ms"};
  (*layers)["trace.events"] =
      Metric{static_cast<double>(tr.events().size()), "count"};
}

/// Chrome trace_event JSON: loads in chrome://tracing or Perfetto.
bool WriteSpans(const std::string& path, const LayerClock& clock) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  static const char* const kKinds[kHostKinds] = {"node", "mirror",
                                                 "participant"};
  file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[320];
  for (const Span& s : clock.spans) {
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s.%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
        "\"pid\":%d,\"tid\":%d,\"args\":{\"sim_ns\":%lld,\"parent\":%llu}}",
        first ? "" : ",", kKinds[s.kind], SlotName(s.slot),
        static_cast<double>(s.wall_begin_ns) / 1e3,
        static_cast<double>(s.wall_end_ns - s.wall_begin_ns) / 1e3, s.site,
        s.index, static_cast<long long>(s.sim_ns),
        static_cast<unsigned long long>(s.parent));
    file << buf;
    first = false;
  }
  file << "]}\n";
  return static_cast<bool>(file);
}

/// Runs a workload's measured phase on a fresh deployment and fills the
/// end-to-end metrics. `setups` deployments are built and warmed; the last
/// one is measured.
Outcome RunEndToEnd(const WorkloadSpec& w, uint64_t seed, sim::SimTime window,
                    int setups, Report* report) {
  std::vector<double> setup_s;
  std::vector<double> norm_setup_s;
  std::unique_ptr<Harness> run;
  for (int r = 0; r < setups; ++r) {
    run.reset();
    WallClock::time_point begin = WallClock::now();
    run = std::make_unique<Harness>(w, seed, w.rate, kWarmup, window, false);
    run->Setup();
    setup_s.push_back(WallSeconds(WallClock::now() - begin));
    norm_setup_s.push_back(setup_s.back() * ReferenceRate() /
                           kNominalReferenceRate);
  }
  metrics_registry().ResetAll();
  Outcome out = run->Measure(0);
  const double rss_mb = static_cast<double>(PeakRssKb()) / 1024.0;
  report->counts = CounterSnapshot(out.events);
  run->CheckFinalState();
  report->Absorb(*run);

  Histogram latency = run->MeasuredLatencyMs();
  report->attempted = run->measured_attempted();
  report->failed = run->measured_failed();
  report->errors = run->errors();
  report->samples = latency.count();
  report->guard = out.guard;
  const size_t done = report->attempted - report->failed;
  Metrics& m = report->metrics;
  m["latency_p50_ms"] = Metric{latency.Percentile(50), "ms"};
  m["latency_p99_ms"] = Metric{latency.Percentile(99), "ms"};
  m["wall_ops_s"] = Metric{
      out.wall_s > 0 ? static_cast<double>(done) / out.wall_s : 0.0, "1/s"};
  std::vector<double> norm_rates;
  for (size_t i = 0; i < out.segment_rates.size(); ++i) {
    norm_rates.push_back(out.segment_rates[i] * kNominalReferenceRate /
                         out.reference_rates[i]);
  }
  m["norm_ops_s"] = Metric{
      norm_rates.empty() ? m["wall_ops_s"].value : Median(norm_rates), "1/s"};
  m["host_reference_rate"] = Metric{Median(out.reference_rates), "1/s"};
  report->segment_rates = out.segment_rates;
  report->reference_rates = out.reference_rates;
  m["wan_bytes_per_op"] = Metric{
      PerOp(static_cast<double>(Count(report->counts, "network.wan_bytes")),
            done),
      "B"};
  m["setup_s"] = Metric{Median(norm_setup_s), "s"};
  m["setup_wall_s"] = Metric{Median(setup_s), "s"};
  report->setup_samples = setup_s;
  m["peak_rss_mb"] = Metric{rss_mb, "MB"};
  m["fail_frac"] = Metric{
      report->attempted > 0 ? static_cast<double>(report->failed) /
                                  static_cast<double>(report->attempted)
                            : 0.0,
      "ratio"};
  if (w.crash_leader) m["outage_ms"] = Metric{run->OutageMs(), "ms"};
  report->counts["bench.generator_late_ns"] = run->generator_late_ns();
  report->counts["bench.recovered_lag"] =
      static_cast<int64_t>(run->recovered_lag());
  return out;
}

/// The traced pass: same schedule, timing wrappers and the Tracer on.
void RunTraced(const WorkloadSpec& w, uint64_t seed, sim::SimTime window,
               double untraced_wall_s, const std::string& trace_file,
               Report* report) {
  LayerClock clock;
  Harness run(w, seed, w.rate, kWarmup, window, /*per_type_wan=*/true);
  run.Setup();
  run.Instrument(&clock);
  tracer().Clear();
  tracer().Enable();
  metrics_registry().ResetAll();
  clock.origin = WallClock::now();
  Outcome out = run.Measure(0);
  tracer().Disable();
  std::map<std::string, int64_t> counts = CounterSnapshot(out.events);
  run.CheckFinalState();
  report->Absorb(run);
  if (!out.guard.empty()) report->guard = out.guard;

  // The traced pass must reproduce the untraced one in simulated time.
  Histogram latency = run.MeasuredLatencyMs();
  if (latency.Percentile(99) != report->metrics["latency_p99_ms"].value ||
      latency.count() != report->samples) {
    report->correct = false;
    report->violations.push_back(
        "traced run diverged from the untraced run in simulated time");
  }

  const size_t ops = run.measured_attempted() - run.measured_failed();
  LayerMetrics(clock, out, counts, ops, untraced_wall_s, &report->layers);
  PhaseMetrics(&report->layers);
  // A crashed-and-recovered replica that never caught up shows here.
  report->layers["core.recovered_lag"] =
      Metric{static_cast<double>(run.recovered_lag()), "records"};
  report->layers["trace.spans_written"] =
      Metric{static_cast<double>(clock.spans.size()), "count"};
  tracer().Clear();
  if (!trace_file.empty() && !WriteSpans(trace_file, clock)) {
    std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload=NAME --seed=N [--seconds=S] "
               "[--smoke] [--traced --trace-file=PATH]\nworkloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool smoke = false;
  bool traced = false;
  std::string trace_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* name = value("--workload=")) {
      workload = name;
    } else if (const char* n = value("--seed=")) {
      seed = std::strtoull(n, nullptr, 10);
    } else if (const char* s = value("--seconds=")) {
      seconds = std::atoi(s);
    } else if (const char* path = value("--trace-file=")) {
      trace_file = path;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--traced") {
      traced = true;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* w = nullptr;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (workload == spec.name) w = &spec;
  }
  if (w == nullptr || seconds < 1) return Usage();

  // --smoke runs a tenth of the length; its numbers make no claims.
  const int divisor = smoke ? 10 : 1;
  const sim::SimTime window =
      sim::Seconds(static_cast<int64_t>(seconds) * w->sim_per_second) /
      divisor;

  Report report;
  Outcome out =
      RunEndToEnd(*w, seed, window, traced ? 1 : kSetupRepeats, &report);
  if (traced) {
    RunTraced(*w, seed, window, out.wall_s, trace_file, &report);
  } else if (w->slo_ms > 0 && report.guard.empty()) {
    report.metrics["capacity_ops_s"] = Metric{
        SearchCapacity(*w, seed, kProbeWindow / divisor, &report), "1/s"};
  }
  if (report.failed > 0 || !report.guard.empty()) report.correct = false;

  std::string json = "{";
  json += "\"workload\": " + JsonString(w->name);
  json += ", \"seed\": " + std::to_string(seed);
  // A smoke run makes no claims, traced or not.
  json += ", \"mode\": " +
          JsonString(smoke ? "smoke" : (traced ? "traced" : "full"));
  json += ", \"build_type\": " + JsonString(BENCH_BUILD_TYPE);
  json += ", \"compiler\": " + JsonString(BENCH_COMPILER);
  json += ", \"sim_window_s\": " + JsonNumber(sim::ToSeconds(window));
  json += ", \"correct\": " + std::string(report.correct ? "true" : "false");
  json += ", \"guard\": " + JsonString(report.guard);
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"errors\": " + std::to_string(report.errors);
  json += ", \"latency_samples\": " + std::to_string(report.samples);
  json += ", \"violation_count\": " + std::to_string(report.violation_count);
  json += ", \"violations\": [";
  for (size_t i = 0; i < report.violations.size(); ++i) {
    json += (i > 0 ? ", " : "") + JsonString(report.violations[i]);
  }
  json += "], \"metrics\": " + JsonMetrics(report.metrics);
  json += ", \"layers\": " + JsonMetrics(report.layers);
  json += ", \"counts\": {";
  bool first = true;
  for (const auto& [name, value] : report.counts) {
    json += (first ? "" : ", ") + JsonString(name) + ": " +
            std::to_string(value);
    first = false;
  }
  json += "}, \"segment_rates\": " + JsonArray(report.segment_rates);
  json += ", \"reference_rates\": " + JsonArray(report.reference_rates);
  json += ", \"setup_samples_s\": " + JsonArray(report.setup_samples);
  json += ", \"capacity_probes\": " + report.probes + "}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);

  if (!report.guard.empty()) return 3;
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace blockplane::e2e

int main(int argc, char** argv) { return blockplane::e2e::Main(argc, argv); }
