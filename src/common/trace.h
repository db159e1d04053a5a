// Deterministic causal tracing for the byzantizing pipeline.
//
// The paper's evaluation (Figs. 4-8) is a story about *where time goes*:
// intra-unit PBFT rounds vs. signature gathering vs. WAN hops vs.
// geo-mirroring. This module makes that decomposition measurable for a
// single commit instead of only in aggregate:
//
//   * Every API operation (log-commit / send / mirror-commit) gets a
//     TraceId. The id rides out-of-band on net::Message (it is simulator
//     metadata, never wire bytes, so protocol encodings are untouched) and
//     through the PBFT instance state, so one commit can be followed
//     request -> pre-prepare -> prepare -> commit -> attest -> transmit ->
//     geo-mirror -> deliver.
//
//   * Phase *marks* (TracePhase::kSubmit, kLocalCommitted, kAttested, ...)
//     are first-wins timestamps per trace. The latency breakdown is the
//     vector of deltas between consecutive marks, so the components sum
//     EXACTLY to the end-to-end time by construction (no residual bucket).
//
//   * Spans and instants export to the Chrome trace_event JSON format:
//     load the dump in chrome://tracing or https://ui.perfetto.dev and the
//     commit timeline is visible per (site, node) track.
//
// Determinism: the tracer is driven exclusively by simulator callbacks with
// explicit timestamps, allocates ids monotonically, and stores events in
// append order — so for a fixed seed the exported trace is bit-identical
// run to run (pinned by trace_test.cc's golden-trace test).
//
// Overhead: tracing is off by default. Every instrumentation site guards
// with `tracer().enabled()` — one function call and one predictable branch
// on the hot path, nothing else (no allocation, no map lookup). The
// acceptance gate in BENCH_hotpath.json holds with the instrumentation
// compiled in.
#ifndef BLOCKPLANE_COMMON_TRACE_H_
#define BLOCKPLANE_COMMON_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace blockplane {

/// Identifies one traced operation end to end. 0 = not traced.
using TraceId = uint64_t;
constexpr TraceId kNoTrace = 0;

/// One exported event. Names/categories are static string literals owned by
/// the instrumentation sites (never freed, never heap-allocated here).
struct TraceEvent {
  enum class Kind : uint8_t {
    kSpan,     // Chrome "X" (complete) event: [ts, ts+dur)
    kInstant,  // Chrome "i" event at ts
  };
  TraceId trace = kNoTrace;
  Kind kind = Kind::kInstant;
  int64_t ts = 0;   // sim nanoseconds
  int64_t dur = 0;  // span duration (kSpan only)
  const char* name = "";
  const char* cat = "";
  /// Track: Chrome pid = site, tid = node index within the site.
  int32_t site = -1;
  int32_t index = -1;
  /// Optional numeric argument (sequence number, log position, bytes...).
  uint64_t arg = 0;
};

/// The phases a commit passes through, in pipeline order. Tracer::Mark
/// takes one of these, so a misspelled phase fails to compile instead of
/// silently truncating a latency breakdown.
enum class TracePhase : uint8_t {
  kSubmit,           // client handed the request to the participant
  kLocalCommitted,   // local PBFT group committed the record
  kAttested,         // f_s+1 transmission attestations collected
  kTransmitted,      // transmission record sent to the destination
  kRemoteCommitted,  // destination group committed the received record
  kMirrored,         // geo layer mirrored the record (acting-site flow)
  kDelivered,        // delivered to the destination application
  kDone,             // terminal phase: end-to-end complete
};

/// The phase's mark name ("submit", "local_committed", ...): what MarksFor,
/// breakdowns and every export report.
const char* TracePhaseName(TracePhase phase);

/// One first-wins phase mark of a trace.
struct TraceMark {
  const char* phase = "";
  int64_t ts = 0;
};

/// One component of a latency breakdown: the gap between two consecutive
/// marks. Components are ordered and their durations sum exactly to
/// (last mark ts - first mark ts).
struct BreakdownComponent {
  std::string from;
  std::string to;
  int64_t dur = 0;  // sim nanoseconds
};

class Tracer {
 public:
  Tracer() = default;
  BP_DISALLOW_COPY_AND_ASSIGN(Tracer);

  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }

  /// Drops all events, marks, and bindings and resets the id counter, so a
  /// fresh run over the same seed reproduces the same trace byte for byte.
  void Clear();

  /// Allocates a trace id (monotone). Returns kNoTrace while disabled, so
  /// disabled call sites propagate 0 and every downstream record/mark call
  /// early-returns.
  TraceId NewTrace();

  // --- raw events -----------------------------------------------------------

  void Span(TraceId trace, const char* name, const char* cat, int64_t ts_begin,
            int64_t ts_end, int32_t site, int32_t index, uint64_t arg = 0);
  void Instant(TraceId trace, const char* name, const char* cat, int64_t ts,
               int32_t site, int32_t index, uint64_t arg = 0);

  // --- phase marks / latency breakdown --------------------------------------

  /// Records `phase` at `ts` for `trace`, first call wins (several replicas
  /// or nodes may report the same milestone; the earliest is the one that
  /// advanced the commit). No-op when disabled or trace == kNoTrace.
  void Mark(TraceId trace, TracePhase phase, int64_t ts);

  /// The recorded marks of a trace in record order (timestamps are
  /// non-decreasing because simulation time is).
  const std::vector<TraceMark>& MarksFor(TraceId trace) const;

  /// Decomposes the trace's end-to-end time into per-phase components:
  /// component i is marks[i+1].ts - marks[i].ts. Sum == last - first.
  std::vector<BreakdownComponent> BreakdownFor(TraceId trace) const;

  /// Total end-to-end time of the trace (last mark - first mark), or 0.
  int64_t EndToEndFor(TraceId trace) const;

  // --- cross-layer correlation ----------------------------------------------

  /// Binds a committed communication record (src site, Local Log position)
  /// to its trace so the communication daemons — which only know log
  /// positions — and the destination site can tag transmit / remote-commit
  /// / deliver milestones without widening any wire format.
  void BindCommRecord(int32_t src_site, uint64_t log_pos, TraceId trace);
  TraceId LookupCommRecord(int32_t src_site, uint64_t log_pos) const;

  // --- export ----------------------------------------------------------------

  const std::vector<TraceEvent>& events() const { return events_; }
  /// Events recorded after the buffer cap was hit (and therefore dropped).
  int64_t events_dropped() const { return events_dropped_; }

  /// Chrome trace_event JSON ({"traceEvents": [...]}): load in
  /// chrome://tracing or Perfetto. ts/dur are microseconds (double), pid is
  /// the site, tid the node index.
  std::string ToChromeTrace() const;

  /// Compact machine-readable dump: per-trace marks and breakdowns.
  std::string ToJson() const;

  /// Writes ToChromeTrace() to `path`; returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  /// Hard cap so a runaway bench cannot balloon memory; deterministic
  /// because it only depends on the (deterministic) event sequence.
  static constexpr size_t kMaxEvents = 1u << 20;
  static constexpr size_t kMaxBindings = 1u << 16;

  bool enabled_ = false;
  TraceId next_trace_ = 1;
  std::vector<TraceEvent> events_;
  int64_t events_dropped_ = 0;
  std::map<TraceId, std::vector<TraceMark>> marks_;
  std::map<std::pair<int32_t, uint64_t>, TraceId> comm_bindings_;
};

/// The process-wide tracer (the simulator is single-threaded; one instance
/// serves every simulated node, which is exactly what makes cross-site
/// correlation free).
Tracer& tracer();

}  // namespace blockplane

#endif  // BLOCKPLANE_COMMON_TRACE_H_
