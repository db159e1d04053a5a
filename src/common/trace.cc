#include "common/trace.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace blockplane {

namespace {

/// Appends `v` (already JSON-safe: our names are static C identifiers plus
/// spaces/arrows) as a quoted JSON string. Escapes defensively anyway.
void AppendJsonString(std::string* out, const char* v) {
  out->push_back('"');
  for (const char* p = v; *p; ++p) {
    char c = *p;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendJsonString(std::string* out, const std::string& v) {
  AppendJsonString(out, v.c_str());
}

/// Nanoseconds -> microseconds with three decimals, locale-independent and
/// bit-deterministic (pure integer arithmetic; no floating point).
void AppendMicros(std::string* out, int64_t ns) {
  char buf[40];
  const char* sign = ns < 0 ? "-" : "";
  uint64_t abs_ns = ns < 0 ? static_cast<uint64_t>(-ns)
                           : static_cast<uint64_t>(ns);
  std::snprintf(buf, sizeof(buf), "%s%" PRIu64 ".%03" PRIu64, sign,
                abs_ns / 1000, abs_ns % 1000);
  out->append(buf);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendI64(std::string* out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out->append(buf);
}

const std::vector<TraceMark>& EmptyMarks() {
  static const std::vector<TraceMark> empty;
  return empty;
}

}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void Tracer::Clear() {
  next_trace_ = 1;
  events_.clear();
  events_dropped_ = 0;
  marks_.clear();
  comm_bindings_.clear();
}

TraceId Tracer::NewTrace() {
  if (!enabled_) return kNoTrace;
  return next_trace_++;
}

void Tracer::Span(TraceId trace, const char* name, const char* cat,
                  int64_t ts_begin, int64_t ts_end, int32_t site,
                  int32_t index, uint64_t arg) {
  if (!enabled_) return;
  if (events_.size() >= kMaxEvents) {
    ++events_dropped_;
    return;
  }
  TraceEvent ev;
  ev.trace = trace;
  ev.kind = TraceEvent::Kind::kSpan;
  ev.ts = ts_begin;
  ev.dur = ts_end - ts_begin;
  ev.name = name;
  ev.cat = cat;
  ev.site = site;
  ev.index = index;
  ev.arg = arg;
  events_.push_back(ev);
}

void Tracer::Instant(TraceId trace, const char* name, const char* cat,
                     int64_t ts, int32_t site, int32_t index, uint64_t arg) {
  if (!enabled_) return;
  if (events_.size() >= kMaxEvents) {
    ++events_dropped_;
    return;
  }
  TraceEvent ev;
  ev.trace = trace;
  ev.kind = TraceEvent::Kind::kInstant;
  ev.ts = ts;
  ev.name = name;
  ev.cat = cat;
  ev.site = site;
  ev.index = index;
  ev.arg = arg;
  events_.push_back(ev);
}

const char* TracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kSubmit:
      return "submit";
    case TracePhase::kLocalCommitted:
      return "local_committed";
    case TracePhase::kAttested:
      return "attested";
    case TracePhase::kTransmitted:
      return "transmitted";
    case TracePhase::kRemoteCommitted:
      return "remote_committed";
    case TracePhase::kMirrored:
      return "mirrored";
    case TracePhase::kDelivered:
      return "delivered";
    case TracePhase::kDone:
      return "done";
  }
  return "unknown";
}

void Tracer::Mark(TraceId trace, TracePhase phase, int64_t ts) {
  if (!enabled_ || trace == kNoTrace) return;
  const char* name = TracePhaseName(phase);
  std::vector<TraceMark>& marks = marks_[trace];
  for (const TraceMark& mark : marks) {
    if (std::string_view(mark.phase) == name) return;  // first call wins
  }
  marks.push_back({name, ts});
}

const std::vector<TraceMark>& Tracer::MarksFor(TraceId trace) const {
  auto it = marks_.find(trace);
  return it == marks_.end() ? EmptyMarks() : it->second;
}

std::vector<BreakdownComponent> Tracer::BreakdownFor(TraceId trace) const {
  std::vector<BreakdownComponent> out;
  const std::vector<TraceMark>& marks = MarksFor(trace);
  for (size_t i = 1; i < marks.size(); ++i) {
    BreakdownComponent component;
    component.from = marks[i - 1].phase;
    component.to = marks[i].phase;
    component.dur = marks[i].ts - marks[i - 1].ts;
    out.push_back(std::move(component));
  }
  return out;
}

int64_t Tracer::EndToEndFor(TraceId trace) const {
  const std::vector<TraceMark>& marks = MarksFor(trace);
  if (marks.size() < 2) return 0;
  return marks.back().ts - marks.front().ts;
}

void Tracer::BindCommRecord(int32_t src_site, uint64_t log_pos,
                            TraceId trace) {
  if (!enabled_ || trace == kNoTrace) return;
  // Bounded wholesale reset (deterministic; bindings are only needed while
  // the corresponding transmissions are in flight).
  if (comm_bindings_.size() >= kMaxBindings) comm_bindings_.clear();
  comm_bindings_[{src_site, log_pos}] = trace;
}

TraceId Tracer::LookupCommRecord(int32_t src_site, uint64_t log_pos) const {
  auto it = comm_bindings_.find({src_site, log_pos});
  return it == comm_bindings_.end() ? kNoTrace : it->second;
}

std::string Tracer::ToChromeTrace() const {
  std::string out;
  out.reserve(events_.size() * 96 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, ev.name);
    out += ",\"cat\":";
    AppendJsonString(&out, ev.cat);
    out += ",\"ph\":";
    out += ev.kind == TraceEvent::Kind::kSpan ? "\"X\"" : "\"i\"";
    out += ",\"ts\":";
    AppendMicros(&out, ev.ts);
    if (ev.kind == TraceEvent::Kind::kSpan) {
      out += ",\"dur\":";
      AppendMicros(&out, ev.dur);
    } else {
      out += ",\"s\":\"t\"";  // thread-scoped instant
    }
    out += ",\"pid\":";
    AppendI64(&out, ev.site);
    out += ",\"tid\":";
    AppendI64(&out, ev.index);
    out += ",\"args\":{\"trace\":";
    AppendU64(&out, ev.trace);
    out += ",\"arg\":";
    AppendU64(&out, ev.arg);
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string Tracer::ToJson() const {
  std::string out;
  out += "{\"traces\":[";
  bool first_trace = true;
  for (const auto& [trace, marks] : marks_) {
    if (!first_trace) out += ",";
    first_trace = false;
    out += "{\"trace\":";
    AppendU64(&out, trace);
    out += ",\"marks\":[";
    bool first_mark = true;
    for (const TraceMark& mark : marks) {
      if (!first_mark) out += ",";
      first_mark = false;
      out += "{\"phase\":";
      AppendJsonString(&out, mark.phase);
      out += ",\"ts_ns\":";
      AppendI64(&out, mark.ts);
      out += "}";
    }
    out += "],\"breakdown\":[";
    bool first_component = true;
    for (const BreakdownComponent& component : BreakdownFor(trace)) {
      if (!first_component) out += ",";
      first_component = false;
      out += "{\"from\":";
      AppendJsonString(&out, component.from);
      out += ",\"to\":";
      AppendJsonString(&out, component.to);
      out += ",\"dur_ns\":";
      AppendI64(&out, component.dur);
      out += "}";
    }
    out += "],\"end_to_end_ns\":";
    AppendI64(&out, EndToEndFor(trace));
    out += "}";
  }
  out += "],\"events\":";
  AppendU64(&out, events_.size());
  out += ",\"events_dropped\":";
  AppendI64(&out, events_dropped_);
  out += "}";
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  std::string json = ToChromeTrace();
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(file);
}

}  // namespace blockplane
