// Pipelining sweep (DESIGN.md §9): throughput of (A) a wide-area PBFT
// group and (B) the full geo-correlated commit path as a function of the
// sliding-window size, over the Table-I AWS RTT matrix.
//
// Window 1 reproduces the paper's stop-and-wait behaviour (§VI-C: "a
// leader only attempts to commit a single batch and does not start the
// next one until the current one is committed"); larger windows keep W
// consensus instances / geo rounds in flight while execution and
// completion callbacks stay strictly in submission order.
//
// (C) sweeps the communication daemon's window over the remote-delivery
// path, lossless (sim seed 7) and at 1 % uniform loss. A lossy run swings
// with which messages the seeded loss drops, so each lossy row reports the
// median and quartiles over sim seeds 1-10.
//
// Writes BENCH_pipeline.json (`--out=PATH` to redirect it) and exits
// non-zero unless window 8 beats window 1 in (A) and (B), by at least 4x in
// (A), or if a lossy run of (C) saw no dropped message. scripts/check.sh
// runs it as a regression gate.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/deployment.h"
#include "pbft/client.h"
#include "pbft/replica.h"

namespace blockplane {
namespace {

struct Result {
  uint64_t window = 0;
  uint64_t commits = 0;
  double sim_ms = 0;
  double throughput_per_sec = 0;
  uint64_t ooo_commits = 0;        // certificates finished out of order
  uint64_t ooo_completions = 0;    // geo rounds finished out of order
  uint64_t mirror_gap_fetches = 0;  // robustness.mirror_gap_fetches
};

net::NetworkOptions BenchNet() {
  net::NetworkOptions options;
  options.intra_site_one_way = sim::Microseconds(100);
  options.per_message_cpu = sim::Microseconds(25);
  return options;
}

// --- A: flat wide-area PBFT, one replica per Table-I site ------------------

Result RunWanPbft(uint64_t window, uint64_t target_commits) {
  pipeline_stats().Reset();
  sim::Simulator simulator(1);
  net::Network network(&simulator, net::Topology::Aws4(), BenchNet());
  crypto::KeyStore keys;

  pbft::PbftConfig config;
  config.f = 1;
  for (int site = 0; site < 4; ++site) {
    config.nodes.push_back(net::NodeId{site, 0});
  }
  config.window = window;
  config.checkpoint_interval = 32;
  // Wide-area deployment: timeouts must exceed WAN round trips.
  config.view_timeout = sim::Milliseconds(1500);
  config.client_retry = sim::Milliseconds(3000);

  std::vector<std::unique_ptr<pbft::PbftReplica>> replicas;
  for (int site = 0; site < 4; ++site) {
    auto replica = std::make_unique<pbft::PbftReplica>(
        &network, &keys, config, net::NodeId{site, 0}, nullptr);
    replica->RegisterWithNetwork();
    replicas.push_back(std::move(replica));
  }
  pbft::PbftClient client(&network, config, net::NodeId{0, 900});

  // Closed loop: keep `window` requests outstanding (offered concurrency
  // matches the window, so window 1 degenerates to the paper's behaviour).
  Bytes payload = bench::MakeBatch(1);
  uint64_t issued = 0;
  uint64_t completed = 0;
  std::function<void()> submit_next = [&]() {
    if (issued >= target_commits) return;
    ++issued;
    client.Submit(Bytes(payload), [&](uint64_t) {
      ++completed;
      submit_next();
    });
  };
  sim::SimTime start = simulator.Now();
  for (uint64_t i = 0; i < window && i < target_commits; ++i) submit_next();
  simulator.RunUntilCondition([&] { return completed >= target_commits; },
                              simulator.Now() + sim::Seconds(600));
  BP_CHECK_MSG(completed >= target_commits, "wan_pbft bench stalled");

  Result r;
  r.window = window;
  r.commits = completed;
  r.sim_ms = sim::ToMillis(simulator.Now() - start);
  r.throughput_per_sec = completed / (r.sim_ms / 1000.0);
  r.ooo_commits = pipeline_stats().pbft_ooo_commits;
  return r;
}

// --- B: full geo-correlated commit path (f_i = 1, f_g = 1) -----------------

Result RunGeoCommit(uint64_t window, uint64_t target_commits) {
  pipeline_stats().Reset();
  robustness_stats().Reset();
  sim::Simulator simulator(1);
  core::BlockplaneOptions options;
  options.fi = 1;
  options.fg = 1;
  options.checkpoint_interval = 32;
  options.pbft_window = window;
  options.participant_window = window;
  core::Deployment deployment(&simulator, net::Topology::Aws4(), options,
                              BenchNet());

  core::Participant* participant = deployment.participant(net::kCalifornia);
  Bytes payload = bench::MakeBatch(1);
  uint64_t issued = 0;
  uint64_t completed = 0;
  std::function<void()> submit_next = [&]() {
    if (issued >= target_commits) return;
    ++issued;
    participant->LogCommit(Bytes(payload), 0, [&](uint64_t) {
      ++completed;
      submit_next();
    });
  };
  sim::SimTime start = simulator.Now();
  for (uint64_t i = 0; i < window && i < target_commits; ++i) submit_next();
  simulator.RunUntilCondition([&] { return completed >= target_commits; },
                              simulator.Now() + sim::Seconds(600));
  BP_CHECK_MSG(completed >= target_commits, "geo_commit bench stalled");

  Result r;
  r.window = window;
  r.commits = completed;
  r.sim_ms = sim::ToMillis(simulator.Now() - start);
  r.throughput_per_sec = completed / (r.sim_ms / 1000.0);
  r.ooo_commits = pipeline_stats().pbft_ooo_commits;
  r.ooo_completions = pipeline_stats().participant_ooo_completions;
  r.mirror_gap_fetches =
      static_cast<uint64_t>(robustness_stats().mirror_gap_fetches);
  return r;
}

// --- C: daemon windows under injected loss --------------------------------
//
// An Oregon participant streams communication records to California (short
// link) and Ireland (the 132 ms Table-I link); the run ends when every
// record is *delivered* at both destinations, so daemon retransmission
// timing and flight-window admission dominate. The loss variant injects
// uniform message drops (the chaos engine's kDropBurst knob); each daemon
// window is a controller capped at `daemon_window` whose retransmit timer
// follows the measured per-destination RTO (DESIGN.md §13).

struct DeliveryResult {
  uint64_t window = 0;    // daemon_window knob
  double loss = 0.0;      // injected drop probability
  uint64_t delivered = 0;
  double sim_ms = 0;
  double throughput_per_sec = 0;
  uint64_t dropped = 0;           // network dropped_messages
  uint64_t loss_events = 0;       // window controller loss signals
  uint64_t decreases = 0;         // multiplicative decreases applied
  uint64_t viewchange_decreases = 0;  // decreases from view-change churn
  uint64_t viewchange_attempts = 0;   // robustness.viewchange_attempts
  uint64_t window_stalls = 0;     // pipeline.daemon_window_stalls episodes
};

DeliveryResult RunDelivery(uint64_t daemon_window, double loss,
                           uint64_t records_per_dest, uint64_t seed) {
  pipeline_stats().Reset();
  congestion_stats().Reset();
  robustness_stats().Reset();
  sim::Simulator simulator(seed);
  core::BlockplaneOptions options;
  options.fi = 1;
  options.fg = 0;
  options.checkpoint_interval = 32;
  options.pbft_window = 8;
  options.daemon_window = daemon_window;
  core::Deployment deployment(&simulator, net::Topology::Aws4(), options,
                              BenchNet());
  deployment.network()->set_drop_prob(loss);

  core::Participant* sender = deployment.participant(net::kOregon);
  const uint64_t total = 2 * records_per_dest;
  uint64_t received = 0;
  for (net::SiteId dest : {net::kCalifornia, net::kIreland}) {
    deployment.participant(dest)->SetReceiveHandler(
        [&received](net::SiteId, const Bytes&) { ++received; });
  }

  // Closed loop on *local commits* (8 outstanding submissions keeps the
  // source log ahead of the daemons without flooding the PBFT client);
  // the clock runs until the last record is delivered remotely.
  Bytes payload = bench::MakeBatch(1);
  uint64_t issued = 0;
  std::function<void()> submit_next = [&]() {
    if (issued >= total) return;
    net::SiteId dest = issued % 2 == 0 ? net::kCalifornia : net::kIreland;
    ++issued;
    sender->Send(dest, Bytes(payload), 0, [&](uint64_t) { submit_next(); });
  };
  sim::SimTime start = simulator.Now();
  for (int i = 0; i < 8; ++i) submit_next();
  simulator.RunUntilCondition([&] { return received >= total; },
                              simulator.Now() + sim::Seconds(600));
  if (received < total) {
    std::fprintf(stderr,
                 "delivery stalled: window=%llu loss=%.3f seed=%llu "
                 "received=%llu/%llu issued=%llu\n",
                 (unsigned long long)daemon_window, loss,
                 (unsigned long long)seed, (unsigned long long)received,
                 (unsigned long long)total, (unsigned long long)issued);
    for (net::SiteId dest : {net::kCalifornia, net::kIreland}) {
      for (int i = 0; i < 4; ++i) {
        std::fprintf(
            stderr,
            "  dest=%d: src_node%d acked=%llu, dest_node%d last_recv=%llu\n",
            (int)dest, i,
            (unsigned long long)deployment.node(net::kOregon, i)
                ->daemon_acked(dest),
            i,
            (unsigned long long)deployment.node(dest, i)->last_received_pos(
                net::kOregon));
      }
    }
  }
  BP_CHECK_MSG(received >= total, "delivery bench stalled");

  DeliveryResult r;
  r.window = daemon_window;
  r.loss = loss;
  r.delivered = received;
  r.sim_ms = sim::ToMillis(simulator.Now() - start);
  r.throughput_per_sec = received / (r.sim_ms / 1000.0);
  r.dropped = static_cast<uint64_t>(
      deployment.network()->counters().Get("dropped_messages"));
  r.loss_events = congestion_stats().loss_events;
  r.decreases = congestion_stats().decreases;
  r.viewchange_decreases = congestion_stats().viewchange_decreases;
  r.viewchange_attempts =
      static_cast<uint64_t>(robustness_stats().viewchange_attempts);
  r.window_stalls = pipeline_stats().daemon_window_stalls;
  return r;
}

void PrintDeliveryRows(const char* name,
                       const std::vector<DeliveryResult>& results) {
  std::printf("\n%s:\n", name);
  std::printf("%8s %6s %10s %12s %14s %8s %8s %6s %6s %6s %8s\n", "window",
              "loss", "delivered", "sim (ms)", "records/sec", "dropped",
              "losses", "dec", "vcdec", "vc", "stalls");
  for (const DeliveryResult& r : results) {
    std::printf(
        "%8llu %5.1f%% %10llu %12.1f %14.1f %8llu %8llu %6llu %6llu %6llu "
        "%8llu\n",
        static_cast<unsigned long long>(r.window), 100.0 * r.loss,
        static_cast<unsigned long long>(r.delivered), r.sim_ms,
        r.throughput_per_sec, static_cast<unsigned long long>(r.dropped),
        static_cast<unsigned long long>(r.loss_events),
        static_cast<unsigned long long>(r.decreases),
        static_cast<unsigned long long>(r.viewchange_decreases),
        static_cast<unsigned long long>(r.viewchange_attempts),
        static_cast<unsigned long long>(r.window_stalls));
  }
}

void PutDeliveryResult(std::ofstream& out, const DeliveryResult& r) {
  out << "{\"window\": " << r.window << ", \"loss\": " << r.loss
      << ", \"delivered\": " << r.delivered << ", \"sim_ms\": " << r.sim_ms
      << ", \"throughput_per_sec\": " << r.throughput_per_sec
      << ", \"dropped_messages\": " << r.dropped
      << ", \"loss_events\": " << r.loss_events
      << ", \"decreases\": " << r.decreases
      << ", \"viewchange_decreases\": " << r.viewchange_decreases
      << ", \"viewchange_attempts\": " << r.viewchange_attempts
      << ", \"window_stalls\": " << r.window_stalls << "}";
}

void PutDeliveryResults(std::ofstream& out,
                        const std::vector<DeliveryResult>& results) {
  out << "[\n";
  for (size_t i = 0; i < results.size(); ++i) {
    out << "    ";
    PutDeliveryResult(out, results[i]);
    out << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]";
}

/// One lossy row of (C): a daemon window's runs over sim seeds 1..N.
struct LossyRow {
  uint64_t window = 0;
  double loss = 0.0;
  std::vector<DeliveryResult> runs;  // runs[i] used sim seed i + 1
  /// Delivered records/sec over the runs: the median and the quartiles,
  /// computed as Python's statistics.quantiles(n=4) does
  /// (bench/e2e/compare.py reports its quartiles the same way).
  double median = 0;
  double q1 = 0;
  double q3 = 0;
};

/// The p-quantile of sorted `v` by the exclusive method: position
/// (n + 1)·p, interpolated, clamped to the ends.
double Quantile(const std::vector<double>& v, double p) {
  const double h = (static_cast<double>(v.size()) + 1) * p;
  if (h <= 1) return v.front();
  if (h >= static_cast<double>(v.size())) return v.back();
  const size_t lo = static_cast<size_t>(h) - 1;
  return v[lo] + (h - static_cast<double>(lo + 1)) * (v[lo + 1] - v[lo]);
}

LossyRow RunLossyRow(uint64_t daemon_window, double loss,
                     uint64_t records_per_dest, uint64_t seeds) {
  LossyRow row;
  row.window = daemon_window;
  row.loss = loss;
  std::vector<double> rates;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    row.runs.push_back(
        RunDelivery(daemon_window, loss, records_per_dest, seed));
    rates.push_back(row.runs.back().throughput_per_sec);
  }
  std::sort(rates.begin(), rates.end());
  row.median = Quantile(rates, 0.5);
  row.q1 = Quantile(rates, 0.25);
  row.q3 = Quantile(rates, 0.75);
  return row;
}

void PrintLossyRows(const std::vector<LossyRow>& rows) {
  std::printf("%8s %6s %14s %18s %8s %8s %8s\n", "window", "loss",
              "records/sec", "[q1, q3]", "min", "max", "dropped");
  for (const LossyRow& row : rows) {
    double min = row.runs.front().throughput_per_sec;
    double max = min;
    uint64_t dropped = row.runs.front().dropped;
    for (const DeliveryResult& r : row.runs) {
      min = std::min(min, r.throughput_per_sec);
      max = std::max(max, r.throughput_per_sec);
      dropped = std::min(dropped, r.dropped);
    }
    std::printf("%8llu %5.1f%% %14.1f   [%6.1f, %6.1f] %8.1f %8.1f %8llu\n",
                static_cast<unsigned long long>(row.window), 100.0 * row.loss,
                row.median, row.q1, row.q3, min, max,
                static_cast<unsigned long long>(dropped));
  }
  std::printf("(dropped: the fewest messages any seed's run dropped)\n");
}

void PutLossyRows(std::ofstream& out, const std::vector<LossyRow>& rows) {
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const LossyRow& row = rows[i];
    out << "    {\"window\": " << row.window << ", \"loss\": " << row.loss
        << ", \"sim_seeds\": \"1-" << row.runs.size() << "\""
        << ", \"median_throughput_per_sec\": " << row.median
        << ", \"q1_throughput_per_sec\": " << row.q1
        << ", \"q3_throughput_per_sec\": " << row.q3 << ", \"runs\": [\n";
    for (size_t j = 0; j < row.runs.size(); ++j) {
      out << "      ";
      PutDeliveryResult(out, row.runs[j]);
      out << (j + 1 < row.runs.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]";
}

void PrintRows(const char* name, const std::vector<Result>& results) {
  std::printf("\n%s:\n", name);
  std::printf("%8s %9s %12s %14s %10s %8s\n", "window", "commits", "sim (ms)",
              "commits/sec", "speedup", "ooo");
  double base = results.empty() ? 1.0 : results[0].throughput_per_sec;
  for (const Result& r : results) {
    std::printf("%8llu %9llu %12.1f %14.1f %9.2fx %8llu\n",
                static_cast<unsigned long long>(r.window),
                static_cast<unsigned long long>(r.commits), r.sim_ms,
                r.throughput_per_sec, r.throughput_per_sec / base,
                static_cast<unsigned long long>(r.ooo_commits +
                                                r.ooo_completions));
  }
}

void PutResults(std::ofstream& out, const std::vector<Result>& results) {
  out << "[\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    out << "    {\"window\": " << r.window << ", \"commits\": " << r.commits
        << ", \"sim_ms\": " << r.sim_ms
        << ", \"throughput_per_sec\": " << r.throughput_per_sec
        << ", \"ooo_commits\": " << r.ooo_commits
        << ", \"ooo_completions\": " << r.ooo_completions
        << ", \"mirror_gap_fetches\": " << r.mirror_gap_fetches << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]";
}

}  // namespace
}  // namespace blockplane

int main(int argc, char** argv) {
  using namespace blockplane;
  std::string out_path = "BENCH_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  bench::PrintHeader(
      "Pipelining sweep: sliding-window PBFT + windowed geo-commit",
      "window 1 = the paper's stop-and-wait group commit (SVI-C); "
      "DESIGN.md S9");

  const std::vector<uint64_t> windows = {1, 2, 4, 8, 16};
  const uint64_t wan_commits = 120;
  const uint64_t geo_commits = 80;

  std::vector<Result> wan;
  for (uint64_t w : windows) wan.push_back(RunWanPbft(w, wan_commits));
  PrintRows("A. wide-area PBFT (one replica per Table-I site, f=1)", wan);

  std::vector<Result> geo;
  for (uint64_t w : windows) geo.push_back(RunGeoCommit(w, geo_commits));
  PrintRows("B. geo-correlated commit (California, f_i=1, f_g=1)", geo);

  // C: daemon windows, lossless (sim seed 7) and with 1% uniform message
  // loss over sim seeds 1-10, on the Table-I topology (Oregon ->
  // California + Ireland).
  const std::vector<uint64_t> daemon_windows = {1, 4, 16, 64};
  const uint64_t records_per_dest = 120;
  const double lossy = 0.01;
  const uint64_t lossy_seeds = 10;
  std::vector<DeliveryResult> delivery;
  for (uint64_t w : daemon_windows) {
    delivery.push_back(RunDelivery(w, 0.0, records_per_dest, 7));
  }
  PrintDeliveryRows(
      "C. remote delivery by daemon window (Oregon -> California+Ireland), "
      "lossless, sim seed 7",
      delivery);
  std::vector<LossyRow> lossy_rows;
  for (uint64_t w : daemon_windows) {
    lossy_rows.push_back(
        RunLossyRow(w, lossy, records_per_dest, lossy_seeds));
  }
  std::printf("\n   at 1%% loss, median over sim seeds 1-%llu:\n",
              static_cast<unsigned long long>(lossy_seeds));
  PrintLossyRows(lossy_rows);

  std::ofstream out(out_path);
  out << "{\n  \"wan_pbft\": ";
  PutResults(out, wan);
  out << ",\n  \"geo_commit\": ";
  PutResults(out, geo);
  out << ",\n  \"delivery\": ";
  PutDeliveryResults(out, delivery);
  out << ",\n  \"delivery_lossy\": ";
  PutLossyRows(out, lossy_rows);
  out << "\n}\n";
  out.close();
  std::printf("\nwrote %s\n", out_path.c_str());

  // Regression gate: the window-8 pipeline must beat stop-and-wait, by at
  // least 4x on the WAN PBFT experiment.
  auto thpt = [](const std::vector<Result>& rs, uint64_t w) {
    for (const Result& r : rs) {
      if (r.window == w) return r.throughput_per_sec;
    }
    return 0.0;
  };
  const bool ok = thpt(wan, 8) >= 4.0 * thpt(wan, 1) &&
                  thpt(geo, 8) > thpt(geo, 1);
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: window-8 pipeline did not outperform window 1\n");
    return 1;
  }
  std::printf("pipeline speedup gate passed (w8/w1: wan %.2fx, geo %.2fx)\n",
              thpt(wan, 8) / thpt(wan, 1), thpt(geo, 8) / thpt(geo, 1));

  // Loss gate (section C): a lossy run only tests the loss path if the
  // network actually dropped messages during it.
  for (const LossyRow& row : lossy_rows) {
    for (size_t i = 0; i < row.runs.size(); ++i) {
      if (row.runs[i].dropped > 0) continue;
      std::fprintf(stderr,
                   "FAIL: window-%llu run at %.0f%% loss, sim seed %zu, "
                   "dropped no messages\n",
                   static_cast<unsigned long long>(row.window),
                   100.0 * row.loss, i + 1);
      return 1;
    }
  }
  std::printf("loss gate passed (every %.0f%%-loss run dropped messages)\n",
              100.0 * lossy);
  return 0;
}
