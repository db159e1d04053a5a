// Micro-benchmarks (google-benchmark) for the hot primitives under the
// paper's experiments: SHA-256/HMAC, signatures, the binary codec, record
// encoding, the simulator core, and an end-to-end local commit.
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "core/deployment.h"
#include "net/network.h"
#include "net/transport.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/signer.h"

namespace blockplane {
namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data(state.range(0), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256Digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(32768)->Arg(100000);

void BM_Sha256Kernel(benchmark::State& state) {
  // One kernel call over a 32 KB payload's 512 blocks (the local_rw value
  // size): arg 0 = the scalar definition, 1 = the SHA-extensions kernel.
  // ns per block = reported time / 512.
  constexpr size_t kBlocks = 512;
  crypto::internal::CompressFn kernel =
      state.range(0) == 0 ? &crypto::internal::CompressScalar
                          : crypto::internal::AcceleratedKernel();
  if (kernel == nullptr) {
    state.SkipWithError("CPU lacks the SHA extensions");
    return;
  }
  Bytes data(kBlocks * 64, 0xab);
  uint32_t digest_state[8] = {};
  for (auto _ : state) {
    kernel(digest_state, data.data(), kBlocks);
    benchmark::DoNotOptimize(digest_state);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
  state.SetLabel(state.range(0) == 0 ? "scalar" : "sha-ni");
}
BENCHMARK(BM_Sha256Kernel)->Arg(0)->Arg(1);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 0x42);
  Bytes data(state.range(0), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacSha256(key, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_HmacPrecomputed(benchmark::State& state) {
  // Same key/message shapes as BM_HmacSha256, through the midstate-cached
  // key: the per-call delta between the two is what PrecomputedHmacKey
  // saves (key schedule + 2 of the 4 compressions for short messages).
  Bytes key(32, 0x42);
  crypto::PrecomputedHmacKey fast(key);
  Bytes data(state.range(0), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fast.Sign(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacPrecomputed)->Arg(64)->Arg(1024);

void BM_SignVerify(benchmark::State& state) {
  crypto::KeyStore keys;
  auto signer = keys.RegisterNode({0, 0});
  Bytes msg(256, 0x11);
  for (auto _ : state) {
    crypto::Signature sig = signer->Sign(msg);
    benchmark::DoNotOptimize(keys.Verify(msg, sig));
  }
}
BENCHMARK(BM_SignVerify);

void BM_Crc32(benchmark::State& state) {
  Bytes data(state.range(0), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1024)->Arg(100000);

void BM_CodecRoundTrip(benchmark::State& state) {
  Bytes payload(state.range(0), 0x3c);
  for (auto _ : state) {
    Encoder enc;
    enc.PutU64(42);
    enc.PutVarint(123456);
    enc.PutBytes(payload);
    Bytes wire = enc.Take();
    Decoder dec(wire);
    uint64_t fixed = 0;
    uint64_t varint = 0;
    Bytes out;
    benchmark::DoNotOptimize(dec.GetU64(&fixed));
    benchmark::DoNotOptimize(dec.GetVarint(&varint));
    benchmark::DoNotOptimize(dec.GetBytes(&out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CodecRoundTrip)->Arg(1024)->Arg(100000);

void BM_RecordEncodeDecode(benchmark::State& state) {
  core::LogRecord record;
  record.type = core::RecordType::kReceived;
  record.routine_id = 7;
  record.payload = Bytes(1024, 0x77);
  record.dest_site = 1;
  record.src_site = 0;
  record.src_log_pos = 42;
  record.prev_src_log_pos = 40;
  for (auto _ : state) {
    Bytes wire = record.Encode();
    core::LogRecord out;
    benchmark::DoNotOptimize(core::LogRecord::Decode(wire, &out));
  }
}
BENCHMARK(BM_RecordEncodeDecode);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator(1);
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      simulator.Schedule(i, [&fired]() { ++fired; });
    }
    simulator.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_SimulatorEvent(benchmark::State& state) {
  // Schedules and runs one event on a warm simulator: the event loop's own
  // cost per event, with a 16-byte capture like the network's callbacks.
  sim::Simulator simulator(1);
  int64_t fired = 0;
  const int64_t step = 1;
  int64_t* counter = &fired;
  const int64_t* by = &step;
  for (auto _ : state) {
    simulator.Schedule(1, [counter, by]() { *counter += *by; });
    simulator.Run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorEvent);

/// A host that only counts what it is handed.
class CountingHost : public net::Host {
 public:
  void HandleMessage(const net::Message&) override { ++messages; }
  int64_t messages = 0;
};

void BM_NetworkDelivery(benchmark::State& state) {
  // One Send of an already-encoded 100-byte body through both delivery
  // stages to the destination's HandleMessage: the network's cost per
  // message, the two events it schedules included.
  sim::Simulator simulator(1);
  net::Network network(&simulator, net::Topology::SingleSite());
  CountingHost a, b;
  network.Register({0, 0}, &a);
  network.Register({0, 1}, &b);
  net::Message msg;
  msg.src = {0, 0};
  msg.dst = {0, 1};
  msg.type = 1;
  msg.payload = net::MakePayload(Bytes(100, 0x5c));
  for (auto _ : state) {
    network.Send(msg);
    simulator.Run();
  }
  if (b.messages != static_cast<int64_t>(state.iterations())) {
    state.SkipWithError("a message was not delivered");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NetworkDelivery);

void BM_TransportSend(benchmark::State& state) {
  // Cost of pushing one payload through ReliableTransport::Send. The
  // rvalue-payload signature plus the exact-size Reserve in the frame
  // encoder mean the bytes are copied exactly once (into the frame); the
  // "bytes_copied_saved" counter reports the copies the old by-value /
  // growing-encoder path would have made on top of that.
  const int64_t payload_size = state.range(0);
  sim::Simulator simulator(1);
  net::NetworkOptions net_options;
  net_options.per_message_cpu = 0;
  net::Network network(&simulator, net::Topology::SingleSite(), net_options);
  net::ReliableTransport sender(&network, net::NodeId{0, 0},
                                [](const net::Message&) {});
  net::ReliableTransport receiver(&network, net::NodeId{0, 1},
                                  [](const net::Message&) {});
  Bytes payload(payload_size, 0x5c);
  transport_stats().Reset();
  for (auto _ : state) {
    sender.Send(net::NodeId{0, 1}, 7, Bytes(payload));
    simulator.Run();  // deliver + ack so in-flight state stays bounded
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          payload_size);
  // One elided deep copy per Send: the accounting that pins the zero-copy
  // claim (asserted against iterations, not just reported).
  state.counters["bytes_copied_saved"] = static_cast<double>(
      transport_stats().bytes_copied_saved);
  if (transport_stats().bytes_copied_saved !=
      static_cast<int64_t>(state.iterations()) * payload_size) {
    state.SkipWithError("bytes_copied_saved accounting mismatch");
  }
}
BENCHMARK(BM_TransportSend)->Arg(256)->Arg(4096)->Arg(65536);

void BM_LocalCommitEndToEnd(benchmark::State& state) {
  // Wall-clock cost of simulating one full PBFT local commit (the unit of
  // work behind Fig. 4): useful for spotting regressions in the hot path.
  sim::Simulator simulator(1);
  core::BlockplaneOptions options;
  options.checkpoint_interval = 8;
  core::Deployment deployment(&simulator, net::Topology::SingleSite(),
                              options);
  Bytes batch(1000, 0x99);
  for (auto _ : state) {
    bool done = false;
    deployment.participant(0)->LogCommit(Bytes(batch), 0,
                                         [&](uint64_t) { done = true; });
    simulator.RunUntilCondition([&] { return done; },
                                simulator.Now() + sim::Seconds(10));
  }
}
BENCHMARK(BM_LocalCommitEndToEnd);

}  // namespace
}  // namespace blockplane

// Custom main instead of BENCHMARK_MAIN(): defaults --benchmark_out to
// BENCH_micro.json (google-benchmark's JSON schema) so CI and the plots
// under scripts/ can consume the numbers without scraping console output.
// An explicit --benchmark_out on the command line still wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  // The SHA-256 kernel this process selected; every hashing number in the
  // run depends on it.
  benchmark::AddCustomContext("sha256_backend",
                             blockplane::crypto::Sha256Backend());
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
