// Measures the encode-once / verify-once / zero-copy hot path against the
// naive baselines it replaced, and writes the results to BENCH_hotpath.json.
//
// Three sections:
//
//   1. sign+verify microbenchmark — a frozen copy of the seed HMAC path
//      (key schedule rebuilt per call, 4 SHA-256 compressions for a short
//      message, byte-at-a-time Finish() padding) vs PrecomputedHmacKey
//      (cached ipad/opad midstates, 2 compressions, one-memcpy padding),
//      plus the cached-verify path on top. The frozen baseline is asserted
//      bit-identical before timing.
//   2. A PBFT commit workload (full Blockplane deployment, signatures and
//      digests ON) — reports the hot-path counters accumulated while
//      committing: sig_cache_hits, encodes_elided, bytes_copied_saved.
//   3. A lossy-network workload exercising the retransmission and
//      duplicate paths that share payload buffers.
//
// Deliberately not google-benchmark: the output contract here is a small,
// stable JSON document (speedup + counters) consumed by CI, not a
// statistics table.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/metrics.h"
#include "core/deployment.h"
#include "crypto/hmac.h"
#include "crypto/signer.h"
#include "sim/simulator.h"

namespace blockplane {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Compiler barrier: forces memory to be treated as modified, so the
/// sign and verify HMAC computations in one iteration cannot be merged by
/// common-subexpression elimination (the baseline path touches no globals,
/// making it otherwise CSE-able — which would halve its apparent cost and
/// wreck the comparison).
inline void ClobberMemory() { asm volatile("" ::: "memory"); }

// ---------------------------------------------------------------------------
// Frozen baseline: the seed's SHA-256 + HMAC, verbatim. The live tree's
// Sha256::Finish() now pads with one memset/memcpy and HmacSha256's ipad
// block streams straight into the compression function, so benchmarking the
// *current* reference would understate what this PR replaced. This copy
// keeps the seed's cost model measurable: key schedule rebuilt per call and
// byte-at-a-time Finish() padding (up to 55 single-byte Update() calls per
// digest, four digests per sign+verify round trip). Equivalence with the
// optimized path is asserted in main() before anything is timed.
// ---------------------------------------------------------------------------

constexpr uint32_t kSeedK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t SeedRotr(uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

class SeedSha256 {
 public:
  SeedSha256() { Reset(); }

  void Reset() {
    state_[0] = 0x6a09e667;
    state_[1] = 0xbb67ae85;
    state_[2] = 0x3c6ef372;
    state_[3] = 0xa54ff53a;
    state_[4] = 0x510e527f;
    state_[5] = 0x9b05688c;
    state_[6] = 0x1f83d9ab;
    state_[7] = 0x5be0cd19;
    total_len_ = 0;
    buffer_len_ = 0;
  }

  void Update(const uint8_t* data, size_t len) {
    total_len_ += len;
    while (len > 0) {
      if (buffer_len_ == 0 && len >= 64) {
        ProcessBlock(data);
        data += 64;
        len -= 64;
        continue;
      }
      size_t take = std::min(len, 64 - buffer_len_);
      std::memcpy(buffer_ + buffer_len_, data, take);
      buffer_len_ += take;
      data += take;
      len -= take;
      if (buffer_len_ == 64) {
        ProcessBlock(buffer_);
        buffer_len_ = 0;
      }
    }
  }

  crypto::Digest Finish() {
    uint64_t bit_len = total_len_ * 8;
    // Padding: 0x80, zeros, then the 64-bit big-endian length — fed one
    // byte at a time exactly as the seed did.
    uint8_t pad = 0x80;
    Update(&pad, 1);
    uint8_t zero = 0;
    while (buffer_len_ != 56) {
      Update(&zero, 1);
    }
    uint8_t len_bytes[8];
    for (int i = 0; i < 8; ++i) {
      len_bytes[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
    }
    std::memcpy(buffer_ + buffer_len_, len_bytes, 8);
    ProcessBlock(buffer_);
    buffer_len_ = 0;

    crypto::Digest out;
    for (int i = 0; i < 8; ++i) {
      out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
      out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
      out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
      out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
    }
    return out;
  }

 private:
  void ProcessBlock(const uint8_t block[64]) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
             (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = SeedRotr(w[i - 15], 7) ^ SeedRotr(w[i - 15], 18) ^
                    (w[i - 15] >> 3);
      uint32_t s1 = SeedRotr(w[i - 2], 17) ^ SeedRotr(w[i - 2], 19) ^
                    (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = SeedRotr(e, 6) ^ SeedRotr(e, 11) ^ SeedRotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kSeedK[i] + w[i];
      uint32_t s0 = SeedRotr(a, 2) ^ SeedRotr(a, 13) ^ SeedRotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
  }

  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[64];
  size_t buffer_len_ = 0;
};

/// The seed's HmacSha256, verbatim: key block + ipad/opad schedule rebuilt
/// on every call, all four digests finalized with byte-at-a-time padding.
crypto::Digest SeedHmacSha256(const Bytes& key, const Bytes& msg) {
  constexpr size_t kBlock = 64;
  uint8_t key_block[kBlock] = {0};
  if (key.size() > kBlock) {
    crypto::Digest kd = crypto::Sha256Digest(key);
    std::memcpy(key_block, kd.data(), kd.size());
  } else {
    std::memcpy(key_block, key.data(), key.size());
  }

  uint8_t ipad[kBlock];
  uint8_t opad[kBlock];
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }

  SeedSha256 inner;
  inner.Update(ipad, kBlock);
  inner.Update(msg.data(), msg.size());
  crypto::Digest inner_digest = inner.Finish();

  SeedSha256 outer;
  outer.Update(opad, kBlock);
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

/// One sign+verify round trip through the frozen seed path: the
/// pre-optimization cost model (key schedule rebuilt on both sides,
/// byte-at-a-time padding in every Finish()).
double NaiveSignVerifyOpsPerSec(const Bytes& key, const Bytes& msg,
                                int iters) {
  crypto::Digest sink{};
  auto start = Clock::now();
  for (int i = 0; i < iters; ++i) {
    crypto::Digest mac = SeedHmacSha256(key, msg);  // sign
    ClobberMemory();
    bool ok = SeedHmacSha256(key, msg) == mac;  // verify
    ClobberMemory();
    sink[0] ^= mac[0] ^ static_cast<uint8_t>(ok);
  }
  auto end = Clock::now();
  if (sink[0] == 0xEE) std::fprintf(stderr, "?");  // defeat DCE
  return iters / Seconds(start, end);
}

/// The same round trip through the midstate-cached key.
double PrecomputedSignVerifyOpsPerSec(const crypto::PrecomputedHmacKey& key,
                                      const Bytes& msg, int iters) {
  crypto::Digest sink{};
  auto start = Clock::now();
  for (int i = 0; i < iters; ++i) {
    crypto::Digest mac = key.Sign(msg);  // sign
    ClobberMemory();
    bool ok = key.Verify(msg, mac);  // verify
    ClobberMemory();
    sink[0] ^= mac[0] ^ static_cast<uint8_t>(ok);
  }
  auto end = Clock::now();
  if (sink[0] == 0xEE) std::fprintf(stderr, "?");
  return iters / Seconds(start, end);
}

/// Verify of an already-seen (signer, mac, msg) triple through the
/// KeyStore's verify-once cache.
double CachedVerifyOpsPerSec(int iters) {
  crypto::KeyStore keys;
  auto signer = keys.RegisterNode({0, 0});
  Bytes msg(48, 0x5b);
  crypto::Signature sig = signer->Sign(msg);
  bool first = keys.Verify(msg, sig);  // prime the cache
  auto start = Clock::now();
  bool ok = first;
  for (int i = 0; i < iters; ++i) ok &= keys.Verify(msg, sig);
  auto end = Clock::now();
  if (!ok) std::fprintf(stderr, "cached verify failed?!\n");
  return iters / Seconds(start, end);
}

struct WorkloadStats {
  uint64_t commits = 0;
  HotPathStats stats;
  double sim_wall_seconds = 0;
};

/// Commits `n` values through a full 4-node PBFT unit, and snapshots the
/// hot-path counters it generated.
WorkloadStats RunPbftCommitWorkload(int n) {
  sim::Simulator simulator(1);
  core::BlockplaneOptions options;
  options.checkpoint_interval = 32;
  core::Deployment deployment(&simulator, net::Topology::SingleSite(),
                              options);
  hotpath_stats().Reset();
  auto start = Clock::now();
  WorkloadStats out;
  for (int i = 0; i < n; ++i) {
    bool done = false;
    deployment.participant(0)->LogCommit(
        Bytes(256, static_cast<uint8_t>(i)), 0, [&](uint64_t) { done = true; });
    if (simulator.RunUntilCondition([&] { return done; },
                                    simulator.Now() + sim::Seconds(10))) {
      ++out.commits;
    }
  }
  auto end = Clock::now();
  out.stats = hotpath_stats();
  out.sim_wall_seconds = Seconds(start, end);
  hotpath_stats().Reset();
  return out;
}

/// Drives traffic over a deliberately lossy/duplicating network so the
/// transport's shared retransmission buffers and the network's shared
/// delivery closures do real work.
HotPathStats RunLossyTransmissionWorkload(int n) {
  sim::Simulator simulator(2);
  core::Deployment deployment(&simulator, net::Topology::Aws4(), {});
  // Loss/duplication rates match the tier-1 lossy sweep: high enough that
  // daemons retransmit and the network duplicates (both sharing payload
  // buffers), low enough that intra-site consensus stays live.
  deployment.network()->set_drop_prob(0.01);
  deployment.network()->set_duplicate_prob(0.02);
  hotpath_stats().Reset();
  int delivered = 0;
  deployment.participant(1)->SetReceiveHandler(
      [&](net::SiteId, const Bytes&) { ++delivered; });
  for (int i = 0; i < n; ++i) {
    deployment.participant(0)->Send(1, Bytes(512, static_cast<uint8_t>(i)), 0,
                                    nullptr);
  }
  simulator.RunUntilCondition([&] { return delivered >= n; },
                              sim::Seconds(300));
  HotPathStats stats = hotpath_stats();
  hotpath_stats().Reset();
  return stats;
}

void PutStats(std::ofstream& out, const HotPathStats& s,
              const char* indent) {
  out << indent << "\"sig_cache_hits\": " << s.sig_cache_hits << ",\n"
      << indent << "\"sig_cache_misses\": " << s.sig_cache_misses << ",\n"
      << indent << "\"encodes_elided\": " << s.encodes_elided << ",\n"
      << indent << "\"bytes_copied_saved\": " << s.bytes_copied_saved << ",\n"
      << indent << "\"hmac_precomputed_ops\": " << s.hmac_precomputed_ops
      << ",\n"
      << indent << "\"verify_cache_evictions\": " << s.verify_cache_evictions
      << "\n";
}

}  // namespace
}  // namespace blockplane

int main(int argc, char** argv) {
  using namespace blockplane;

  std::string out_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::fprintf(stderr, "usage: %s [--out=PATH]\n", argv[0]);
      return 2;
    }
  }

  // --- 1. sign+verify throughput --------------------------------------------
  Bytes key(32, 0x42);  // deployment keys are 32-byte digests (signer.cc)
  Bytes msg(48, 0xa7);  // a canonical PBFT vote body is 49 bytes
  crypto::PrecomputedHmacKey fast_key(key);
  // The frozen baseline must agree bit-for-bit with both the live reference
  // and the optimized key, or the comparison is meaningless.
  if (SeedHmacSha256(key, msg) != crypto::HmacSha256(key, msg) ||
      SeedHmacSha256(key, msg) != fast_key.Sign(msg)) {
    std::fprintf(stderr, "baseline/optimized HMAC mismatch — bench invalid\n");
    return 1;
  }
  constexpr int kIters = 100000;
  // Warm-up, then interleaved best-of-N: taking each side's best trial
  // cancels transient machine noise (scheduler preemption, frequency
  // scaling) that would otherwise skew a single back-to-back comparison.
  NaiveSignVerifyOpsPerSec(key, msg, kIters / 10);
  PrecomputedSignVerifyOpsPerSec(fast_key, msg, kIters / 10);
  double naive = 0;
  double fast = 0;
  for (int trial = 0; trial < 5; ++trial) {
    naive = std::max(naive, NaiveSignVerifyOpsPerSec(key, msg, kIters));
    fast = std::max(fast,
                    PrecomputedSignVerifyOpsPerSec(fast_key, msg, kIters));
  }
  double cached = CachedVerifyOpsPerSec(kIters);
  double speedup = fast / naive;

  std::printf("sign+verify (48-byte msg):\n");
  std::printf("  naive reference   : %12.0f ops/s\n", naive);
  std::printf("  precomputed key   : %12.0f ops/s  (%.2fx)\n", fast, speedup);
  std::printf("  cached verify     : %12.0f verifies/s\n", cached);

  // --- 2. PBFT commit workload ----------------------------------------------
  WorkloadStats pbft = RunPbftCommitWorkload(200);
  std::printf("pbft commit workload (%llu commits, crypto ON):\n",
              static_cast<unsigned long long>(pbft.commits));
  std::printf("  sig_cache_hits=%lld misses=%lld encodes_elided=%lld\n",
              static_cast<long long>(pbft.stats.sig_cache_hits),
              static_cast<long long>(pbft.stats.sig_cache_misses),
              static_cast<long long>(pbft.stats.encodes_elided));
  std::printf("  bytes_copied_saved=%lld hmac_precomputed_ops=%lld\n",
              static_cast<long long>(pbft.stats.bytes_copied_saved),
              static_cast<long long>(pbft.stats.hmac_precomputed_ops));

  // --- 3. lossy-network workload --------------------------------------------
  HotPathStats lossy = RunLossyTransmissionWorkload(20);
  std::printf("lossy transmission workload:\n");
  std::printf("  bytes_copied_saved=%lld (shared retransmit/dup buffers)\n",
              static_cast<long long>(lossy.bytes_copied_saved));

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open --out path \"%s\"\n", out_path.c_str());
    return 2;
  }
  out << "{\n"
      << "  \"sign_verify\": {\n"
      << "    \"message_bytes\": " << msg.size() << ",\n"
      << "    \"naive_ops_per_sec\": " << naive << ",\n"
      << "    \"precomputed_ops_per_sec\": " << fast << ",\n"
      << "    \"cached_verify_ops_per_sec\": " << cached << ",\n"
      << "    \"speedup\": " << speedup << "\n"
      << "  },\n"
      << "  \"pbft_commit_workload\": {\n"
      << "    \"commits\": " << pbft.commits << ",\n"
      << "    \"wall_seconds\": " << pbft.sim_wall_seconds << ",\n";
  PutStats(out, pbft.stats, "    ");
  out << "  },\n"
      << "  \"lossy_transmission_workload\": {\n";
  PutStats(out, lossy, "    ");
  out << "  }\n"
      << "}\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  bool ok = speedup >= 2.0 && pbft.stats.sig_cache_hits > 0 &&
            pbft.stats.encodes_elided > 0;
  if (!ok) {
    std::fprintf(stderr,
                 "hot-path acceptance NOT met: speedup=%.2f hits=%lld "
                 "elided=%lld\n",
                 speedup, static_cast<long long>(pbft.stats.sig_cache_hits),
                 static_cast<long long>(pbft.stats.encodes_elided));
    return 1;
  }
  return 0;
}
