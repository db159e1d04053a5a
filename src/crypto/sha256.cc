#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/macros.h"
#include "crypto/sha256_kernels.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace blockplane::crypto {

namespace {

constexpr size_t kBlockSize = 64;

constexpr uint32_t kK[64] = {
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

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)

bool CpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

#define BP_SHANI_TARGET __attribute__((target("sha,sse4.1")))

// Message-schedule words W[4g..4g+3] from the four previous schedule
// vectors, oldest first.
BP_SHANI_TARGET inline __m128i NextSchedule(__m128i w4, __m128i w3,
                                            __m128i w2, __m128i w1) {
  __m128i t = _mm_sha256msg1_epu32(w4, w3);           // W[i-16] + s0
  t = _mm_add_epi32(t, _mm_alignr_epi8(w1, w2, 4));  // + W[i-7]
  return _mm_sha256msg2_epu32(t, w1);                 // + s1
}

// Four rounds over schedule vector `w` and round constants k[0..3]. Each
// sha256rnds2 does two rounds and leaves the new ABEF in its destination,
// so the two state registers swap roles and swap back.
BP_SHANI_TARGET inline void FourRounds(__m128i* abef, __m128i* cdgh,
                                       __m128i w, const uint32_t* k) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
  *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// SHA-extensions compression. The state stays in two registers in the
// instructions' ABEF/CDGH lane order across all `nblocks` blocks. Register
// names list lanes from high to low, as the instruction set documents them.
BP_SHANI_TARGET void CompressShaNi(uint32_t state[8], const uint8_t* data,
                                   size_t nblocks) {
  // Big-endian message words: reverse the bytes of each 32-bit lane.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, data += kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* block = reinterpret_cast<const __m128i*>(data);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(block), kByteSwap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(block + 1), kByteSwap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(block + 2), kByteSwap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(block + 3), kByteSwap);
    for (int quarter = 0; quarter < 4; ++quarter) {
      if (quarter > 0) {
        w0 = NextSchedule(w0, w1, w2, w3);
        w1 = NextSchedule(w1, w2, w3, w0);
        w2 = NextSchedule(w2, w3, w0, w1);
        w3 = NextSchedule(w3, w0, w1, w2);
      }
      const uint32_t* k = kK + 16 * quarter;
      FourRounds(&abef, &cdgh, w0, k);
      FourRounds(&abef, &cdgh, w1, k + 4);
      FourRounds(&abef, &cdgh, w2, k + 8);
      FourRounds(&abef, &cdgh, w3, k + 12);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // state[0..3]
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));     // state[4..7]
}

#undef BP_SHANI_TARGET

#endif  // defined(__x86_64__)

}  // namespace

namespace internal {

void CompressScalar(uint32_t state[8], const uint8_t* data, size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[i * 4]) << 24) |
             (static_cast<uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
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

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

CompressFn AcceleratedKernel() {
#if defined(__x86_64__)
  static const bool supported = CpuHasShaNi();
  return supported ? &CompressShaNi : nullptr;
#else
  return nullptr;
#endif
}

CompressFn ActiveKernel() {
  static const CompressFn kernel =
      AcceleratedKernel() != nullptr ? AcceleratedKernel() : &CompressScalar;
  return kernel;
}

void Compress(uint32_t state[8], const uint8_t* data, size_t nblocks) {
  ActiveKernel()(state, data, nblocks);
}

}  // namespace internal

const char* Sha256Backend() {
  return internal::ActiveKernel() == &internal::CompressScalar ? "scalar"
                                                               : "sha-ni";
}

void Sha256::Reset() {
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

void Sha256::Update(const uint8_t* data, size_t len) {
  // The length guard matters: an empty Bytes has data() == nullptr, and
  // memcpy from a null source is undefined even for zero bytes.
  if (len == 0) return;
  total_len_ += len;
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < kBlockSize) return;
    internal::Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Every whole block goes to one Compress() call, so an accelerated kernel
  // keeps the state in registers across the whole run.
  const size_t nblocks = len / kBlockSize;
  if (nblocks > 0) {
    internal::Compress(state_, data, nblocks);
    data += nblocks * kBlockSize;
    len -= nblocks * kBlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

Digest Sha256::Finish() {
  // Padding: 0x80, zeros up to 8 bytes before the end of the final block,
  // then the 64-bit big-endian message length. Built after the buffered
  // tail in one or two blocks and absorbed by one Compress() call, without
  // touching total_len_: padding bytes are not message bytes.
  uint8_t tail[2 * kBlockSize];
  size_t n = buffer_len_;  // < 64: Update() flushes full blocks eagerly
  std::memcpy(tail, buffer_, n);
  tail[n++] = 0x80;
  const size_t end = n > kBlockSize - 8 ? 2 * kBlockSize : kBlockSize;
  std::memset(tail + n, 0, end - 8 - n);
  const uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i) {
    tail[end - 8 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  internal::Compress(state_, tail, end / kBlockSize);
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Sha256Midstate Sha256::CaptureMidstate() const {
  BP_CHECK_MSG(buffer_len_ == 0,
               "midstate capture requires a block-aligned byte count");
  Sha256Midstate midstate;
  std::memcpy(midstate.state, state_, sizeof(state_));
  midstate.processed_bytes = total_len_;
  return midstate;
}

void Sha256::RestoreMidstate(const Sha256Midstate& midstate) {
  std::memcpy(state_, midstate.state, sizeof(state_));
  total_len_ = midstate.processed_bytes;
  buffer_len_ = 0;
}

Digest Sha256Digest(const uint8_t* data, size_t len) {
  Sha256 ctx;
  ctx.Update(data, len);
  return ctx.Finish();
}

std::string DigestToHex(const Digest& d) {
  return HexEncode(d.data(), d.size());
}

}  // namespace blockplane::crypto
