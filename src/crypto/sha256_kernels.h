// SHA-256 compression kernels (internal to src/crypto, plus the tests and
// micro-benchmarks that compare them). Everything else hashes through
// Sha256 / Sha256Digest in sha256.h, which route every whole 64-byte block
// through Compress().
#ifndef BLOCKPLANE_CRYPTO_SHA256_KERNELS_H_
#define BLOCKPLANE_CRYPTO_SHA256_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace blockplane::crypto::internal {

/// Absorbs `nblocks` consecutive 64-byte blocks at `data` into `state`.
using CompressFn = void (*)(uint32_t state[8], const uint8_t* data,
                            size_t nblocks);

/// The portable FIPS 180-4 compression: the definition every other kernel
/// must match bit for bit, and the fallback on hosts without SHA extensions.
void CompressScalar(uint32_t state[8], const uint8_t* data, size_t nblocks);

/// The x86 SHA-extensions kernel when this build has one and the CPU
/// supports it (CPUID leaf 7 EBX bit 29, plus SSSE3 and SSE4.1); nullptr
/// otherwise.
CompressFn AcceleratedKernel();

/// The kernel Compress() dispatches to: AcceleratedKernel() when non-null,
/// else CompressScalar. Chosen once per process.
CompressFn ActiveKernel();

/// Dispatching entry point used by Sha256.
void Compress(uint32_t state[8], const uint8_t* data, size_t nblocks);

}  // namespace blockplane::crypto::internal

#endif  // BLOCKPLANE_CRYPTO_SHA256_KERNELS_H_
