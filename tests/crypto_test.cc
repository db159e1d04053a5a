// Unit tests for the crypto substrate: SHA-256 against FIPS vectors,
// HMAC-SHA256 against RFC 4231 vectors, the SHA-extensions compression
// kernel against the scalar definition, signatures, and the
// signature-vector proof codec PBFT messages use.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/codec.h"
#include "common/metrics.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/signer.h"
#include "sim/random.h"

namespace blockplane::crypto {
namespace {

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256Digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256Digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestToHex(Sha256Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(chunk);
  EXPECT_EQ(DigestToHex(ctx.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 ctx;
  for (char c : msg) ctx.Update(std::string_view(&c, 1));
  EXPECT_EQ(ctx.Finish(), Sha256Digest(msg));
}

TEST(Sha256Test, ExactBlockBoundary) {
  std::string msg(64, 'x');
  std::string msg2(63, 'x');
  std::string msg3(65, 'x');
  EXPECT_NE(Sha256Digest(msg), Sha256Digest(msg2));
  EXPECT_NE(Sha256Digest(msg), Sha256Digest(msg3));
  // Streaming across the boundary agrees with one-shot.
  Sha256 ctx;
  ctx.Update(msg.substr(0, 40));
  ctx.Update(msg.substr(40));
  EXPECT_EQ(ctx.Finish(), Sha256Digest(msg));
}

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(DigestToHex(HmacSha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  Bytes key = ToBytes("Jefe");
  EXPECT_EQ(DigestToHex(HmacSha256(key, "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(DigestToHex(HmacSha256(
                key, "Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(SignerTest, SignVerifyRoundTrip) {
  KeyStore store;
  auto signer = store.RegisterNode({0, 1});
  Bytes msg = ToBytes("commit record 42");
  Signature sig = signer->Sign(msg);
  EXPECT_EQ(sig.signer, (net::NodeId{0, 1}));
  EXPECT_TRUE(store.Verify(msg, sig));
}

TEST(SignerTest, TamperedMessageFailsVerification) {
  KeyStore store;
  auto signer = store.RegisterNode({0, 1});
  Signature sig = signer->Sign(ToBytes("original"));
  EXPECT_FALSE(store.Verify(ToBytes("tampered"), sig));
}

TEST(SignerTest, SignatureNotTransferableBetweenNodes) {
  KeyStore store;
  auto signer1 = store.RegisterNode({0, 1});
  store.RegisterNode({0, 2});
  Bytes msg = ToBytes("msg");
  Signature sig = signer1->Sign(msg);
  // A byzantine node relabeling the signature as node 0-2's does not verify.
  sig.signer = {0, 2};
  EXPECT_FALSE(store.Verify(msg, sig));
}

TEST(SignerTest, UnknownSignerFailsVerification) {
  KeyStore store;
  Signature sig;
  sig.signer = {9, 9};
  EXPECT_FALSE(store.Verify(ToBytes("m"), sig));
}

TEST(SignerTest, RegisterIsIdempotent) {
  KeyStore store;
  auto a = store.RegisterNode({1, 0});
  auto b = store.RegisterNode({1, 0});
  Bytes msg = ToBytes("m");
  EXPECT_EQ(a->Sign(msg).mac, b->Sign(msg).mac);
}

TEST(ProofCodecTest, RoundTrip) {
  KeyStore store;
  auto s0 = store.RegisterNode({2, 3});
  auto s1 = store.RegisterNode({2, 4});
  Bytes msg = ToBytes("payload");
  std::vector<Signature> proof = {s0->Sign(msg), s1->Sign(msg)};

  Encoder enc;
  WirePut(&enc, proof);
  Decoder dec(enc.buffer());
  std::vector<Signature> decoded;
  ASSERT_TRUE(WireGet(&dec, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], proof[0]);
  EXPECT_EQ(decoded[1], proof[1]);
  for (const Signature& sig : decoded) EXPECT_TRUE(store.Verify(msg, sig));
}

TEST(ProofCodecTest, TruncatedMacRejected) {
  KeyStore store;
  auto s0 = store.RegisterNode({0, 0});
  Encoder enc;
  WirePut(&enc, std::vector<Signature>{s0->Sign(ToBytes("m"))});
  const Bytes& wire = enc.buffer();
  // Every cut inside the 32-byte MAC must fail cleanly.
  for (size_t cut = wire.size() - 32; cut < wire.size(); ++cut) {
    Bytes truncated(wire.data(), wire.data() + cut);
    Decoder dec(truncated);
    std::vector<Signature> decoded;
    EXPECT_TRUE(WireGet(&dec, &decoded).IsCorruption()) << "cut=" << cut;
  }
}

TEST(ProofCodecTest, OversizedProofRejected) {
  Encoder enc;
  enc.PutVarint(100000);
  Decoder dec(enc.buffer());
  std::vector<Signature> decoded;
  EXPECT_TRUE(WireGet(&dec, &decoded).IsCorruption());
}

// --- PrecomputedHmacKey equivalence (property test) --------------------------

Bytes RandomBytes(sim::Rng* rng, size_t len) {
  Bytes out(len);
  for (auto& b : out) b = static_cast<uint8_t>(rng->NextBelow(256));
  return out;
}

TEST(PrecomputedHmacKeyTest, MatchesReferenceForRandomKeysAndLengths) {
  // The midstate path must be bit-identical to the stateless reference for
  // every key length — shorter than, equal to, and longer than the 64-byte
  // block (long keys are pre-hashed per RFC 2104) — and every message
  // length across the SHA-256 padding boundaries.
  sim::Rng rng(20260806);
  const size_t key_lens[] = {0, 1, 16, 31, 32, 63, 64, 65, 100, 128, 257};
  for (size_t key_len : key_lens) {
    Bytes key = RandomBytes(&rng, key_len);
    PrecomputedHmacKey fast(key);
    const size_t msg_lens[] = {0,  1,  47,  48,  55,  56,  63,
                               64, 65, 119, 120, 127, 128, 1000};
    for (size_t msg_len : msg_lens) {
      Bytes msg = RandomBytes(&rng, msg_len);
      EXPECT_EQ(fast.Sign(msg), HmacSha256(key, msg))
          << "key_len=" << key_len << " msg_len=" << msg_len;
    }
  }
}

TEST(PrecomputedHmacKeyTest, RandomizedFuzzAgainstReference) {
  sim::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    Bytes key = RandomBytes(&rng, rng.NextBelow(200));
    Bytes msg = RandomBytes(&rng, rng.NextBelow(500));
    PrecomputedHmacKey fast(key);
    ASSERT_EQ(fast.Sign(msg), HmacSha256(key, msg)) << "iteration " << i;
  }
}

TEST(PrecomputedHmacKeyTest, KeyIsReusableAcrossManySigns) {
  // Sign must not corrupt the cached midstates: the Nth signature equals
  // the 1st for identical input, and interleaved inputs don't cross-talk.
  sim::Rng rng(7);
  Bytes key = RandomBytes(&rng, 32);
  PrecomputedHmacKey fast(key);
  Bytes a = ToBytes("alpha");
  Bytes b = ToBytes("beta");
  Digest first_a = fast.Sign(a);
  Digest first_b = fast.Sign(b);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(fast.Sign(a), first_a);
    EXPECT_EQ(fast.Sign(b), first_b);
  }
  EXPECT_NE(first_a, first_b);
}

TEST(PrecomputedHmacKeyTest, VerifyAcceptsGenuineRejectsTampered) {
  sim::Rng rng(13);
  Bytes key = RandomBytes(&rng, 64);
  PrecomputedHmacKey fast(key);
  Bytes msg = ToBytes("payload under test");
  Digest mac = fast.Sign(msg);
  EXPECT_TRUE(fast.Verify(msg, mac));
  Digest bad_mac = mac;
  bad_mac[0] ^= 0x01;
  EXPECT_FALSE(fast.Verify(msg, bad_mac));
  Bytes bad_msg = msg;
  bad_msg.back() ^= 0x01;
  EXPECT_FALSE(fast.Verify(bad_msg, mac));
}

// --- compression kernels: SHA extensions vs the scalar definition ------------

/// Digest oracle over one compression kernel: the FIPS 180-4 padding is
/// spelled out here, independently of Sha256::Finish, and every block goes
/// through `kernel`.
Digest DigestWithKernel(internal::CompressFn kernel, const Bytes& msg) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  kernel(state, padded.data(), padded.size() / 64);
  Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[4 * i + j] = static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

Digest ScalarDigest(const Bytes& msg) {
  return DigestWithKernel(&internal::CompressScalar, msg);
}

/// The RFC 2104 key block: long keys hashed (by the scalar oracle), then
/// zero-padded to 64 bytes.
Bytes ScalarHmacKeyBlock(const Bytes& key) {
  Bytes block(64, 0);
  if (key.size() > 64) {
    Digest kd = ScalarDigest(key);
    std::copy(kd.begin(), kd.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }
  return block;
}

/// RFC 2104 HMAC-SHA256 built on the scalar oracle alone.
Digest ScalarHmac(const Bytes& key, const Bytes& msg) {
  const Bytes block = ScalarHmacKeyBlock(key);
  Bytes inner;
  Bytes outer;
  for (uint8_t b : block) {
    inner.push_back(b ^ 0x36);
    outer.push_back(b ^ 0x5c);
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  Digest inner_digest = ScalarDigest(inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return ScalarDigest(outer);
}

TEST(Sha256KernelTest, ScalarOracleMatchesPublishedVectors) {
  EXPECT_EQ(DigestToHex(ScalarDigest(ToBytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestToHex(ScalarDigest(ToBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      DigestToHex(ScalarDigest(ToBytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(DigestToHex(ScalarHmac(Bytes(20, 0x0b), ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(
      DigestToHex(ScalarHmac(
          Bytes(131, 0xaa),
          ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

/// Runs only where the CPU has the SHA extensions; every other test in
/// this file already exercises whichever kernel the host selected.
class ShaNiKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    accel_ = internal::AcceleratedKernel();
    if (accel_ == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  }

  internal::CompressFn accel_ = nullptr;
};

TEST_F(ShaNiKernelTest, DispatchSelectsTheAcceleratedKernel) {
  EXPECT_EQ(internal::ActiveKernel(), accel_);
  EXPECT_STREQ(Sha256Backend(), "sha-ni");
}

TEST_F(ShaNiKernelTest, RandomStatesAndBlockRunsMatchScalar) {
  sim::Rng rng(0x5a256);
  const size_t runs[] = {1, 2, 3, 7, 16, 512};
  for (size_t nblocks : runs) {
    for (int trial = 0; trial < 8; ++trial) {
      uint32_t scalar[8];
      for (uint32_t& word : scalar) {
        word = static_cast<uint32_t>(rng.NextU64());
      }
      uint32_t accel[8];
      std::copy(std::begin(scalar), std::end(scalar), std::begin(accel));
      Bytes data = RandomBytes(&rng, nblocks * 64);
      internal::CompressScalar(scalar, data.data(), nblocks);
      accel_(accel, data.data(), nblocks);
      for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(accel[i], scalar[i])
            << "nblocks=" << nblocks << " trial=" << trial << " word=" << i;
      }
    }
  }
}

TEST_F(ShaNiKernelTest, EveryLengthUpTo1KiBAnd32KiB) {
  sim::Rng rng(1024);
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 1024; ++len) lengths.push_back(len);
  lengths.push_back(32768);
  for (size_t len : lengths) {
    Bytes msg = RandomBytes(&rng, len);
    const Digest expected = ScalarDigest(msg);
    ASSERT_EQ(DigestWithKernel(accel_, msg), expected) << "len=" << len;
    ASSERT_EQ(Sha256Digest(msg), expected) << "len=" << len;
  }
}

TEST_F(ShaNiKernelTest, UpdateSplitAtEveryOffsetOfThreeBlocks) {
  // Three Update() calls cut at every pair of offsets into a 3-block
  // message: partial-buffer fills, whole-block runs, and empty pieces.
  sim::Rng rng(192);
  Bytes msg = RandomBytes(&rng, 192);
  const Digest expected = ScalarDigest(msg);
  for (size_t i = 0; i <= msg.size(); ++i) {
    for (size_t j = i; j <= msg.size(); ++j) {
      Sha256 ctx;
      ctx.Update(msg.data(), i);
      ctx.Update(msg.data() + i, j - i);
      ctx.Update(msg.data() + j, msg.size() - j);
      ASSERT_EQ(ctx.Finish(), expected) << "split at " << i << "," << j;
    }
  }
}

TEST_F(ShaNiKernelTest, HmacMidstatesMatchScalar) {
  sim::Rng rng(4231);
  const size_t key_lens[] = {0, 1, 20, 32, 63, 64, 65, 131};
  const size_t msg_lens[] = {0, 1, 55, 56, 63, 64, 65, 200, 1000, 32768};
  for (size_t key_len : key_lens) {
    Bytes key = RandomBytes(&rng, key_len);
    PrecomputedHmacKey fast(key);
    // The captured midstate is one scalar compression of key ^ ipad.
    Bytes block = ScalarHmacKeyBlock(key);
    for (uint8_t& b : block) b ^= 0x36;
    Sha256 ctx;
    ctx.Update(block);
    Sha256Midstate midstate = ctx.CaptureMidstate();
    uint32_t scalar[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                          0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    internal::CompressScalar(scalar, block.data(), 1);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(midstate.state[i], scalar[i]) << "key_len=" << key_len;
    }
    for (size_t msg_len : msg_lens) {
      Bytes msg = RandomBytes(&rng, msg_len);
      EXPECT_EQ(fast.Sign(msg), ScalarHmac(key, msg))
          << "key_len=" << key_len << " msg_len=" << msg_len;
    }
  }
}

// --- KeyStore verify-once cache ---------------------------------------------

TEST(VerifyCacheTest, RepeatedVerifyHitsCache) {
  KeyStore keys;
  auto signer = keys.RegisterNode({0, 0});
  Bytes msg = ToBytes("quorum certificate bytes");
  Signature sig = signer->Sign(msg);

  hotpath_stats().Reset();
  EXPECT_TRUE(keys.Verify(msg, sig));  // miss: full HMAC, then cached
  EXPECT_EQ(hotpath_stats().sig_cache_hits, 0);
  EXPECT_EQ(hotpath_stats().sig_cache_misses, 1);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(keys.Verify(msg, sig));
  EXPECT_EQ(hotpath_stats().sig_cache_hits, 10);
  EXPECT_EQ(hotpath_stats().sig_cache_misses, 1);
  hotpath_stats().Reset();
}

TEST(VerifyCacheTest, ForgedSignaturesNeverHitTheCache) {
  // A cached success for (signer, mac, msg) must not leak acceptance to any
  // forgery: flipped mac, flipped msg, or a different claimed signer all
  // take (and fail) the full check, every time.
  KeyStore keys;
  auto signer = keys.RegisterNode({0, 0});
  keys.RegisterNode({0, 1});
  Bytes msg = ToBytes("transfer 100 coins");
  Signature sig = signer->Sign(msg);
  ASSERT_TRUE(keys.Verify(msg, sig));  // prime the cache

  Signature forged_mac = sig;
  forged_mac.mac[5] ^= 0xff;
  Bytes forged_msg = msg;
  forged_msg[0] ^= 0xff;
  Signature stolen = sig;  // genuine mac, wrong claimed signer
  stolen.signer = {0, 1};
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(keys.Verify(msg, forged_mac));
    EXPECT_FALSE(keys.Verify(forged_msg, sig));
    EXPECT_FALSE(keys.Verify(msg, stolen));
  }
  // The genuine triple still verifies after the forgery attempts.
  EXPECT_TRUE(keys.Verify(msg, sig));
}

TEST(VerifyCacheTest, DisabledCacheStillVerifiesCorrectly) {
  KeyStore keys;
  keys.set_verify_cache_capacity(0);
  auto signer = keys.RegisterNode({1, 2});
  Bytes msg = ToBytes("no cache");
  Signature sig = signer->Sign(msg);
  hotpath_stats().Reset();
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(keys.Verify(msg, sig));
  EXPECT_EQ(hotpath_stats().sig_cache_hits, 0);
  Signature bad = sig;
  bad.mac[0] ^= 1;
  EXPECT_FALSE(keys.Verify(msg, bad));
  hotpath_stats().Reset();
}

TEST(VerifyCacheTest, CapacityIsBoundedUnderChurn) {
  // Flood far past capacity: correctness holds (evicted entries simply
  // re-verify) and the generations flip instead of growing unboundedly.
  KeyStore keys;
  keys.set_verify_cache_capacity(64);
  auto signer = keys.RegisterNode({2, 0});
  hotpath_stats().Reset();
  std::vector<std::pair<Bytes, Signature>> signed_msgs;
  for (int i = 0; i < 500; ++i) {
    Bytes msg = ToBytes("msg-" + std::to_string(i));
    Signature sig = signer->Sign(msg);
    signed_msgs.emplace_back(msg, sig);
    ASSERT_TRUE(keys.Verify(msg, sig));
  }
  EXPECT_GT(hotpath_stats().verify_cache_evictions, 0);
  // Every message still verifies — via cache or full HMAC alike.
  for (const auto& [msg, sig] : signed_msgs) {
    ASSERT_TRUE(keys.Verify(msg, sig));
  }
  hotpath_stats().Reset();
}

}  // namespace
}  // namespace blockplane::crypto
