// Allocation budgets of the per-message hot path (DESIGN.md §7 item 6).
//
// This binary replaces the global operator new with a counting one that
// also records its largest request. After a warm-up, scheduling and
// running a simulator event, re-arming a timer, delivering an
// already-encoded message, and a signature- or cert-cache hit allocate
// nothing, and a wire encoding allocates its buffer exactly once. A decoded
// list count never sizes an allocation past what the message can hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/codec.h"
#include "core/batcher.h"
#include "crypto/quorum_cert.h"
#include "crypto/signer.h"
#include "net/network.h"
#include "pbft/message.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace {
int64_t g_allocations = 0;
std::size_t g_largest = 0;

void* CountedAlloc(std::size_t size) {
  ++g_allocations;
  g_largest = std::max(g_largest, size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace blockplane {
namespace {

/// The number of operator new calls `fn` makes.
template <typename Fn>
int64_t AllocationsIn(Fn&& fn) {
  const int64_t before = g_allocations;
  fn();
  return g_allocations - before;
}

TEST(AllocTest, SimulatorEventsAllocateNothing) {
  sim::Simulator simulator;
  int64_t fired = 0;
  int64_t* counter = &fired;
  const int64_t step = 1;
  const int64_t* by = &step;
  // 16 bytes of captures: std::function keeps them inline.
  auto event = [counter, by] { *counter += *by; };
  static_assert(sizeof(event) == 16);
  simulator.Schedule(1, event);
  simulator.Run();
  const int64_t allocations = AllocationsIn([&] {
    for (int i = 0; i < 10000; ++i) {
      simulator.Schedule(1, event);
      simulator.Run();
    }
  });
  EXPECT_EQ(fired, 10001);
  EXPECT_EQ(allocations, 0);
}

TEST(AllocTest, TimerRearmAllocatesNothing) {
  sim::Simulator simulator;
  sim::Timer timer(&simulator);
  int64_t fired = 0;
  int64_t* counter = &fired;
  const int64_t step = 1;
  const int64_t* by = &step;
  auto event = [counter, by] { *counter += *by; };
  static_assert(sizeof(event) == 16);
  timer.Arm(2, event);
  simulator.RunFor(1);
  // A watchdog fed before it fires: each re-arm cancels the pending event
  // and schedules the callback as given, with no wrapper around it.
  const int64_t allocations = AllocationsIn([&] {
    for (int i = 0; i < 10000; ++i) {
      timer.Arm(2, event);
      simulator.RunFor(1);
    }
  });
  EXPECT_EQ(allocations, 0);
  simulator.Run();
  EXPECT_EQ(fired, 1);
}

/// Counts what it is handed and does nothing else.
class CountingHost : public net::Host {
 public:
  void HandleMessage(const net::Message& msg) override {
    ++messages;
    bytes += static_cast<int64_t>(msg.body().size());
  }
  int64_t messages = 0;
  int64_t bytes = 0;
};

TEST(AllocTest, NetworkDeliveryAllocatesNothing) {
  sim::Simulator simulator;
  net::Network network(&simulator, net::Topology::SingleSite());
  CountingHost a, b;
  network.Register({0, 0}, &a);
  network.Register({0, 1}, &b);
  net::Message msg;
  msg.src = {0, 0};
  msg.dst = {0, 1};
  msg.type = 1;
  msg.payload = net::MakePayload(Bytes(100, 7));
  network.Send(msg);
  simulator.Run();
  const int64_t allocations = AllocationsIn([&] {
    network.Send(msg);
    simulator.Run();
  });
  EXPECT_EQ(b.messages, 2);
  EXPECT_EQ(b.bytes, 200);
  EXPECT_EQ(allocations, 0);
}

TEST(AllocTest, WireEncodeAllocatesOnce) {
  pbft::VoteMsg vote;
  vote.type = pbft::kCommit;
  vote.view = 3;
  vote.seq = 1234;
  vote.sig.signer = {0, 2};
  Bytes encoded;
  EXPECT_EQ(AllocationsIn([&] { encoded = vote.Encode(); }), 1);
  EXPECT_EQ(encoded.capacity(), encoded.size()) << "sized exactly";

  pbft::PrePrepareMsg pp;
  pp.view = 3;
  pp.seq = 1234;
  pp.client_token = 99;
  pp.req_id = 7;
  pp.value = Bytes(1024, 'v');
  EXPECT_EQ(AllocationsIn([&] { encoded = pp.Encode(); }), 1);
  EXPECT_EQ(encoded.capacity(), encoded.size()) << "sized exactly";
}

TEST(AllocTest, SignatureCacheHitAllocatesNothing) {
  crypto::KeyStore keys;
  auto signer = keys.RegisterNode({0, 0});
  const Bytes msg(200, 1);
  const crypto::Signature sig = signer->Sign(msg);
  ASSERT_TRUE(keys.Verify(msg, sig));  // a miss: the entry goes in
  bool ok = false;
  EXPECT_EQ(AllocationsIn([&] { ok = keys.Verify(msg, sig); }), 0);
  EXPECT_TRUE(ok);
}

TEST(AllocTest, CertCacheHitAllocatesNothing) {
  crypto::KeyStore keys;
  const Bytes msg(200, 1);
  std::vector<std::unique_ptr<crypto::Signer>> signers;
  std::vector<crypto::Signature> sigs;
  for (int32_t i = 0; i < 2; ++i) {
    signers.push_back(keys.RegisterNode({0, i}));
    sigs.push_back(signers.back()->Sign(msg));
  }
  const crypto::QuorumCert cert = crypto::BuildQuorumCert(0, sigs);
  ASSERT_TRUE(keys.VerifyCert(msg, cert, 2));  // a miss: the entry goes in
  bool ok = false;
  EXPECT_EQ(AllocationsIn([&] { ok = keys.VerifyCert(msg, cert, 2); }), 0);
  EXPECT_TRUE(ok);
}

TEST(AllocTest, OversizedListCountAllocatesNothing) {
  // A 4-byte batch body whose count claims 1,000,000 elements, the default
  // list cap. The codec's one count reader (WireGetList) bounds a count by
  // the bytes left before it reserves anything.
  Encoder enc;
  enc.PutVarint(1000000);
  enc.PutU8(0);
  const Bytes body = enc.Take();
  ASSERT_EQ(body.size(), 4u);
  std::vector<Bytes> ops;
  Status status;
  g_largest = 0;
  AllocationsIn([&] { status = core::Batcher::DecodeBatch(body, &ops); });
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_LE(g_largest, 1024u) << "largest single request, in bytes";
}

}  // namespace
}  // namespace blockplane
