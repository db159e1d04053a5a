// Unit tests for the common substrate: Status, StatusOr, codec, crc32,
// bytes, and metrics.
#include <gtest/gtest.h>

#include <limits>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/status_or.h"

namespace blockplane {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such record");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "no such record");
  EXPECT_EQ(s.ToString(), "NotFound: no such record");
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::Corruption("bad bytes");
  Status t = s;
  EXPECT_TRUE(t.IsCorruption());
  EXPECT_EQ(t.message(), "bad bytes");
  EXPECT_EQ(s, t);
  t = Status::OK();
  EXPECT_TRUE(t.ok());
  EXPECT_TRUE(s.IsCorruption());  // source unchanged
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
  EXPECT_TRUE(Status::PermissionDenied("x").IsPermissionDenied());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::TimedOut("slow");
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsTimedOut());
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> p = std::move(v).value();
  EXPECT_EQ(*p, 7);
}

TEST(CodecTest, RoundTripsFixedWidth) {
  Encoder enc;
  enc.PutU8(0xab);
  enc.PutU16(0x1234);
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefULL);
  enc.PutI64(-17);
  enc.PutBool(true);

  Decoder dec(enc.buffer());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  bool b = false;
  ASSERT_TRUE(dec.GetU8(&u8).ok());
  ASSERT_TRUE(dec.GetU16(&u16).ok());
  ASSERT_TRUE(dec.GetU32(&u32).ok());
  ASSERT_TRUE(dec.GetU64(&u64).ok());
  ASSERT_TRUE(dec.GetI64(&i64).ok());
  ASSERT_TRUE(dec.GetBool(&b).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -17);
  EXPECT_TRUE(b);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodecTest, RoundTripsVarints) {
  const uint64_t values[] = {0,    1,    127,        128,
                             300,  1u << 20,  (1ull << 35) + 7,
                             std::numeric_limits<uint64_t>::max()};
  Encoder enc;
  for (uint64_t v : values) enc.PutVarint(v);
  Decoder dec(enc.buffer());
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(dec.GetVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodecTest, RoundTripsBytesAndStrings) {
  Encoder enc;
  enc.PutBytes(ToBytes("hello"));
  enc.PutString("world");
  enc.PutBytes({});
  Decoder dec(enc.buffer());
  Bytes b;
  std::string s;
  Bytes empty;
  ASSERT_TRUE(dec.GetBytes(&b).ok());
  ASSERT_TRUE(dec.GetString(&s).ok());
  ASSERT_TRUE(dec.GetBytes(&empty).ok());
  EXPECT_EQ(ToString(b), "hello");
  EXPECT_EQ(s, "world");
  EXPECT_TRUE(empty.empty());
}

TEST(CodecTest, UnderflowIsCorruptionNotCrash) {
  Encoder enc;
  enc.PutU8(1);
  Decoder dec(enc.buffer());
  uint64_t v;
  EXPECT_TRUE(dec.GetU64(&v).IsCorruption());
}

TEST(CodecTest, TruncatedBytesIsCorruption) {
  Encoder enc;
  enc.PutVarint(1000);  // claims 1000 bytes follow
  enc.PutU8(1);
  Decoder dec(enc.buffer());
  Bytes b;
  EXPECT_TRUE(dec.GetBytes(&b).IsCorruption());
}

TEST(CodecTest, RawBytesRoundTripAndTruncationIsCorruption) {
  Bytes raw(32);
  for (size_t i = 0; i < raw.size(); ++i) raw[i] = static_cast<uint8_t>(i);
  Encoder enc;
  enc.PutRaw(raw.data(), raw.size());
  Bytes full = enc.Take();

  uint8_t out[32] = {};
  Decoder dec(full);
  ASSERT_TRUE(dec.GetRaw(out, sizeof(out)).ok());
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_EQ(Bytes(out, out + sizeof(out)), raw);
  EXPECT_TRUE(dec.GetRaw(out, 0).ok());  // zero bytes at the end is fine

  // One byte short: rejected, nothing consumed, nothing written.
  Bytes truncated(full.begin(), full.end() - 1);
  uint8_t untouched[32] = {};
  Decoder short_dec(truncated);
  EXPECT_TRUE(short_dec.GetRaw(untouched, sizeof(untouched)).IsCorruption());
  EXPECT_EQ(short_dec.remaining(), truncated.size());
  EXPECT_EQ(Bytes(untouched, untouched + sizeof(untouched)), Bytes(32, 0));
}

TEST(CodecTest, InvalidBoolIsCorruption) {
  Encoder enc;
  enc.PutU8(2);
  Decoder dec(enc.buffer());
  bool b;
  EXPECT_TRUE(dec.GetBool(&b).IsCorruption());
}

TEST(CodecTest, MalformedVarintIsCorruption) {
  // 10 continuation bytes exceed the 64-bit range.
  Bytes buf(11, 0xff);
  Decoder dec(buf);
  uint64_t v;
  EXPECT_TRUE(dec.GetVarint(&v).IsCorruption());
}

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (classic check value).
  Bytes data = ToBytes("123456789");
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
}

TEST(Crc32Test, DetectsBitFlip) {
  Bytes data = ToBytes("blockplane payload");
  uint32_t before = Crc32(data);
  data[3] ^= 0x01;
  EXPECT_NE(Crc32(data), before);
}

TEST(BytesTest, HexEncode) {
  Bytes b = {0x00, 0x0f, 0xff};
  EXPECT_EQ(HexEncode(b), "000fff");
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (double v : {4.0, 1.0, 3.0, 2.0, 5.0}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 5.0);
  EXPECT_DOUBLE_EQ(h.Median(), 3.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
}

TEST(HistogramTest, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
}

TEST(CounterSetTest, IncrementAndRead) {
  CounterSet c;
  c.Increment("wan_messages");
  c.Increment("wan_messages", 2);
  EXPECT_EQ(c.Get("wan_messages"), 3);
  EXPECT_EQ(c.Get("missing"), 0);
  c.Clear();
  EXPECT_EQ(c.Get("wan_messages"), 0);
}

}  // namespace
}  // namespace blockplane
