// Structured round-trip property tests: randomly generated Local Log
// records and transmission records (with quorum-cert proofs) must
// encode/decode to exactly equal values, and content digests must be
// stable under re-encoding and sensitive to every identity field.
#include <gtest/gtest.h>

#include "core/blockplane.h"
#include "sim/random.h"

namespace blockplane::core {
namespace {

using sim::Rng;

Bytes RandomPayload(Rng& rng, size_t max_len) {
  Bytes out(rng.NextBelow(max_len + 1));
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextU64());
  return out;
}

crypto::QuorumCert RandomCert(Rng& rng) {
  crypto::QuorumCert cert;
  cert.site = static_cast<net::SiteId>(rng.NextBelow(4));
  cert.index_base = static_cast<int32_t>(rng.NextBelow(2000));
  cert.signer_bits = rng.NextU64();
  for (auto& b : cert.agg) b = static_cast<uint8_t>(rng.NextU64());
  return cert;
}

std::vector<crypto::QuorumCert> RandomCerts(Rng& rng) {
  std::vector<crypto::QuorumCert> certs(rng.NextBelow(4));
  for (auto& cert : certs) cert = RandomCert(rng);
  return certs;
}

LogRecord RandomRecord(Rng& rng) {
  LogRecord record;
  record.type = static_cast<RecordType>(1 + rng.NextBelow(4));
  record.routine_id = rng.NextBelow(100);
  record.payload = RandomPayload(rng, 200);
  record.dest_site = static_cast<net::SiteId>(rng.NextBelow(4));
  record.src_site = static_cast<net::SiteId>(rng.NextBelow(4));
  record.src_log_pos = rng.NextBelow(1000);
  record.prev_src_log_pos = rng.NextBelow(1000);
  record.geo_pos = rng.NextBelow(1000);
  record.proof = RandomCerts(rng);
  record.geo_proof = RandomCerts(rng);
  return record;
}

bool RecordsEqual(const LogRecord& a, const LogRecord& b) {
  return a.type == b.type && a.routine_id == b.routine_id &&
         a.payload == b.payload && a.dest_site == b.dest_site &&
         a.src_site == b.src_site && a.src_log_pos == b.src_log_pos &&
         a.prev_src_log_pos == b.prev_src_log_pos && a.geo_pos == b.geo_pos &&
         a.proof == b.proof && a.geo_proof == b.geo_proof;
}

class RecordRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(RecordRoundTripTest, LogRecordsRoundTripExactly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0xabcdef);
  for (int i = 0; i < 200; ++i) {
    LogRecord record = RandomRecord(rng);
    LogRecord decoded;
    ASSERT_TRUE(LogRecord::Decode(record.Encode(), &decoded).ok());
    EXPECT_TRUE(RecordsEqual(record, decoded));
    // Digest stability: re-encoding the decoded record preserves identity.
    EXPECT_EQ(record.ContentDigest(), decoded.ContentDigest());
    EXPECT_EQ(record.Encode(), decoded.Encode());
  }
}

TEST_P(RecordRoundTripTest, TransmissionRecordsRoundTripExactly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x13579b);
  for (int i = 0; i < 200; ++i) {
    TransmissionRecord tr;
    tr.src_site = static_cast<net::SiteId>(rng.NextBelow(4));
    tr.dest_site = static_cast<net::SiteId>(rng.NextBelow(4));
    tr.src_log_pos = rng.NextBelow(1000);
    tr.prev_src_log_pos = rng.NextBelow(1000);
    tr.routine_id = rng.NextBelow(100);
    tr.payload = RandomPayload(rng, 200);
    tr.geo_pos = rng.NextBelow(1000);
    tr.proof = {RandomCert(rng)};
    tr.geo_proof = RandomCerts(rng);
    TransmissionRecord decoded;
    ASSERT_TRUE(TransmissionRecord::Decode(tr.Encode(), &decoded).ok());
    EXPECT_EQ(tr.Encode(), decoded.Encode());
    EXPECT_EQ(decoded.proof, tr.proof);
    EXPECT_EQ(decoded.geo_proof, tr.geo_proof);
    // The transmission's digest equals its received-record form's digest —
    // the invariant source attestations and receive verification share.
    EXPECT_EQ(tr.ContentDigest(),
              decoded.ToReceivedRecord().ContentDigest());
  }
}

TEST_P(RecordRoundTripTest, DigestSensitiveToEveryIdentityField) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x2468a);
  LogRecord base = RandomRecord(rng);
  crypto::Digest original = base.ContentDigest();

  LogRecord mutated = base;
  mutated.routine_id += 1;
  EXPECT_NE(mutated.ContentDigest(), original);

  mutated = base;
  mutated.payload.push_back(0x01);
  EXPECT_NE(mutated.ContentDigest(), original);

  mutated = base;
  mutated.src_log_pos += 1;
  EXPECT_NE(mutated.ContentDigest(), original);

  mutated = base;
  mutated.prev_src_log_pos += 1;
  EXPECT_NE(mutated.ContentDigest(), original);

  mutated = base;
  mutated.geo_pos += 1;
  EXPECT_NE(mutated.ContentDigest(), original);

  // ...but NOT to the proofs, which vary by which nodes happened to sign.
  mutated = base;
  mutated.proof.push_back(RandomCert(rng));
  mutated.geo_proof.push_back(RandomCert(rng));
  EXPECT_EQ(mutated.ContentDigest(), original);
}

/// The digest's defining form: encode the identity fields, then hash the
/// encoding. ContentDigest streams the same bytes without the buffer.
crypto::Digest EncodeThenHash(const LogRecord& r) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(r.type));
  enc.PutVarint(r.routine_id);
  enc.PutBytes(r.payload);
  enc.PutU32(static_cast<uint32_t>(r.dest_site));
  enc.PutU32(static_cast<uint32_t>(r.src_site));
  enc.PutU64(r.src_log_pos);
  enc.PutU64(r.prev_src_log_pos);
  enc.PutU64(r.geo_pos);
  return crypto::Sha256Digest(enc.buffer());
}

TEST_P(RecordRoundTripTest, StreamedDigestEqualsEncodeThenHash) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x5eed);
  const size_t payload_lens[] = {0, 1024, 32768};
  for (size_t len : payload_lens) {
    for (int i = 0; i < 20; ++i) {
      LogRecord record = RandomRecord(rng);
      record.payload.resize(len);
      for (auto& b : record.payload) b = static_cast<uint8_t>(rng.NextU64());
      // Full-width field values reach every varint length and the sign
      // bit of the site fields.
      record.routine_id = rng.NextU64() >> rng.NextBelow(64);
      record.dest_site = static_cast<net::SiteId>(rng.NextU64());
      record.src_site = static_cast<net::SiteId>(rng.NextU64());
      record.src_log_pos = rng.NextU64();
      record.prev_src_log_pos = rng.NextU64();
      record.geo_pos = rng.NextU64();
      EXPECT_EQ(record.ContentDigest(), EncodeThenHash(record))
          << "payload " << len << " iteration " << i;

      TransmissionRecord tr;
      tr.src_site = record.src_site;
      tr.dest_site = record.dest_site;
      tr.src_log_pos = record.src_log_pos;
      tr.prev_src_log_pos = record.prev_src_log_pos;
      tr.routine_id = record.routine_id;
      tr.payload = record.payload;
      tr.geo_pos = record.geo_pos;
      EXPECT_EQ(tr.ContentDigest(), EncodeThenHash(tr.ToReceivedRecord()))
          << "payload " << len << " iteration " << i;
    }
  }
}

TEST_P(RecordRoundTripTest, AttestCanonicalSeparatesPurposes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x777);
  crypto::Digest digest;
  for (auto& b : digest) b = static_cast<uint8_t>(rng.NextU64());
  uint64_t pos = rng.NextBelow(1000);
  net::SiteId site = static_cast<net::SiteId>(rng.NextBelow(4));

  Bytes tx = AttestCanonical(AttestPurpose::kTransmission, site, pos, digest);
  Bytes geo = AttestCanonical(AttestPurpose::kGeoSource, site, pos, digest);
  Bytes ack = AttestCanonical(AttestPurpose::kGeoAck, site, pos, digest);
  EXPECT_NE(tx, geo);
  EXPECT_NE(geo, ack);
  EXPECT_NE(tx, ack);
  // And separates sites and positions.
  EXPECT_NE(tx, AttestCanonical(AttestPurpose::kTransmission,
                                (site + 1) % 4, pos, digest));
  EXPECT_NE(tx, AttestCanonical(AttestPurpose::kTransmission, site, pos + 1,
                                digest));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordRoundTripTest,
                         ::testing::Values(1, 2, 3),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

}  // namespace
}  // namespace blockplane::core
