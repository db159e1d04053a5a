// Quorum-certificate tests (DESIGN.md §14): the compact-cert codec and
// builder, KeyStore::VerifyCert semantics and its two-generation cert
// cache, end-to-end deployments where retransmissions, go-back-N replays,
// and mirror gap backfill all hit the verify-once cert cache, and pinned
// cert counts for the fig-6 communication and fg=1 geo scenarios.
#include "crypto/quorum_cert.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/codec.h"
#include "common/metrics.h"
#include "core/deployment.h"
#include "crypto/signer.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace blockplane::crypto {
namespace {

// --- Codec and builder ------------------------------------------------------

TEST(QuorumCertTest, CodecRoundTripsEveryField) {
  QuorumCert cert;
  cert.site = 2;
  cert.index_base = 201;  // a mirror group's dense range
  cert.signer_bits = 0b1011;
  for (size_t i = 0; i < cert.agg.size(); ++i) {
    cert.agg[i] = static_cast<uint8_t>(i * 7 + 1);
  }

  Encoder enc;
  WirePut(&enc, cert);
  // The whole certificate is 48 wire bytes: 4 (site) + 4 (base) + 8
  // (bitmap) + 32 (aggregate) — versus 40 bytes per individual signature.
  EXPECT_EQ(enc.buffer().size(), 48u);

  Decoder dec(enc.buffer());
  QuorumCert back;
  ASSERT_TRUE(WireGet(&dec, &back).ok());
  EXPECT_EQ(back, cert);
  EXPECT_EQ(back.signer_count(), 3);
}

TEST(QuorumCertTest, CertListRoundTripsAndRejectsOversizedCount) {
  QuorumCert a;
  a.site = 0;
  a.signer_bits = 0b11;
  QuorumCert b;
  b.site = 1;
  b.index_base = 101;
  b.signer_bits = 0b111;

  Encoder enc;
  WirePut(&enc, std::vector<QuorumCert>{a, b});
  Decoder dec(enc.buffer());
  std::vector<QuorumCert> back;
  ASSERT_TRUE(WireGet(&dec, &back).ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], a);
  EXPECT_EQ(back[1], b);

  // A length prefix past the cap is corruption, not an allocation request.
  Encoder evil;
  evil.PutVarint(1u << 20);
  Decoder evil_dec(evil.buffer());
  std::vector<QuorumCert> out;
  EXPECT_FALSE(WireGet(&evil_dec, &out).ok());
}

TEST(QuorumCertTest, BuildDedupsAndIgnoresOtherSites) {
  KeyStore keys;
  auto s0 = keys.RegisterNode({0, 0});
  auto s2 = keys.RegisterNode({0, 2});
  auto other = keys.RegisterNode({1, 0});
  Bytes msg = ToBytes("attested bytes");

  Signature sig0 = s0->Sign(msg);
  Signature sig2 = s2->Sign(msg);
  Signature dup0 = sig0;
  dup0.mac[3] ^= 0xff;  // same signer, different MAC: first wins

  QuorumCert cert =
      BuildQuorumCert(0, {sig0, dup0, other->Sign(msg), sig2});
  EXPECT_EQ(cert.site, 0);
  EXPECT_EQ(cert.index_base, 0);
  EXPECT_EQ(cert.signer_bits, 0b101u);
  EXPECT_EQ(cert.signer_count(), 2);
  // First-wins dedup: the aggregate matches the clean two-signature build.
  EXPECT_EQ(cert, BuildQuorumCert(0, {sig0, sig2}));
}

TEST(QuorumCertTest, MirrorRangeSignersGetTheMinimumIndexBase) {
  // Mirror groups live at indices 100*(origin+1)+k — far beyond bit 63 of
  // a zero-based bitmap. The index_base re-anchors the bitmap at the
  // group's smallest member.
  KeyStore keys;
  auto m1 = keys.RegisterNode({2, 201});
  auto m2 = keys.RegisterNode({2, 202});
  Bytes msg = ToBytes("mirrored record proof");

  QuorumCert cert = BuildQuorumCert(2, {m2->Sign(msg), m1->Sign(msg)});
  EXPECT_EQ(cert.index_base, 201);
  EXPECT_EQ(cert.signer_bits, 0b11u);
  EXPECT_EQ(cert.signer_count(), 2);
  EXPECT_TRUE(keys.VerifyCert(msg, cert, 2));
}

// --- VerifyCert semantics ---------------------------------------------------

class CertVerifyTest : public ::testing::Test {
 protected:
  CertVerifyTest() {
    for (int i = 0; i < 3; ++i) {
      signers_.push_back(keys_.RegisterNode({0, i}));
    }
    msg_ = ToBytes("canonical transmission bytes");
    for (auto& s : signers_) sigs_.push_back(s->Sign(msg_));
    cert_ = BuildQuorumCert(0, sigs_);
    qc_stats().Reset();
  }
  ~CertVerifyTest() override { qc_stats().Reset(); }

  KeyStore keys_;
  std::vector<std::unique_ptr<Signer>> signers_;
  Bytes msg_;
  std::vector<Signature> sigs_;
  QuorumCert cert_;
};

TEST_F(CertVerifyTest, GenuineCertVerifiesAndThresholdBinds) {
  EXPECT_TRUE(keys_.VerifyCert(msg_, cert_, 2));
  EXPECT_TRUE(keys_.VerifyCert(msg_, cert_, 3));
  // More signers demanded than the bitmap lists: reject before any HMAC.
  EXPECT_FALSE(keys_.VerifyCert(msg_, cert_, 4));
}

TEST_F(CertVerifyTest, ForgeriesFailAndAreNeverCached) {
  QuorumCert tampered = cert_;
  tampered.agg[0] ^= 0x01;
  QuorumCert inflated = cert_;
  inflated.signer_bits |= 1u << 3;  // claims an unregistered fourth signer
  Bytes wrong_msg = msg_;
  wrong_msg.back() ^= 0x01;

  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(keys_.VerifyCert(msg_, tampered, 2));
    EXPECT_FALSE(keys_.VerifyCert(msg_, inflated, 2));
    EXPECT_FALSE(keys_.VerifyCert(wrong_msg, cert_, 2));
  }
  // Failures never seed the cache: every attempt above took the full
  // (failing) recomputation, and the genuine cert still verifies.
  EXPECT_EQ(qc_stats().cache_hits, 0);
  EXPECT_TRUE(keys_.VerifyCert(msg_, cert_, 2));
}

TEST_F(CertVerifyTest, RepeatVerifiesHitTheCacheAndElideMacChecks) {
  ASSERT_TRUE(keys_.VerifyCert(msg_, cert_, 2));  // cold: 3 MAC checks
  EXPECT_EQ(qc_stats().certs_verified, 1);
  EXPECT_EQ(qc_stats().proof_sig_verifies, 3);
  EXPECT_EQ(qc_stats().cache_hits, 0);

  for (int i = 0; i < 5; ++i) EXPECT_TRUE(keys_.VerifyCert(msg_, cert_, 2));
  EXPECT_EQ(qc_stats().cache_hits, 5);
  EXPECT_EQ(qc_stats().verifies_elided, 15);  // 5 hits x 3 signers
  EXPECT_EQ(qc_stats().proof_sig_verifies, 3);  // unchanged: no recompute
}

TEST_F(CertVerifyTest, DisabledCacheStillVerifiesCorrectly) {
  keys_.set_verify_cache_capacity(0);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(keys_.VerifyCert(msg_, cert_, 2));
  EXPECT_EQ(qc_stats().cache_hits, 0);
  QuorumCert tampered = cert_;
  tampered.agg[5] ^= 0xff;
  EXPECT_FALSE(keys_.VerifyCert(msg_, tampered, 2));
}

}  // namespace
}  // namespace blockplane::crypto

// --- End-to-end: certs on the wire, cache hits across the deployment --------

namespace blockplane::core {
namespace {

using net::kCalifornia;
using net::kOregon;
using net::kVirginia;
using net::Topology;
using sim::Seconds;

BlockplaneOptions GeoOptions() {
  BlockplaneOptions options;
  options.fg = 1;
  return options;
}

TEST(QuorumCertEndToEndTest, SendsShipCertsAndEveryExtraHopHitsTheCache) {
  sim::Simulator simulator(11);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  qc_stats().Reset();

  Participant* sender = deployment.participant(kCalifornia);
  for (int i = 0; i < 5; ++i) {
    sender->Send(kOregon, ToBytes("qc" + std::to_string(i)), 0, nullptr);
  }
  Participant* receiver = deployment.participant(kOregon);
  std::vector<std::string> got;
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] {
        Bytes payload;
        while (receiver->TryReceive(kCalifornia, &payload)) {
          got.push_back(ToString(payload));
        }
        return got.size() == 5;
      },
      Seconds(60)));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(got[i], "qc" + std::to_string(i));
  simulator.RunFor(Seconds(2));

  // One cert per decision, built once at the source...
  EXPECT_GT(qc_stats().certs_built, 0);
  // ...verified cold at the first hop, elided everywhere after: the
  // deployment shares one KeyStore, so the 2nd..4th destination nodes and
  // every replayed flight probe the cert cache instead of re-checking
  // f_i+1 MACs.
  EXPECT_GT(qc_stats().certs_verified, 0);
  EXPECT_GT(qc_stats().cache_hits, 0);
  EXPECT_GT(qc_stats().verifies_elided, 0);
  qc_stats().Reset();
}

TEST(QuorumCertEndToEndTest, DuplicateTransmissionRunsNoCertVerification) {
  // A transmission a receiver already holds is acked and dropped before
  // any proof work: the cert is verified once, by the receive routine at
  // commit, never again for a duplicate or retransmitted copy.
  sim::Simulator simulator(29);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  Participant* receiver = deployment.participant(kOregon);
  deployment.participant(kCalifornia)
      ->Send(kOregon, ToBytes("once"), 0, nullptr);
  Bytes payload;
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      Seconds(60)));
  simulator.RunFor(Seconds(2));

  // Rebuild the exact transmission from the committed received record.
  const LogRecord* held = nullptr;
  for (const auto& [pos, record] : deployment.node(kOregon, 0)->log()) {
    if (record.type == RecordType::kReceived) held = &record;
  }
  ASSERT_NE(held, nullptr);
  ASSERT_FALSE(held->proof.empty());
  TransmissionRecord copy;
  copy.src_site = held->src_site;
  copy.dest_site = kOregon;
  copy.src_log_pos = held->src_log_pos;
  copy.prev_src_log_pos = held->prev_src_log_pos;
  copy.routine_id = held->routine_id;
  copy.payload = held->payload;
  copy.geo_pos = held->geo_pos;
  copy.proof = held->proof;

  const int64_t certs_verified = qc_stats().certs_verified;
  const int64_t proof_sig_verifies = qc_stats().proof_sig_verifies;
  net::Message msg;
  msg.src = {kCalifornia, 0};
  msg.dst = {kOregon, 0};
  msg.type = kTransmission;
  msg.set_body(copy.Encode());
  deployment.network()->Send(msg);
  simulator.RunFor(Seconds(2));

  EXPECT_EQ(qc_stats().certs_verified, certs_verified);
  EXPECT_EQ(qc_stats().proof_sig_verifies, proof_sig_verifies);
  EXPECT_FALSE(receiver->TryReceive(kCalifornia, &payload));
  qc_stats().Reset();
}

TEST(QuorumCertEndToEndTest, RetransmissionsAfterAPartitionHitTheCache) {
  // A transmission stranded by a partition is retransmitted (widened to
  // 3f_i+1 receivers) once the link heals; the replayed flights carry the
  // same certificate, so every re-verify is a cache probe, not f_i+1 MACs.
  sim::Simulator simulator(17);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  qc_stats().Reset();

  Participant* sender = deployment.participant(kCalifornia);
  Participant* receiver = deployment.participant(kVirginia);
  Bytes payload;

  sender->Send(kVirginia, ToBytes("first"), 0, nullptr);
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      Seconds(60)));

  deployment.network()->PartitionSites(kCalifornia, kVirginia);
  sender->Send(kVirginia, ToBytes("delayed"), 0, nullptr);
  simulator.RunFor(Seconds(5));  // retransmit timers fire into the void
  int64_t hits_before_heal = qc_stats().cache_hits;

  deployment.network()->HealPartition(kCalifornia, kVirginia);
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      Seconds(120)));
  EXPECT_EQ(ToString(payload), "delayed");
  simulator.RunFor(Seconds(3));

  // The healed flights re-verified the stranded certificate at the widened
  // receiver set: strictly more cache hits than before the heal.
  EXPECT_GT(qc_stats().cache_hits, hits_before_heal);
  EXPECT_GT(qc_stats().verifies_elided, 0);
  qc_stats().Reset();
}

TEST(QuorumCertEndToEndTest, MirrorGapBackfillHitsTheCache) {
  // A mirror site that slept through commits fetches the missed entries
  // from its peers on recovery. The backfilled records carry their quorum
  // certs, already verified deployment-wide during the original
  // replication — the gap fill must ride the cert cache.
  sim::Simulator simulator(19);
  Deployment deployment(&simulator, Topology::Aws4(), GeoOptions());
  robustness_stats().Reset();

  auto commit = [&](const std::string& payload) {
    bool done = false;
    deployment.participant(kCalifornia)
        ->LogCommit(ToBytes(payload), 0, [&](uint64_t) { done = true; });
    ASSERT_TRUE(
        simulator.RunUntilCondition([&] { return done; }, Seconds(60)));
  };

  commit("before outage");
  simulator.RunFor(Seconds(1));

  // One of California's two mirror hosts goes dark; fg=1 commits proceed
  // on the surviving mirror alone, so the sleeper accumulates a gap.
  net::SiteId sleeper = deployment.mirror_sites_of(kCalifornia)[0];
  deployment.network()->CrashSite(sleeper);
  commit("missed one");
  commit("missed two");
  deployment.network()->RecoverSite(sleeper);
  qc_stats().Reset();

  commit("after recovery");
  commit("after recovery two");
  RobustnessStats& rs = robustness_stats();
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return rs.mirror_gap_filled > 0; }, Seconds(60)))
      << "recovered mirror never backfilled its gap";
  simulator.RunFor(Seconds(2));

  EXPECT_GT(rs.mirror_gap_fetches, 0);
  // The backfilled proofs were verified through the cert path and the
  // cache elided the per-MAC work.
  EXPECT_GT(qc_stats().verifies_elided, 0);
  EXPECT_GT(qc_stats().cache_hits, 0);
  qc_stats().Reset();
  robustness_stats().Reset();
}

TEST(QuorumCertEndToEndTest, GeoCommitsCarryCertsInReplicationAndBundles) {
  // fg > 0 exercises both geo cert paths: replicate messages carry the
  // source unit's cert, and proof bundles carry one cert per acking site.
  sim::Simulator simulator(23);
  Deployment deployment(&simulator, Topology::Aws4(), GeoOptions());
  qc_stats().Reset();

  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    deployment.participant(kCalifornia)
        ->LogCommit(ToBytes("geo" + std::to_string(i)), 0,
                    [&](uint64_t) { ++completed; });
  }
  ASSERT_TRUE(simulator.RunUntilCondition([&] { return completed == 3; },
                                          Seconds(120)));
  simulator.RunFor(Seconds(2));

  EXPECT_GT(qc_stats().certs_built, 0);
  EXPECT_GT(qc_stats().certs_verified, 0);
  EXPECT_GT(qc_stats().verifies_elided, 0);
  // Mirror logs hold the records.
  int holding = 0;
  for (net::SiteId host : deployment.mirror_sites_of(kCalifornia)) {
    if (deployment.mirror_node(host, kCalifornia, 0)->mirror_high() >= 3) {
      ++holding;
    }
  }
  EXPECT_GE(holding, 1);
  qc_stats().Reset();
}

TEST(QuorumCertEndToEndTest, GenuineCertFromAnotherSiteDoesNotCount) {
  // A cert vouches only for its own site's nodes. A forged California
  // transmission carrying a *genuine* cert from Virginia's unit — valid
  // MACs over the exact canonical bytes the receiver checks — must not
  // count toward the source unit's f_i+1 attestations.
  sim::Simulator simulator(31);
  Deployment deployment(&simulator, Topology::Aws4(), {});

  TransmissionRecord forged;
  forged.src_site = kCalifornia;
  forged.dest_site = kOregon;
  forged.src_log_pos = 1;
  forged.prev_src_log_pos = 0;
  forged.payload = ToBytes("vouched for by the wrong site");
  Bytes canonical = AttestCanonical(AttestPurpose::kTransmission, kCalifornia,
                                    1, forged.ContentDigest());
  std::vector<crypto::Signature> sigs;
  for (int i = 0; i < 2; ++i) {
    // RegisterNode is idempotent and hands back the node's signing handle.
    sigs.push_back(
        deployment.keys()->RegisterNode({kVirginia, i})->Sign(canonical));
  }
  forged.proof = {crypto::BuildQuorumCert(kVirginia, sigs)};
  ASSERT_TRUE(deployment.keys()->VerifyCert(canonical, forged.proof[0], 2));

  for (int i = 0; i < 4; ++i) {
    net::Message msg;
    msg.src = {kCalifornia, 3};
    msg.dst = {kOregon, i};
    msg.type = kTransmission;
    msg.set_body(forged.Encode());
    deployment.network()->Send(msg);
  }
  simulator.RunFor(Seconds(5));
  Bytes payload;
  EXPECT_FALSE(
      deployment.participant(kOregon)->TryReceive(kCalifornia, &payload));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(deployment.node(kOregon, i)->log_size(), 0u);
  }
}

// --- Pinned cert counts ---------------------------------------------------
//
// The fig-6 send workload with real crypto (California -> Virginia, 1 KB
// payloads, seed 1): every decision builds one cert at its source and is
// verified cold exactly once deployment-wide; every further hop is a cache
// hit. A regression to re-verifying certs at every hop changes these
// counts.

struct CertCounts {
  int64_t built = 0;
  int64_t verified = 0;
  int64_t sig_verifies = 0;
};

CertCounts RunFig6Scenario(int fg, int messages) {
  qc_stats().Reset();
  sim::Simulator simulator(1);
  BlockplaneOptions options;
  options.fi = 1;
  options.fg = fg;
  net::NetworkOptions net_options;
  net_options.intra_site_one_way = sim::Microseconds(100);
  net_options.per_message_cpu = sim::Microseconds(25);
  Deployment deployment(&simulator, Topology::Aws4(), options, net_options);

  Bytes payload(1000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  for (int i = 0; i < messages; ++i) {
    deployment.participant(kCalifornia)
        ->Send(kVirginia, Bytes(payload), 0, nullptr);
  }
  BlockplaneNode* daemon_host = deployment.node(kCalifornia, 0);
  uint64_t target = static_cast<uint64_t>(messages);
  EXPECT_TRUE(simulator.RunUntilCondition(
      [&] { return daemon_host->daemon_acked(kVirginia) >= target; },
      Seconds(120)));
  simulator.RunFor(Seconds(2));  // trailing acks, polls, retransmissions

  CertCounts counts{qc_stats().certs_built, qc_stats().certs_verified,
                    qc_stats().proof_sig_verifies};
  qc_stats().Reset();
  return counts;
}

TEST(QuorumCertPinTest, CommunicationScenarioVerifiesEachCertOnce) {
  // 30 sends, fg = 0: one transmission cert per send, verified once at
  // the receiving unit (f_i+1 = 2 MAC recomputations).
  CertCounts counts = RunFig6Scenario(/*fg=*/0, /*messages=*/30);
  EXPECT_EQ(counts.built, 30);
  EXPECT_EQ(counts.verified, 30);
  EXPECT_EQ(counts.sig_verifies, 60);
}

TEST(QuorumCertPinTest, GeoScenarioVerifiesEachCertOnce) {
  // 20 sends, fg = 1: per send, the source unit's geo-source cert
  // (verified by the first mirror), one proof-bundle cert for the acking
  // mirror site and the transmission cert (both verified by the receiving
  // unit).
  CertCounts counts = RunFig6Scenario(/*fg=*/1, /*messages=*/20);
  EXPECT_EQ(counts.built, 60);
  EXPECT_EQ(counts.verified, 60);
  EXPECT_EQ(counts.sig_verifies, 120);
}

}  // namespace
}  // namespace blockplane::core
