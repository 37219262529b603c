// Tests for the shared-monitoring merge engine and digest codec
// (DESIGN.md Section 12).

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/monitoring/aggregator.h"
#include "src/monitoring/digest.h"

namespace pileus::monitoring {
namespace {

NodeCondition MakeCondition(const std::string& node, uint64_t samples,
                            MicrosecondCount p50_us, double p_up = 1.0) {
  NodeCondition cond;
  cond.node = node;
  cond.sample_count = samples;
  cond.mean_latency_us = p50_us;
  cond.p50_latency_us = p50_us;
  cond.p95_latency_us = p50_us * 2;
  cond.p99_latency_us = p50_us * 3;
  cond.high_timestamp = Timestamp{SecondsToMicroseconds(500), 1};
  cond.high_age_us = 1000;
  cond.p_up = p_up;
  return cond;
}

class AggregatorTest : public ::testing::Test {
 protected:
  AggregatorTest()
      : clock_(SecondsToMicroseconds(1000)), aggregator_(&clock_) {}

  ManualClock clock_;
  MonitorAggregator aggregator_;
};

TEST_F(AggregatorTest, EmptyDigestHasVersionZero) {
  const ConditionDigest digest = aggregator_.Digest();
  EXPECT_EQ(digest.version, 0u);
  EXPECT_TRUE(digest.nodes.empty());
}

TEST_F(AggregatorTest, IngestBumpsVersionAndExposesNode) {
  ASSERT_TRUE(aggregator_.Ingest("client-a", 1, {MakeCondition("n1", 10, 5000)}));
  const ConditionDigest digest = aggregator_.Digest();
  EXPECT_EQ(digest.version, 1u);
  ASSERT_EQ(digest.nodes.size(), 1u);
  EXPECT_EQ(digest.nodes[0].node, "n1");
  EXPECT_EQ(digest.nodes[0].p50_latency_us, 5000);
  EXPECT_EQ(aggregator_.reports_ingested(), 1u);
}

TEST_F(AggregatorTest, StaleOrDuplicateSeqRejected) {
  ASSERT_TRUE(aggregator_.Ingest("client-a", 5, {MakeCondition("n1", 10, 5000)}));
  // Same seq again: a duplicate report must not touch the state.
  EXPECT_FALSE(
      aggregator_.Ingest("client-a", 5, {MakeCondition("n1", 10, 9000)}));
  // Lower seq: a reordered report must not regress the state.
  EXPECT_FALSE(
      aggregator_.Ingest("client-a", 4, {MakeCondition("n1", 10, 9000)}));
  const ConditionDigest digest = aggregator_.Digest();
  EXPECT_EQ(digest.version, 1u);
  EXPECT_EQ(digest.nodes[0].p50_latency_us, 5000);
  EXPECT_EQ(aggregator_.reports_rejected(), 2u);
}

TEST_F(AggregatorTest, SeqTrackedPerReporter) {
  ASSERT_TRUE(aggregator_.Ingest("client-a", 5, {MakeCondition("n1", 10, 5000)}));
  // A different reporter with a smaller seq is fine: seq spaces are per
  // reporter, not global.
  EXPECT_TRUE(aggregator_.Ingest("client-b", 1, {MakeCondition("n1", 10, 7000)}));
  EXPECT_EQ(aggregator_.Digest().version, 2u);
}

TEST_F(AggregatorTest, MergesLatencyAcrossReportersByWeight) {
  // Same age, same sample count: percentiles average evenly.
  ASSERT_TRUE(aggregator_.Ingest("a", 1, {MakeCondition("n1", 10, 4000)}));
  ASSERT_TRUE(aggregator_.Ingest("b", 1, {MakeCondition("n1", 10, 8000)}));
  const ConditionDigest digest = aggregator_.Digest();
  ASSERT_EQ(digest.nodes.size(), 1u);
  EXPECT_EQ(digest.nodes[0].p50_latency_us, 6000);
  EXPECT_EQ(digest.nodes[0].sample_count, 20u);
}

TEST_F(AggregatorTest, SampleHeavyReporterDominates) {
  ASSERT_TRUE(aggregator_.Ingest("a", 1, {MakeCondition("n1", 90, 4000)}));
  ASSERT_TRUE(aggregator_.Ingest("b", 1, {MakeCondition("n1", 10, 8000)}));
  const ConditionDigest digest = aggregator_.Digest();
  // Weighted mean: (90*4000 + 10*8000) / 100 = 4400.
  EXPECT_EQ(digest.nodes[0].p50_latency_us, 4400);
}

TEST_F(AggregatorTest, ZeroSampleReportsCarryNoLatencyEvidence) {
  // A server self-report (sample_count 0) merged with a client report: the
  // latency percentiles come from the client alone.
  NodeCondition self = MakeCondition("n1", 0, 0);
  self.queue_delay_us = 2000;
  ASSERT_TRUE(aggregator_.Ingest("self:n1", 1, {self}));
  ASSERT_TRUE(aggregator_.Ingest("client", 1, {MakeCondition("n1", 10, 5000)}));
  const ConditionDigest digest = aggregator_.Digest();
  EXPECT_EQ(digest.nodes[0].p50_latency_us, 5000);
  EXPECT_EQ(digest.nodes[0].sample_count, 10u);
  EXPECT_GT(digest.nodes[0].queue_delay_us, 0);
}

TEST_F(AggregatorTest, OldEntriesDecayAgainstFreshOnes) {
  ASSERT_TRUE(aggregator_.Ingest("a", 1, {MakeCondition("n1", 10, 4000)}));
  // Two half-lives later a fresh equal-sample report carries 4x the weight.
  clock_.AdvanceMicros(2 * MonitorAggregator::kHalfLifeUs);
  ASSERT_TRUE(aggregator_.Ingest("b", 1, {MakeCondition("n1", 10, 8000)}));
  const ConditionDigest digest = aggregator_.Digest();
  // (0.25*4000 + 1.0*8000) / 1.25 = 7200.
  EXPECT_NEAR(static_cast<double>(digest.nodes[0].p50_latency_us), 7200.0,
              10.0);
}

TEST_F(AggregatorTest, ExpiredEntriesArePruned) {
  ASSERT_TRUE(aggregator_.Ingest("a", 1, {MakeCondition("n1", 10, 4000)}));
  clock_.AdvanceMicros(MonitorAggregator::kEntryTtlUs + 1);
  ASSERT_TRUE(aggregator_.Ingest("b", 1, {MakeCondition("n2", 10, 8000)}));
  const ConditionDigest digest = aggregator_.Digest();
  ASSERT_EQ(digest.nodes.size(), 1u);
  EXPECT_EQ(digest.nodes[0].node, "n2");
}

TEST_F(AggregatorTest, HighTimestampMergesAsMax) {
  NodeCondition older = MakeCondition("n1", 10, 5000);
  older.high_timestamp = Timestamp{1000, 0};
  older.high_age_us = 50;
  NodeCondition newer = MakeCondition("n1", 10, 5000);
  newer.high_timestamp = Timestamp{2000, 0};
  newer.high_age_us = 500;
  ASSERT_TRUE(aggregator_.Ingest("a", 1, {older}));
  ASSERT_TRUE(aggregator_.Ingest("b", 1, {newer}));
  const ConditionDigest digest = aggregator_.Digest();
  EXPECT_EQ(digest.nodes[0].high_timestamp, (Timestamp{2000, 0}));
}

TEST_F(AggregatorTest, NeverObservedHighTimestampStaysUnknown) {
  NodeCondition cond = MakeCondition("n1", 10, 5000);
  cond.high_timestamp = Timestamp::Zero();
  cond.high_age_us = -1;
  ASSERT_TRUE(aggregator_.Ingest("a", 1, {cond}));
  EXPECT_EQ(aggregator_.Digest().nodes[0].high_age_us, -1);
}

TEST_F(AggregatorTest, OverloadedIsStickyForOneHalfLife) {
  NodeCondition cond = MakeCondition("n1", 10, 5000);
  cond.overloaded = true;
  ASSERT_TRUE(aggregator_.Ingest("a", 1, {cond}));
  EXPECT_TRUE(aggregator_.Digest().nodes[0].overloaded);
  clock_.AdvanceMicros(MonitorAggregator::kHalfLifeUs + 1);
  EXPECT_FALSE(aggregator_.Digest().nodes[0].overloaded);
}

TEST_F(AggregatorTest, DigestAgesReanchorOnIngest) {
  NodeCondition cond = MakeCondition("n1", 10, 5000);
  cond.high_age_us = 1000;
  ASSERT_TRUE(aggregator_.Ingest("a", 1, {cond}));
  clock_.AdvanceMicros(4000);
  // The digest's age includes both the reported age and the time the entry
  // sat in the aggregator.
  EXPECT_EQ(aggregator_.Digest().nodes[0].high_age_us, 5000);
}

// --- Digest codec round trips ---

TEST(DigestCodecTest, NodeConditionRoundTrip) {
  NodeCondition cond = MakeCondition("node-7", 42, 12345, 0.75);
  cond.queue_delay_us = 800;
  cond.overloaded = true;
  Encoder encoder;
  EncodeNodeCondition(encoder, cond);
  Decoder decoder(encoder.buffer());
  NodeCondition decoded;
  ASSERT_TRUE(DecodeNodeCondition(decoder, &decoded).ok());
  EXPECT_EQ(decoded, cond);
}

TEST(DigestCodecTest, ConditionDigestRoundTrip) {
  ConditionDigest digest;
  digest.version = 9;
  digest.reports_merged = 3;
  digest.nodes.push_back(MakeCondition("a", 1, 100));
  digest.nodes.push_back(MakeCondition("b", 2, 200, 0.5));
  digest.nodes[1].high_age_us = -1;
  Encoder encoder;
  EncodeConditionDigest(encoder, digest);
  Decoder decoder(encoder.buffer());
  ConditionDigest decoded;
  ASSERT_TRUE(DecodeConditionDigest(decoder, &decoded).ok());
  EXPECT_EQ(decoded, digest);
}

TEST(DigestCodecTest, TruncatedDigestFailsCleanly) {
  ConditionDigest digest;
  digest.version = 1;
  digest.nodes.push_back(MakeCondition("a", 1, 100));
  Encoder encoder;
  EncodeConditionDigest(encoder, digest);
  const std::string bytes = encoder.Release();
  for (size_t len = 0; len < bytes.size(); ++len) {
    Decoder decoder(std::string_view(bytes).substr(0, len));
    ConditionDigest decoded;
    EXPECT_FALSE(DecodeConditionDigest(decoder, &decoded).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

}  // namespace
}  // namespace pileus::monitoring
