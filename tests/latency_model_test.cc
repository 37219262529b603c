// Tests for the geo-latency model.

#include <gtest/gtest.h>

#include "src/sim/latency_model.h"

namespace pileus::sim {
namespace {

LatencyModel::Options NoJitter() {
  LatencyModel::Options options;
  options.jitter_sigma = 0.0;
  return options;
}

TEST(LatencyModelTest, SitesRegisterWithLocalRtt) {
  LatencyModel model(NoJitter());
  const SiteId a = model.AddSite("A");
  EXPECT_EQ(model.site_count(), 1);
  EXPECT_EQ(model.SiteName(a), "A");
  EXPECT_EQ(model.BaseRtt(a, a), MillisecondsToMicroseconds(1));
}

TEST(LatencyModelTest, CustomLocalRtt) {
  LatencyModel model(NoJitter());
  const SiteId a = model.AddSite("A", 500);
  EXPECT_EQ(model.BaseRtt(a, a), 500);
}

TEST(LatencyModelTest, RttIsSymmetric) {
  LatencyModel model(NoJitter());
  const SiteId a = model.AddSite("A");
  const SiteId b = model.AddSite("B");
  model.SetRtt(a, b, 10000);
  EXPECT_EQ(model.BaseRtt(a, b), 10000);
  EXPECT_EQ(model.BaseRtt(b, a), 10000);
}

TEST(LatencyModelTest, MatrixSurvivesLaterSiteAdditions) {
  LatencyModel model(NoJitter());
  const SiteId a = model.AddSite("A");
  const SiteId b = model.AddSite("B");
  model.SetRtt(a, b, 7777);
  const SiteId c = model.AddSite("C");
  model.SetRtt(a, c, 8888);
  EXPECT_EQ(model.BaseRtt(a, b), 7777);
  EXPECT_EQ(model.BaseRtt(a, c), 8888);
  EXPECT_EQ(model.BaseRtt(b, c), 0);
}

TEST(LatencyModelTest, DeltasAddAndClear) {
  LatencyModel model(NoJitter());
  const SiteId a = model.AddSite("A");
  const SiteId b = model.AddSite("B");
  model.SetRtt(a, b, 10000);
  model.SetRttDelta(a, b, 5000);
  EXPECT_EQ(model.BaseRtt(a, b), 15000);
  EXPECT_EQ(model.BaseRtt(b, a), 15000);
  model.SetRttDelta(a, b, 0);
  EXPECT_EQ(model.BaseRtt(a, b), 10000);
}

TEST(LatencyModelTest, SampleOneWayIsHalfRttWithoutJitter) {
  LatencyModel model(NoJitter());
  const SiteId a = model.AddSite("A");
  const SiteId b = model.AddSite("B");
  model.SetRtt(a, b, 10000);
  Random rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(model.SampleOneWay(a, b, rng), 5000);
  }
}

TEST(LatencyModelTest, JitterStaysTight) {
  LatencyModel::Options options;
  options.jitter_sigma = 0.01;
  LatencyModel model(options);
  const SiteId a = model.AddSite("A");
  const SiteId b = model.AddSite("B");
  model.SetRtt(a, b, 100000);
  Random rng(2);
  for (int i = 0; i < 10000; ++i) {
    const MicrosecondCount sample = model.SampleOneWay(a, b, rng);
    EXPECT_GT(sample, 45000);  // Within ~10% of the 50 ms one-way.
    EXPECT_LT(sample, 55000);
  }
}

TEST(LatencyModelTest, SampleNeverBelowOneMicrosecond) {
  LatencyModel model(NoJitter());
  const SiteId a = model.AddSite("A", 0);
  Random rng(4);
  EXPECT_GE(model.SampleOneWay(a, a, rng), 1);
}

TEST(LatencyModelTest, FindSiteByName) {
  LatencyModel model(NoJitter());
  model.AddSite("US");
  const SiteId england = model.AddSite("England");
  EXPECT_EQ(model.FindSite("England"), england);
  EXPECT_EQ(model.FindSite("Mars"), -1);
}

}  // namespace
}  // namespace pileus::sim
