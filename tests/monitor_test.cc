// Tests for the client-side monitor (paper Section 4.5).

#include <gtest/gtest.h>

#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/core/monitor.h"

namespace pileus::core {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : clock_(SecondsToMicroseconds(1000)), monitor_(&clock_) {}

  ManualClock clock_;
  Monitor monitor_;
};

TEST_F(MonitorTest, UnknownNodeIsOptimisticOnLatency) {
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("ghost", 1000), 1.0);
}

TEST_F(MonitorTest, PNodeLatIsWindowFraction) {
  for (int i = 0; i < 8; ++i) {
    monitor_.RecordLatency("n", 1000);
  }
  for (int i = 0; i < 2; ++i) {
    monitor_.RecordLatency("n", 100000);
  }
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("n", 2000), 0.8);
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("n", 200000), 1.0);
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("n", 100), 0.0);
}

TEST_F(MonitorTest, UnknownNodeHasZeroHighTimestamp) {
  EXPECT_EQ(monitor_.KnownHighTimestamp("ghost"), Timestamp::Zero());
  // PNodeCons for a zero threshold is still satisfied.
  EXPECT_DOUBLE_EQ(monitor_.PNodeCons("ghost", Timestamp::Zero()), 1.0);
  EXPECT_DOUBLE_EQ(monitor_.PNodeCons("ghost", Timestamp{1, 0}), 0.0);
}

TEST_F(MonitorTest, HighTimestampOnlyMovesForward) {
  monitor_.RecordHighTimestamp("n", Timestamp{500, 0});
  monitor_.RecordHighTimestamp("n", Timestamp{300, 0});  // Stale report.
  EXPECT_EQ(monitor_.KnownHighTimestamp("n"), (Timestamp{500, 0}));
  monitor_.RecordHighTimestamp("n", Timestamp{800, 0});
  EXPECT_EQ(monitor_.KnownHighTimestamp("n"), (Timestamp{800, 0}));
}

TEST_F(MonitorTest, PNodeConsIsBinaryAndConservative) {
  monitor_.RecordHighTimestamp("n", Timestamp{500, 0});
  EXPECT_DOUBLE_EQ(monitor_.PNodeCons("n", Timestamp{500, 0}), 1.0);
  EXPECT_DOUBLE_EQ(monitor_.PNodeCons("n", Timestamp{500, 1}), 0.0);
  EXPECT_DOUBLE_EQ(monitor_.PNodeCons("n", Timestamp{100, 0}), 1.0);
}

TEST_F(MonitorTest, PNodeSlaIsProduct) {
  monitor_.RecordHighTimestamp("n", Timestamp{500, 0});
  monitor_.RecordLatency("n", 1000);
  monitor_.RecordLatency("n", 3000);
  // PNodeLat(2000) = 0.5; PNodeCons({400,0}) = 1.
  EXPECT_DOUBLE_EQ(monitor_.PNodeSla("n", Timestamp{400, 0}, 2000), 0.5);
  // Consistency unsatisfied -> 0 regardless of latency.
  EXPECT_DOUBLE_EQ(monitor_.PNodeSla("n", Timestamp{600, 0}, 2000), 0.0);
}

TEST_F(MonitorTest, OldLatencySamplesAgeOut) {
  Monitor::Options options;
  options.latency_window.window_us = SecondsToMicroseconds(10);
  Monitor monitor(&clock_, options);
  monitor.RecordLatency("n", 100000);
  clock_.AdvanceMicros(SecondsToMicroseconds(60));
  // The slow sample expired; the node is unknown again (optimistic).
  EXPECT_DOUBLE_EQ(monitor.PNodeLat("n", 1000), 1.0);
}

TEST_F(MonitorTest, NeedsProbeForUnknownAndStaleNodes) {
  EXPECT_TRUE(monitor_.NeedsProbe("ghost"));
  monitor_.RecordLatency("n", 1000);
  EXPECT_FALSE(monitor_.NeedsProbe("n"));
  clock_.AdvanceMicros(monitor_.options().probe_interval_us + 1);
  EXPECT_TRUE(monitor_.NeedsProbe("n"));
}

TEST_F(MonitorTest, HighTimestampReportRefreshesContact) {
  monitor_.RecordHighTimestamp("n", Timestamp{1, 0});
  EXPECT_FALSE(monitor_.NeedsProbe("n"));
}

TEST_F(MonitorTest, MeanLatency) {
  EXPECT_EQ(monitor_.MeanLatency("ghost"), 0);
  monitor_.RecordLatency("n", 100);
  monitor_.RecordLatency("n", 300);
  EXPECT_EQ(monitor_.MeanLatency("n"), 200);
}

TEST_F(MonitorTest, SamplesRecordedCounter) {
  EXPECT_EQ(monitor_.samples_recorded(), 0u);
  monitor_.RecordLatency("a", 1);
  monitor_.RecordLatency("b", 2);
  EXPECT_EQ(monitor_.samples_recorded(), 2u);
}

TEST_F(MonitorTest, PredictorExtrapolatesHighTimestamp) {
  Monitor::Options options;
  options.predict_high_timestamp = true;
  Monitor monitor(&clock_, options);
  monitor.RecordHighTimestamp("n", Timestamp{clock_.NowMicros(), 0});
  const Timestamp observed = monitor.KnownHighTimestamp("n");

  clock_.AdvanceMicros(SecondsToMicroseconds(10));
  const Timestamp predicted = monitor.KnownHighTimestamp("n");
  EXPECT_EQ(predicted.physical_us - observed.physical_us,
            SecondsToMicroseconds(10));
}

TEST_F(MonitorTest, ConservativeModeNeverExtrapolates) {
  monitor_.RecordHighTimestamp("n", Timestamp{123, 0});
  clock_.AdvanceMicros(SecondsToMicroseconds(100));
  EXPECT_EQ(monitor_.KnownHighTimestamp("n"), (Timestamp{123, 0}));
}

TEST_F(MonitorTest, PNodeUpDefaultsToOne) {
  EXPECT_DOUBLE_EQ(monitor_.PNodeUp("ghost"), 1.0);
  monitor_.RecordLatency("n", 100);  // Latency alone is not an outcome.
  EXPECT_DOUBLE_EQ(monitor_.PNodeUp("n"), 1.0);
}

TEST_F(MonitorTest, FailuresLowerPNodeUp) {
  // A success interleaves so no three failures run in a row: this checks
  // the pure windowed estimate, not the breaker (which would force 0).
  monitor_.RecordFailure("n");
  monitor_.RecordFailure("n");
  monitor_.RecordSuccess("n");
  monitor_.RecordFailure("n");
  ASSERT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kClosed);
  EXPECT_DOUBLE_EQ(monitor_.PNodeUp("n"), 0.25);
}

TEST_F(MonitorTest, BreakerTripsAfterConsecutiveFailures) {
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kClosed);
  monitor_.RecordFailure("n");
  monitor_.RecordFailure("n");
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kClosed);
  monitor_.RecordFailure("n");  // Third consecutive failure: trip.
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kOpen);
  EXPECT_TRUE(monitor_.BreakerOpen("n"));
  EXPECT_EQ(monitor_.breaker_trips(), 1u);
  // While open: PNodeUp forced to 0 and probing is pointless.
  EXPECT_DOUBLE_EQ(monitor_.PNodeUp("n"), 0.0);
  EXPECT_FALSE(monitor_.NeedsProbe("n"));
}

TEST_F(MonitorTest, InterleavedSuccessNeverTripsBreaker) {
  for (int i = 0; i < 10; ++i) {
    monitor_.RecordFailure("n");
    monitor_.RecordFailure("n");
    monitor_.RecordSuccess("n");  // Resets the consecutive count.
  }
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kClosed);
  EXPECT_EQ(monitor_.breaker_trips(), 0u);
}

TEST_F(MonitorTest, BreakerHalfOpensAfterCooldownAndClosesOnSuccess) {
  for (int i = 0; i < 3; ++i) {
    monitor_.RecordFailure("n");
  }
  ASSERT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kOpen);
  clock_.AdvanceMicros(Monitor::kBreakerCooldownUs + 1);
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kHalfOpen);
  // Half-open: exactly the probation probes run again.
  EXPECT_TRUE(monitor_.NeedsProbe("n"));
  // PNodeUp is no longer forced to 0 (the windowed estimate returns).
  monitor_.RecordSuccess("n");
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kClosed);
}

TEST_F(MonitorTest, HalfOpenFailureRearmsFullCooldown) {
  for (int i = 0; i < 3; ++i) {
    monitor_.RecordFailure("n");
  }
  clock_.AdvanceMicros(Monitor::kBreakerCooldownUs + 1);
  ASSERT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kHalfOpen);
  monitor_.RecordFailure("n");  // Probation probe failed.
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kOpen);
  // Re-opening an already-tripped breaker is not a new trip.
  EXPECT_EQ(monitor_.breaker_trips(), 1u);
  clock_.AdvanceMicros(Monitor::kBreakerCooldownUs / 2);
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kOpen);
}

TEST_F(MonitorTest, SuccessFullyResetsBreakerHistory) {
  monitor_.RecordFailure("n");
  monitor_.RecordFailure("n");
  monitor_.RecordSuccess("n");
  // The count restarted: two more failures must not trip a threshold of 3.
  monitor_.RecordFailure("n");
  monitor_.RecordFailure("n");
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kClosed);
}

TEST_F(MonitorTest, RecoverySuccessesRestorePNodeUp) {
  for (int i = 0; i < 4; ++i) {
    monitor_.RecordFailure("n");
  }
  EXPECT_DOUBLE_EQ(monitor_.PNodeUp("n"), 0.0);
  for (int i = 0; i < 12; ++i) {
    monitor_.RecordSuccess("n");
  }
  EXPECT_DOUBLE_EQ(monitor_.PNodeUp("n"), 0.75);
}

TEST_F(MonitorTest, OldFailuresAgeOut) {
  Monitor::Options options;
  options.latency_window.window_us = SecondsToMicroseconds(10);
  Monitor monitor(&clock_, options);
  monitor.RecordFailure("n");
  clock_.AdvanceMicros(SecondsToMicroseconds(60));
  EXPECT_DOUBLE_EQ(monitor.PNodeUp("n"), 1.0);
}

TEST_F(MonitorTest, PNodeSlaIncludesUpFactor) {
  monitor_.RecordHighTimestamp("n", Timestamp{500, 0});
  monitor_.RecordLatency("n", 1000);
  monitor_.RecordSuccess("n");
  monitor_.RecordFailure("n");
  // PCons 1 * PLat 1 * PUp 0.5.
  EXPECT_DOUBLE_EQ(monitor_.PNodeSla("n", Timestamp{400, 0}, 2000), 0.5);
}

TEST_F(MonitorTest, FailureCountsAsContactForProbing) {
  monitor_.RecordFailure("n");
  EXPECT_FALSE(monitor_.NeedsProbe("n"));
  clock_.AdvanceMicros(monitor_.options().probe_interval_us + 1);
  EXPECT_TRUE(monitor_.NeedsProbe("n"));
}

TEST_F(MonitorTest, SnapshotReportsPerNodeState) {
  monitor_.RecordLatency("a", 100);
  monitor_.RecordLatency("a", 300);
  monitor_.RecordHighTimestamp("a", Timestamp{999, 0});
  monitor_.RecordSuccess("a");
  monitor_.RecordLatency("b", 5000);
  monitor_.RecordSuccess("b");
  monitor_.RecordFailure("b");

  const std::vector<Monitor::NodeSnapshot> snapshot = monitor_.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].node, "a");  // Sorted by name.
  EXPECT_EQ(snapshot[1].node, "b");
  EXPECT_EQ(snapshot[0].latency_samples, 2u);
  EXPECT_EQ(snapshot[0].mean_latency_us, 200);
  EXPECT_EQ(snapshot[0].high_timestamp, (Timestamp{999, 0}));
  EXPECT_EQ(snapshot[0].last_contact_us, clock_.NowMicros());
  EXPECT_DOUBLE_EQ(snapshot[0].p_up, 1.0);
  EXPECT_EQ(snapshot[0].breaker, Monitor::BreakerState::kClosed);
  EXPECT_DOUBLE_EQ(snapshot[1].p_up, 0.5);
  EXPECT_EQ(snapshot[1].consecutive_failures, 1);
}

TEST_F(MonitorTest, SnapshotReflectsOpenBreaker) {
  for (int i = 0; i < Monitor::kBreakerFailureThreshold; ++i) {
    monitor_.RecordFailure("n");
  }
  const std::vector<Monitor::NodeSnapshot> snapshot = monitor_.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].breaker, Monitor::BreakerState::kOpen);
  EXPECT_DOUBLE_EQ(snapshot[0].p_up, 0.0);
  EXPECT_EQ(BreakerStateName(snapshot[0].breaker), "open");
  EXPECT_EQ(BreakerStateName(Monitor::BreakerState::kClosed), "closed");
  EXPECT_EQ(BreakerStateName(Monitor::BreakerState::kHalfOpen), "half-open");
}

TEST_F(MonitorTest, NodesAreIndependent) {
  monitor_.RecordLatency("a", 100);
  monitor_.RecordLatency("b", 100000);
  monitor_.RecordHighTimestamp("a", Timestamp{999, 0});
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("a", 1000), 1.0);
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("b", 1000), 0.0);
  EXPECT_EQ(monitor_.KnownHighTimestamp("b"), Timestamp::Zero());
}

// --- One lock per reply and per estimate ---

// Every externally visible part of two monitors' views of `node` matches.
void ExpectSameView(const Monitor& a, const Monitor& b,
                    const std::string& node) {
  ASSERT_EQ(a.samples_recorded(), b.samples_recorded());
  ASSERT_EQ(a.breaker_trips(), b.breaker_trips());
  const std::vector<Monitor::NodeSnapshot> sa = a.Snapshot();
  const std::vector<Monitor::NodeSnapshot> sb = b.Snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].node, sb[i].node);
    EXPECT_EQ(sa[i].latency_samples, sb[i].latency_samples);
    EXPECT_EQ(sa[i].mean_latency_us, sb[i].mean_latency_us);
    EXPECT_EQ(sa[i].p50_latency_us, sb[i].p50_latency_us);
    EXPECT_EQ(sa[i].p95_latency_us, sb[i].p95_latency_us);
    EXPECT_EQ(sa[i].p99_latency_us, sb[i].p99_latency_us);
    EXPECT_EQ(sa[i].high_timestamp, sb[i].high_timestamp);
    EXPECT_EQ(sa[i].high_observed_at_us, sb[i].high_observed_at_us);
    EXPECT_EQ(sa[i].last_contact_us, sb[i].last_contact_us);
    EXPECT_EQ(sa[i].p_up, sb[i].p_up);
    EXPECT_EQ(sa[i].breaker, sb[i].breaker);
    EXPECT_EQ(sa[i].consecutive_failures, sb[i].consecutive_failures);
    EXPECT_EQ(sa[i].overloaded, sb[i].overloaded);
    EXPECT_EQ(sa[i].queue_delay_us, sb[i].queue_delay_us);
  }
  EXPECT_EQ(a.PNodeUp(node), b.PNodeUp(node));
  EXPECT_EQ(a.KnownHighTimestamp(node), b.KnownHighTimestamp(node));
  EXPECT_EQ(a.QueueDelayUs(node), b.QueueDelayUs(node));
  EXPECT_EQ(a.MeanLatency(node), b.MeanLatency(node));
  EXPECT_EQ(a.NeedsProbe(node), b.NeedsProbe(node));
  for (const MicrosecondCount latency : {0, 900, 1000, 1500, 5000, 20000}) {
    EXPECT_EQ(a.PNodeLat(node, latency), b.PNodeLat(node, latency));
  }
}

TEST_F(MonitorTest, RecordReplyMatchesTheFourSingleCalls) {
  // `split` is fed the four single calls, `joint` one RecordReply, through a
  // random history of replies (with and without a latency sample, as Puts
  // record none), failures that trip and re-arm the breaker, and time.
  Monitor split(&clock_);
  Monitor joint(&clock_);
  Random rng(7);
  const std::string node = "n";
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE(step);
    const double op = rng.NextDouble();
    if (op < 0.6) {
      const MicrosecondCount rtt = 800 + rng.NextInt64InRange(0, 2000);
      const Timestamp high{rng.NextInt64InRange(0, 100000),
                           static_cast<uint32_t>(rng.NextUint64(3))};
      const MicrosecondCount delay = rng.NextInt64InRange(0, 3000);
      const bool with_latency = rng.NextBool(0.8);
      if (with_latency) {
        split.RecordLatency(node, rtt);
      }
      split.RecordSuccess(node);
      split.RecordHighTimestamp(node, high);
      split.RecordQueueDelay(node, delay);
      joint.RecordReply(node,
                        with_latency ? std::optional<MicrosecondCount>(rtt)
                                     : std::nullopt,
                        high, delay);
    } else if (op < 0.75) {
      split.RecordFailure(node);
      joint.RecordFailure(node);
    } else if (op < 0.8) {
      split.RecordOverload(node, 0);
      joint.RecordOverload(node, 0);
    } else {
      clock_.AdvanceMicros(rng.NextInt64InRange(0, SecondsToMicroseconds(3)));
    }
    ExpectSameView(split, joint, node);
    if (HasFailure()) {
      return;
    }
  }
}

TEST_F(MonitorTest, EstimateMatchesTheSingleGetters) {
  Monitor::Options options;
  options.predict_high_timestamp = true;
  Monitor monitor(&clock_, options);
  const Sla sla = Sla()
                      .Add(Guarantee::ReadMyWrites(), 1000, 1.0)
                      .Add(Guarantee::Eventual(), 3000, 0.5)
                      .Add(Guarantee::Strong(), 100, 0.2);
  std::vector<double> p_lat(sla.size());
  const auto expect_matches = [&](const std::string& node) {
    SCOPED_TRACE(node);
    const Monitor::NodeEstimate estimate =
        monitor.Estimate(node, sla.subslas(), p_lat);
    EXPECT_EQ(estimate.breaker_open, monitor.BreakerOpen(node));
    EXPECT_EQ(estimate.high_timestamp, monitor.KnownHighTimestamp(node));
    EXPECT_EQ(estimate.queue_delay_us, monitor.QueueDelayUs(node));
    EXPECT_EQ(estimate.p_up, monitor.PNodeUp(node));
    EXPECT_EQ(estimate.overloaded, monitor.IsOverloaded(node));
    EXPECT_EQ(estimate.mean_latency_us, monitor.MeanLatency(node));
    for (size_t rank = 0; rank < sla.size(); ++rank) {
      const MicrosecondCount budget = std::max<MicrosecondCount>(
          0, sla[rank].latency_us - monitor.QueueDelayUs(node));
      EXPECT_EQ(p_lat[rank], monitor.PNodeLat(node, budget)) << rank;
    }
  };
  expect_matches("never-seen");
  // Local evidence with a queue delay that eats the whole strong budget.
  for (int i = 0; i < 10; ++i) {
    monitor.RecordReply("local", 400 + 150 * i, Timestamp{5000, 0}, 600);
  }
  monitor.RecordFailure("local");
  clock_.AdvanceMicros(250);
  expect_matches("local");
  // Two local samples, and an overload window.
  monitor.RecordLatency("overloaded", 700);
  monitor.RecordLatency("overloaded", 1900);
  clock_.AdvanceMicros(SecondsToMicroseconds(5));
  monitor.RecordOverload("overloaded", 0);
  expect_matches("overloaded");
  // An open breaker.
  for (int i = 0; i < Monitor::kBreakerFailureThreshold; ++i) {
    monitor.RecordFailure("down");
  }
  expect_matches("down");
}

}  // namespace
}  // namespace pileus::core
