// Tests for SelectTarget (paper Figure 8): expected-utility maximization,
// the tie semantics, tie-break policies, and the parallel-Get candidate set.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/clock.h"
#include "src/core/selection.h"

namespace pileus::core {
namespace {

constexpr MicrosecondCount kNow = SecondsToMicroseconds(1000);

// A point Get's minimum acceptable read timestamps for `key` at `now_us`.
MinReadTimestampFn KeyFloor(const Session& session, std::string_view key,
                            MicrosecondCount now_us) {
  return [&session, key, now_us](const Guarantee& guarantee) {
    return session.MinReadTimestamp(guarantee, key, now_us);
  };
}

class SelectionTest : public ::testing::Test {
 protected:
  SelectionTest()
      : clock_(kNow), monitor_(&clock_), session_(ShoppingCartSla()) {
    replicas_ = {
        ReplicaView{"primary", /*authoritative=*/true},
        ReplicaView{"near", false},
        ReplicaView{"far", false},
    };
  }

  // Fills the monitor so `node` has the given mean RTT (all samples equal)
  // and high timestamp.
  void Teach(const std::string& node, MicrosecondCount rtt,
             Timestamp high) {
    for (int i = 0; i < 10; ++i) {
      monitor_.RecordLatency(node, rtt);
    }
    monitor_.RecordHighTimestamp(node, high);
  }

  SelectionResult Select(const Sla& sla, std::string_view key = "k") {
    return SelectTarget(sla, replicas_,
                        KeyFloor(session_, key, clock_.NowMicros()), monitor_,
                        options_, &rng_);
  }

  ManualClock clock_;
  Monitor monitor_;
  Session session_;
  std::vector<ReplicaView> replicas_;
  SelectionOptions options_;
  Random rng_{1};
};

TEST_F(SelectionTest, EmptyReplicasYieldsInvalidResult) {
  const SelectionResult result =
      SelectTarget(ShoppingCartSla(), {}, KeyFloor(session_, "k", kNow),
                   monitor_, options_, &rng_);
  EXPECT_EQ(result.target_rank, -1);
  EXPECT_EQ(result.node_index, -1);
}

TEST_F(SelectionTest, StrongGoesOnlyToAuthoritative) {
  Teach("primary", MillisecondsToMicroseconds(150), Timestamp{1, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{999999, 0});
  const Sla sla = Sla().Add(Guarantee::Strong(), SecondsToMicroseconds(10),
                            1.0);
  const SelectionResult result = Select(sla);
  EXPECT_EQ(result.target_rank, 0);
  EXPECT_EQ(result.node_index, 0);  // The primary despite being slower.
}

TEST_F(SelectionTest, EventualPrefersClosestOnTies) {
  Teach("primary", MillisecondsToMicroseconds(150), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{100, 0});
  Teach("far", MillisecondsToMicroseconds(300), Timestamp{100, 0});
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  const SelectionResult result = Select(sla);
  EXPECT_EQ(result.node_index, 1);
  EXPECT_EQ(result.candidates.size(), 3u);  // All tied at utility 1.
}

TEST_F(SelectionTest, StaleNodeLosesOnConsistency) {
  session_.RecordPut("k", Timestamp{500, 0});
  Teach("primary", MillisecondsToMicroseconds(150), Timestamp{600, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{400, 0});  // Stale.
  const Sla sla =
      Sla().Add(Guarantee::ReadMyWrites(), SecondsToMicroseconds(10), 1.0);
  const SelectionResult result = Select(sla);
  EXPECT_EQ(result.node_index, 0);  // Primary: near can't provide RMW.
}

TEST_F(SelectionTest, AuthoritativeSatisfiesAnyThreshold) {
  // Even with no recorded high timestamp, the primary qualifies for
  // timestamp-based guarantees.
  session_.RecordPut("k", Timestamp{500, 0});
  Teach("primary", MillisecondsToMicroseconds(150), Timestamp::Zero());
  const Sla sla =
      Sla().Add(Guarantee::ReadMyWrites(), SecondsToMicroseconds(10), 1.0);
  EXPECT_EQ(Select(sla).node_index, 0);
}

TEST_F(SelectionTest, FallsToSecondSubSlaWhenFirstUnattainable) {
  // Password-checking shape: strong@150ms impossible (primary too far),
  // eventual@150ms possible locally.
  Teach("primary", MillisecondsToMicroseconds(400), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{100, 0});
  Teach("far", MillisecondsToMicroseconds(300), Timestamp{100, 0});
  const Sla sla = Sla()
                      .Add(Guarantee::Strong(),
                           MillisecondsToMicroseconds(150), 1.0)
                      .Add(Guarantee::Eventual(),
                           MillisecondsToMicroseconds(150), 0.5);
  const SelectionResult result = Select(sla);
  EXPECT_EQ(result.target_rank, 1);
  EXPECT_EQ(result.node_index, 1);
  EXPECT_DOUBLE_EQ(result.expected_utility, 0.5);
}

TEST_F(SelectionTest, HigherRankWinsEqualExpectedUtility) {
  // Figure 8 semantics: when a later subSLA pair merely equals maxutil, the
  // target stays with the earlier subSLA.
  Teach("primary", MillisecondsToMicroseconds(1), Timestamp{100, 0});
  const Sla sla = Sla()
                      .Add(Guarantee::Strong(), SecondsToMicroseconds(10), 1.0)
                      .Add(Guarantee::Eventual(), SecondsToMicroseconds(10),
                           1.0);
  const SelectionResult result = Select(sla);
  EXPECT_EQ(result.target_rank, 0);
}

TEST_F(SelectionTest, SecondSubSlaCanBeatFirstOnProbability) {
  // The paper's example (Section 4.6.1): if subSLA 2 is nearly as valuable
  // and far more likely, it becomes the target.
  session_.RecordPut("k", Timestamp{500, 0});
  // Primary is slow: only 20% of samples under 300 ms.
  for (int i = 0; i < 2; ++i) {
    monitor_.RecordLatency("primary", MillisecondsToMicroseconds(100));
  }
  for (int i = 0; i < 8; ++i) {
    monitor_.RecordLatency("primary", MillisecondsToMicroseconds(500));
  }
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{400, 0});
  Teach("far", MillisecondsToMicroseconds(400), Timestamp{400, 0});
  const Sla sla = Sla()
                      .Add(Guarantee::ReadMyWrites(),
                           MillisecondsToMicroseconds(300), 1.0)
                      .Add(Guarantee::Eventual(),
                           MillisecondsToMicroseconds(300), 0.9);
  const SelectionResult result = Select(sla);
  // SubSLA1 via primary: 0.2 * 1.0 = 0.2. SubSLA2 via near: 1.0 * 0.9.
  EXPECT_EQ(result.target_rank, 1);
  EXPECT_EQ(result.node_index, 1);
}

TEST_F(SelectionTest, RandomTieBreakUsesAllCandidates) {
  Teach("primary", MillisecondsToMicroseconds(10), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(10), Timestamp{100, 0});
  Teach("far", MillisecondsToMicroseconds(10), Timestamp{100, 0});
  options_.tie_break = TieBreak::kRandom;
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  std::set<int> chosen;
  for (int i = 0; i < 100; ++i) {
    chosen.insert(Select(sla).node_index);
  }
  EXPECT_EQ(chosen.size(), 3u);
}

TEST_F(SelectionTest, FreshestTieBreakPicksHighestTimestamp) {
  Teach("primary", MillisecondsToMicroseconds(10), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(10), Timestamp{300, 0});
  Teach("far", MillisecondsToMicroseconds(10), Timestamp{200, 0});
  options_.tie_break = TieBreak::kFreshest;
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  EXPECT_EQ(Select(sla).node_index, 1);
}

TEST_F(SelectionTest, CandidateEpsilonWidensFanoutSet) {
  session_.RecordPut("k", Timestamp{500, 0});
  Teach("primary", MillisecondsToMicroseconds(100), Timestamp{600, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{400, 0});
  Teach("far", MillisecondsToMicroseconds(5), Timestamp{400, 0});
  const Sla sla = Sla()
                      .Add(Guarantee::ReadMyWrites(),
                           MillisecondsToMicroseconds(300), 1.0)
                      .Add(Guarantee::Eventual(),
                           MillisecondsToMicroseconds(300), 0.8);

  // Exact ties only: the primary (1.0) is the sole candidate.
  const SelectionResult tight = Select(sla);
  EXPECT_EQ(tight.node_index, 0);
  EXPECT_EQ(tight.candidates.size(), 1u);

  // With epsilon 0.3 the eventual nodes (best 0.8) join the fan-out set, but
  // the chosen node is unchanged.
  options_.candidate_epsilon = 0.3;
  const SelectionResult wide = Select(sla);
  EXPECT_EQ(wide.node_index, 0);
  EXPECT_EQ(wide.candidates.size(), 3u);
  EXPECT_EQ(wide.candidates[0], 0);  // Chosen node first.
}

TEST_F(SelectionTest, ExpectedUtilityHelperMatchesManualProduct) {
  session_.RecordPut("k", Timestamp{500, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{600, 0});
  const SubSla sub{Guarantee::ReadMyWrites(), MillisecondsToMicroseconds(300),
                   0.7};
  EXPECT_DOUBLE_EQ(
      ExpectedUtility(sub, replicas_[1], KeyFloor(session_, "k", kNow),
                      monitor_),
      0.7);  // PCons 1 * PLat 1 * utility.
  const SubSla slow{Guarantee::ReadMyWrites(), 500, 0.7};  // 0.5 ms target.
  EXPECT_DOUBLE_EQ(
      ExpectedUtility(slow, replicas_[1], KeyFloor(session_, "k", kNow),
                      monitor_),
      0.0);  // No sample under 0.5 ms.
}

TEST_F(SelectionTest, DownNodeIsAvoided) {
  Teach("primary", MillisecondsToMicroseconds(150), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{100, 0});
  Teach("far", MillisecondsToMicroseconds(50), Timestamp{100, 0});
  // The near node is dead: every recent outcome is a failure.
  for (int i = 0; i < 10; ++i) {
    monitor_.RecordFailure("near");
  }
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  const SelectionResult result = Select(sla);
  EXPECT_NE(result.node_index, 1);
  EXPECT_EQ(result.node_index, 2);  // Next closest live node.
}

TEST_F(SelectionTest, DegradedNodeLosesToHealthyOne) {
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{100, 0});
  Teach("far", MillisecondsToMicroseconds(50), Timestamp{100, 0});
  // near answers only half the time.
  for (int i = 0; i < 5; ++i) {
    monitor_.RecordSuccess("near");
    monitor_.RecordFailure("near");
    monitor_.RecordSuccess("far");
  }
  Teach("primary", MillisecondsToMicroseconds(400), Timestamp{100, 0});
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  // far: 1.0 expected; near: 0.5 expected.
  EXPECT_EQ(Select(sla).node_index, 2);
}

TEST_F(SelectionTest, BoundedUsesNow) {
  Teach("near", MillisecondsToMicroseconds(1),
        Timestamp{kNow - SecondsToMicroseconds(10), 0});
  const Sla sla = Sla().Add(Guarantee::BoundedSeconds(30),
                            SecondsToMicroseconds(10), 1.0);
  // Within the bound now...
  EXPECT_EQ(Select(sla).expected_utility, 1.0);
  // ...but not after 25 more seconds without fresh evidence.
  clock_.AdvanceMicros(SecondsToMicroseconds(25));
  const SelectionResult result = Select(sla);
  // Only the (authoritative) primary can still promise the bound.
  EXPECT_EQ(result.node_index, 0);
}

// Property test: against an oracle. For randomized monitor/session states,
// SelectTarget's expected_utility must equal the brute-force maximum over
// every (subSLA, replica) pair, and the chosen node must achieve it.
TEST_F(SelectionTest, MatchesBruteForceOracleOnRandomStates) {
  Random rng(2026);
  const Sla slas[] = {ShoppingCartSla(), PasswordCheckingSla(),
                      WebApplicationSla()};
  for (int trial = 0; trial < 500; ++trial) {
    Monitor monitor(&clock_);
    Session session(ShoppingCartSla());
    // Random evidence for each node.
    for (const ReplicaView& replica : replicas_) {
      const int samples = static_cast<int>(rng.NextUint64(12));
      for (int s = 0; s < samples; ++s) {
        monitor.RecordLatency(
            replica.name,
            MillisecondsToMicroseconds(1 + rng.NextUint64(600)));
      }
      if (rng.NextBool(0.8)) {
        monitor.RecordHighTimestamp(
            replica.name,
            Timestamp{clock_.NowMicros() -
                          static_cast<MicrosecondCount>(
                              rng.NextUint64(SecondsToMicroseconds(120))),
                      0});
      }
      if (rng.NextBool(0.2)) {
        monitor.RecordFailure(replica.name);
      }
    }
    // Random session history.
    if (rng.NextBool(0.5)) {
      session.RecordPut("k", Timestamp{clock_.NowMicros() -
                                           static_cast<MicrosecondCount>(
                                               rng.NextUint64(1000000)),
                                       0});
    }
    if (rng.NextBool(0.5)) {
      session.RecordGet("k", Timestamp{clock_.NowMicros() -
                                           static_cast<MicrosecondCount>(
                                               rng.NextUint64(1000000)),
                                       0});
    }

    const Sla& sla = slas[trial % 3];
    const MinReadTimestampFn floor =
        KeyFloor(session, "k", clock_.NowMicros());
    const SelectionResult result =
        SelectTarget(sla, replicas_, floor, monitor, options_, &rng_);

    double oracle_max = 0.0;
    for (size_t rank = 0; rank < sla.size(); ++rank) {
      for (const ReplicaView& replica : replicas_) {
        oracle_max = std::max(
            oracle_max, ExpectedUtility(sla[rank], replica, floor, monitor));
      }
    }
    ASSERT_DOUBLE_EQ(result.expected_utility, oracle_max) << "trial " << trial;

    // The chosen node achieves the maximum through some subSLA.
    double chosen_best = 0.0;
    for (size_t rank = 0; rank < sla.size(); ++rank) {
      chosen_best = std::max(
          chosen_best, ExpectedUtility(sla[rank], replicas_[result.node_index],
                                       floor, monitor));
    }
    ASSERT_DOUBLE_EQ(chosen_best, oracle_max) << "trial " << trial;

    // A target subSLA was always selected. (Note: Figure 8 ties are pooled
    // across subSLAs, so the *chosen node* may reach maxutil through a
    // different subSLA than the target - that is the paper's semantics.)
    ASSERT_GE(result.target_rank, 0);
  }
}

// The per-(rank, replica) oracle, spelled out over the monitor's single
// getters: PNodeCons * PNodeLat(budget) * PNodeUp * utility, budget = the
// rank's latency less the queue delay, discounted by POverload for
// non-authoritative ranks.
double OracleUtility(const SubSla& sub, const ReplicaView& replica,
                     const MinReadTimestampFn& floor, const Monitor& monitor) {
  double p_cons;
  if (sub.consistency.RequiresAuthoritative()) {
    p_cons = replica.authoritative ? 1.0 : 0.0;
  } else {
    p_cons = replica.authoritative
                 ? 1.0
                 : monitor.PNodeCons(replica.name, floor(sub.consistency));
  }
  if (p_cons == 0.0) {
    return 0.0;
  }
  const MicrosecondCount budget = std::max<MicrosecondCount>(
      0, sub.latency_us - monitor.QueueDelayUs(replica.name));
  double util = p_cons * monitor.PNodeLat(replica.name, budget) *
                monitor.PNodeUp(replica.name) * sub.utility;
  if (!sub.consistency.RequiresAuthoritative()) {
    util *= monitor.POverload(replica.name, sub.utility);
  }
  return util;
}

// Figure 8 over the oracle, one getter call per question: breaker filter,
// rank-major maximum with ties pooled, the tie-break, epsilon widening and
// the candidate order.
SelectionResult OracleSelect(const Sla& sla,
                             const std::vector<ReplicaView>& replicas,
                             const MinReadTimestampFn& floor,
                             const Monitor& monitor,
                             const SelectionOptions& options) {
  SelectionResult result;
  std::vector<bool> eligible(replicas.size());
  bool any = false;
  for (size_t i = 0; i < replicas.size(); ++i) {
    eligible[i] = !monitor.BreakerOpen(replicas[i].name);
    any = any || eligible[i];
  }
  if (!any) {
    std::fill(eligible.begin(), eligible.end(), true);
  }
  double maxutil = -1.0;
  std::vector<double> best(replicas.size(), -1.0);
  for (size_t rank = 0; rank < sla.size(); ++rank) {
    for (size_t i = 0; i < replicas.size(); ++i) {
      if (!eligible[i]) {
        continue;
      }
      const double util = OracleUtility(sla[rank], replicas[i], floor, monitor);
      best[i] = std::max(best[i], util);
      const int index = static_cast<int>(i);
      if (util > maxutil) {
        maxutil = util;
        result.target_rank = static_cast<int>(rank);
        result.candidates = {index};
      } else if (util == maxutil &&
                 std::find(result.candidates.begin(), result.candidates.end(),
                           index) == result.candidates.end()) {
        result.candidates.push_back(index);
      }
    }
  }
  result.expected_utility = std::max(maxutil, 0.0);
  int chosen = result.candidates.front();
  for (int candidate : result.candidates) {
    const std::string& name = replicas[candidate].name;
    const std::string& leader = replicas[chosen].name;
    if (options.tie_break == TieBreak::kClosest
            ? monitor.MeanLatency(name) < monitor.MeanLatency(leader)
            : monitor.KnownHighTimestamp(name) >
                  monitor.KnownHighTimestamp(leader)) {
      chosen = candidate;
    }
  }
  result.node_index = chosen;
  for (size_t i = 0; i < replicas.size(); ++i) {
    const int index = static_cast<int>(i);
    if (options.candidate_epsilon > 0.0 && eligible[i] &&
        best[i] >= maxutil - options.candidate_epsilon &&
        std::find(result.candidates.begin(), result.candidates.end(),
                  index) == result.candidates.end()) {
      result.candidates.push_back(index);
    }
  }
  std::sort(result.candidates.begin(), result.candidates.end(),
            [&](int a, int b) {
              if (a == chosen || b == chosen) {
                return a == chosen && b != chosen;
              }
              return monitor.MeanLatency(replicas[a].name) <
                     monitor.MeanLatency(replicas[b].name);
            });
  return result;
}

// SelectTarget reads one monitor estimate per replica; the oracle asks the
// single getters for every pair. They must agree exactly, in every input an
// estimate carries: open breakers (one, or all), overload windows, queue
// delays, predicted high timestamps, and SLAs of up to 11 ranks.
TEST_F(SelectionTest, SelectTargetMatchesThePerPairOracle) {
  Random rng(4242);
  std::vector<ReplicaView> replicas = replicas_;
  replicas.push_back(ReplicaView{"edge", false});
  const auto random_sla = [&rng](size_t ranks) {
    Sla sla;
    double utility = 1.0;
    for (size_t rank = 0; rank < ranks; ++rank) {
      Guarantee guarantee = Guarantee::Eventual();
      switch (rng.NextUint64(5)) {
        case 0:
          guarantee = Guarantee::Strong();
          break;
        case 1:
          guarantee = Guarantee::ReadMyWrites();
          break;
        case 2:
          guarantee = Guarantee::Monotonic();
          break;
        case 3:
          guarantee = Guarantee::BoundedSeconds(
              static_cast<int>(1 + rng.NextUint64(60)));
          break;
        default:
          break;
      }
      sla.Add(guarantee,
              MillisecondsToMicroseconds(
                  static_cast<MicrosecondCount>(1 + rng.NextUint64(300))),
              utility);
      if (rng.NextBool(0.7)) {
        utility *= rng.NextDouble();
      }
    }
    return sla;
  };
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE(trial);
    Monitor::Options monitor_options;
    monitor_options.predict_high_timestamp = rng.NextBool(0.5);
    Monitor monitor(&clock_, monitor_options);
    Session session(ShoppingCartSla());
    const bool all_down = rng.NextBool(0.05);
    for (const ReplicaView& replica : replicas) {
      // Few distinct latencies, so exact utility ties are common.
      const int samples = static_cast<int>(rng.NextUint64(10));
      for (int s = 0; s < samples; ++s) {
        monitor.RecordReply(
            replica.name,
            MillisecondsToMicroseconds(
                static_cast<MicrosecondCount>(1 + 50 * rng.NextUint64(6))),
            Timestamp{kNow - static_cast<MicrosecondCount>(rng.NextUint64(
                                 SecondsToMicroseconds(120))),
                      0},
            rng.NextBool(0.3)
                ? static_cast<MicrosecondCount>(
                      rng.NextUint64(MillisecondsToMicroseconds(30)))
                : 0);
      }
      if (all_down || rng.NextBool(0.15)) {
        for (int f = 0; f < Monitor::kBreakerFailureThreshold; ++f) {
          monitor.RecordFailure(replica.name);
        }
      } else if (rng.NextBool(0.2)) {
        monitor.RecordFailure(replica.name);
      }
      if (rng.NextBool(0.2)) {
        monitor.RecordOverload(replica.name, 0);
      }
    }
    if (rng.NextBool(0.5)) {
      session.RecordPut("k", Timestamp{kNow - static_cast<MicrosecondCount>(
                                                  rng.NextUint64(2000000)),
                                       0});
    }
    if (rng.NextBool(0.5)) {
      session.RecordGet("k", Timestamp{kNow - static_cast<MicrosecondCount>(
                                                  rng.NextUint64(2000000)),
                                       0});
    }
    clock_.AdvanceMicros(static_cast<MicrosecondCount>(
        rng.NextUint64(SecondsToMicroseconds(2))));

    const Sla sla = random_sla(1 + rng.NextUint64(11));
    SelectionOptions options;
    options.tie_break =
        rng.NextBool(0.5) ? TieBreak::kClosest : TieBreak::kFreshest;
    options.candidate_epsilon = rng.NextBool(0.3) ? 0.1 : 0.0;
    const MinReadTimestampFn floor =
        KeyFloor(session, "k", clock_.NowMicros());
    const SelectionResult got =
        SelectTarget(sla, replicas, floor, monitor, options, &rng_);
    const SelectionResult want =
        OracleSelect(sla, replicas, floor, monitor, options);
    ASSERT_EQ(got.target_rank, want.target_rank);
    ASSERT_EQ(got.node_index, want.node_index);
    ASSERT_EQ(got.expected_utility, want.expected_utility);
    ASSERT_EQ(got.candidates, want.candidates);
    for (size_t rank = 0; rank < sla.size(); ++rank) {
      for (const ReplicaView& replica : replicas) {
        ASSERT_EQ(ExpectedUtility(sla[rank], replica, floor, monitor),
                  OracleUtility(sla[rank], replica, floor, monitor))
            << "rank " << rank << " at " << replica.name;
      }
    }
  }
}

}  // namespace
}  // namespace pileus::core
