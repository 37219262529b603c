// Tests for src/common: Status/Result, Timestamp, clocks, Random.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/timestamp.h"

namespace pileus {
namespace {

// --- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status(StatusCode::kNotFound, "key 'x' missing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "key 'x' missing");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: key 'x' missing");
}

TEST(StatusTest, ErrorWithoutMessage) {
  Status status(StatusCode::kTimeout);
  EXPECT_EQ(status.ToString(), "TIMEOUT");
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status(StatusCode::kTimeout, "a"), Status(StatusCode::kTimeout, "b"));
  EXPECT_NE(Status(StatusCode::kTimeout), Status(StatusCode::kUnavailable));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kInvalidArgument,
        StatusCode::kTimeout, StatusCode::kUnavailable, StatusCode::kWrongNode,
        StatusCode::kNotPrimary, StatusCode::kCorruption,
        StatusCode::kInternal, StatusCode::kCancelled,
        StatusCode::kOverloaded, StatusCode::kWrongTablet}) {
    EXPECT_NE(StatusCodeName(code), "UNKNOWN")
        << "code " << static_cast<int>(code);
    EXPECT_TRUE(IsStatusCode(static_cast<uint64_t>(code)));
  }
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status(StatusCode::kCancelled, "boom"); };
  auto outer = [&]() -> Status {
    PILEUS_RETURN_IF_ERROR(inner());
    ADD_FAILURE() << "should not reach";
    return Status::Ok();
  };
  EXPECT_EQ(outer().code(), StatusCode::kCancelled);
}

// --- Result ---

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(StatusCode::kNotFound, "nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<std::string> result(std::string("hello"));
  EXPECT_EQ(result.value_or("fallback"), "hello");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> result(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(result).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> result(std::string("abc"));
  EXPECT_EQ(result->size(), 3u);
}

// --- Timestamp ---

TEST(TimestampTest, OrderingByPhysicalThenSequence) {
  const Timestamp a{100, 0};
  const Timestamp b{100, 1};
  const Timestamp c{101, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(a, (Timestamp{100, 0}));
}

TEST(TimestampTest, ZeroAndMax) {
  EXPECT_TRUE(Timestamp::Zero().IsZero());
  EXPECT_FALSE(Timestamp::Max().IsZero());
  EXPECT_LT(Timestamp::Zero(), Timestamp::Max());
  EXPECT_LT((Timestamp{INT64_MAX, 0}), Timestamp::Max());
}

TEST(TimestampTest, MaxTimestampPicksLarger) {
  const Timestamp a{5, 9};
  const Timestamp b{6, 0};
  EXPECT_EQ(MaxTimestamp(a, b), b);
  EXPECT_EQ(MaxTimestamp(b, a), b);
  EXPECT_EQ(MaxTimestamp(a, a), a);
}

TEST(TimestampTest, ToStringIsReadable) {
  EXPECT_EQ((Timestamp{1234, 7}).ToString(), "1234.000007");
}

// --- Clocks ---

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.AdvanceMicros(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.SetMicros(1000);
  EXPECT_EQ(clock.NowMicros(), 1000);
}

TEST(ClockTest, RealClockIsMonotonic) {
  RealClock* clock = RealClock::Instance();
  const MicrosecondCount a = clock->NowMicros();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const MicrosecondCount b = clock->NowMicros();
  EXPECT_GE(b - a, 1000);
}

TEST(ClockTest, OffsetClockShiftsBase) {
  ManualClock base(1000);
  OffsetClock ahead(&base, 500);
  OffsetClock behind(&base, -300);
  EXPECT_EQ(ahead.NowMicros(), 1500);
  EXPECT_EQ(behind.NowMicros(), 700);
  base.AdvanceMicros(100);
  EXPECT_EQ(ahead.NowMicros(), 1600);
  ahead.set_offset(0);
  EXPECT_EQ(ahead.NowMicros(), base.NowMicros());
}

TEST(ClockTest, UnitConversions) {
  EXPECT_EQ(MillisecondsToMicroseconds(3), 3000);
  EXPECT_EQ(SecondsToMicroseconds(2), 2000000);
  EXPECT_DOUBLE_EQ(MicrosecondsToMilliseconds(1500), 1.5);
}

// --- Random ---

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RandomTest, BoundedStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, Int64RangeInclusive) {
  Random rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt64InRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All values hit over 1000 draws.
}

TEST(RandomTest, BoolProbabilityExtremes) {
  Random rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RandomTest, BoolProbabilityRoughlyCalibrated) {
  Random rng(15);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

TEST(RandomTest, GaussianMomentsRoughlyStandard) {
  Random rng(17);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.03);
}

TEST(RandomTest, ForkGivesIndependentStream) {
  Random parent(19);
  Random child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.NextUint64() == child.NextUint64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace pileus
