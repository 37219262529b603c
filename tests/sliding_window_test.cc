// Tests for the monitor's sliding latency window.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/util/sliding_window.h"

namespace pileus {
namespace {

constexpr MicrosecondCount kSec = kMicrosecondsPerSecond;

TEST(SlidingWindowTest, EmptyWindowUsesEmptyEstimate) {
  SlidingWindow window;
  EXPECT_DOUBLE_EQ(window.FractionBelow(0, 100), 1.0);
  EXPECT_DOUBLE_EQ(window.FractionBelow(0, 100, 0.25), 0.25);
  EXPECT_EQ(window.Mean(0), 0);
  EXPECT_EQ(window.Quantile(0, 0.5), 0);
  EXPECT_TRUE(window.Empty(0));
}

TEST(SlidingWindowTest, FractionBelowCountsStrictly) {
  SlidingWindow window;
  window.Record(0, 10);
  window.Record(0, 20);
  window.Record(0, 30);
  window.Record(0, 40);
  EXPECT_DOUBLE_EQ(window.FractionBelow(0, 25), 0.5);
  EXPECT_DOUBLE_EQ(window.FractionBelow(0, 10), 0.0);  // Strictly below.
  EXPECT_DOUBLE_EQ(window.FractionBelow(0, 41), 1.0);
}

TEST(SlidingWindowTest, OldSamplesExpire) {
  SlidingWindow::Options options;
  options.window_us = 10 * kSec;
  SlidingWindow window(options);
  window.Record(0, 1000);            // Will expire.
  window.Record(9 * kSec, 5000);     // Still alive at t=15s.
  EXPECT_EQ(window.SampleCount(15 * kSec), 1u);
  EXPECT_EQ(window.Mean(15 * kSec), 5000);
}

TEST(SlidingWindowTest, AllSamplesExpireBackToEmptyEstimate) {
  SlidingWindow::Options options;
  options.window_us = kSec;
  SlidingWindow window(options);
  window.Record(0, 1000);
  EXPECT_DOUBLE_EQ(window.FractionBelow(10 * kSec, 100, 0.7), 0.7);
}

TEST(SlidingWindowTest, MaxSamplesCapEvictsOldest) {
  SlidingWindow::Options options;
  options.max_samples = 3;
  SlidingWindow window(options);
  for (int i = 0; i < 10; ++i) {
    window.Record(i, 100 + i);
  }
  EXPECT_EQ(window.SampleCount(10), 3u);
  // Only the last three (107, 108, 109) remain.
  EXPECT_EQ(window.Mean(10), 108);
}

TEST(SlidingWindowTest, MeanIsArithmetic) {
  SlidingWindow window;
  window.Record(0, 100);
  window.Record(0, 200);
  window.Record(0, 600);
  EXPECT_EQ(window.Mean(0), 300);
}

TEST(SlidingWindowTest, QuantileNearestRank) {
  SlidingWindow window;
  for (int i = 1; i <= 100; ++i) {
    window.Record(0, i * 10);
  }
  EXPECT_EQ(window.Quantile(0, 0.0), 10);
  EXPECT_NEAR(window.Quantile(0, 0.5), 500, 10);
  EXPECT_NEAR(window.Quantile(0, 0.99), 990, 10);
  EXPECT_EQ(window.Quantile(0, 1.0), 1000);
}

TEST(SlidingWindowTest, LastSampleTime) {
  SlidingWindow window;
  EXPECT_EQ(window.LastSampleTime(), -1);
  window.Record(1234, 1);
  EXPECT_EQ(window.LastSampleTime(), 1234);
  window.Record(5678, 1);
  EXPECT_EQ(window.LastSampleTime(), 5678);
}

TEST(SlidingWindowTest, ClearEmptiesWindow) {
  SlidingWindow window;
  window.Record(0, 1);
  window.Clear();
  EXPECT_TRUE(window.Empty(0));
}

TEST(SlidingWindowTest, EvictingOneOfEqualValuesKeepsTheOthers) {
  SlidingWindow::Options options;
  options.window_us = 10 * kSec;
  options.max_samples = 3;
  SlidingWindow window(options);
  window.Record(0, 5);
  window.Record(5 * kSec, 5);
  window.Record(6 * kSec, 7);
  window.Record(6 * kSec, 9);  // Over the cap: the first 5 goes.
  EXPECT_EQ(window.SampleCount(6 * kSec), 3u);
  EXPECT_DOUBLE_EQ(window.FractionBelow(6 * kSec, 6), 1.0 / 3.0);
  EXPECT_EQ(window.Quantile(6 * kSec, 0.0), 5);
  EXPECT_EQ(window.Mean(6 * kSec), 7);
  // At 15.5 s the second 5 has aged out too; 7 and 9 remain.
  EXPECT_EQ(window.SampleCount(15 * kSec + kSec / 2), 2u);
  EXPECT_DOUBLE_EQ(window.FractionBelow(15 * kSec + kSec / 2, 6), 0.0);
  EXPECT_EQ(window.Mean(15 * kSec + kSec / 2), 8);
}

// Compares every query of `window` with a brute-force recomputation over
// `reference` (arrival-ordered (at_us, value) pairs). Quantiles are checked at
// every rank, so the window's whole sorted index must match.
void ExpectMatchesReference(
    const SlidingWindow& window, MicrosecondCount now,
    const std::deque<std::pair<MicrosecondCount, MicrosecondCount>>&
        reference,
    MicrosecondCount max_value) {
  std::vector<MicrosecondCount> values;
  MicrosecondCount sum = 0;
  for (const auto& [at_us, value] : reference) {
    values.push_back(value);
    sum += value;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();

  ASSERT_EQ(window.SampleCount(now), n);
  for (MicrosecondCount t = -1; t <= max_value + 2; ++t) {
    const auto below = static_cast<size_t>(
        std::count_if(values.begin(), values.end(),
                      [t](MicrosecondCount v) { return v < t; }));
    const double expected =
        n == 0 ? 0.5 : static_cast<double>(below) / static_cast<double>(n);
    ASSERT_EQ(window.FractionBelow(now, t, 0.5), expected) << "t=" << t;
  }
  ASSERT_EQ(window.Mean(now),
            n == 0 ? 0 : sum / static_cast<MicrosecondCount>(n));
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    const size_t rank =
        std::min(n - 1, static_cast<size_t>(q * static_cast<double>(n)));
    ASSERT_EQ(window.Quantile(now, q), n == 0 ? 0 : values[rank])
        << "q=" << q;
  }
  for (size_t rank = 0; rank < n; ++rank) {
    const double q =
        (static_cast<double>(rank) + 0.5) / static_cast<double>(n);
    ASSERT_EQ(window.Quantile(now, q), values[rank]) << "rank=" << rank;
  }
}

// Drives the window through a seeded random mix of records (values drawn from
// a small range, so most are duplicates), clock advances that expire samples,
// max_samples overflow and clears, and after every step compares each query
// with a brute-force recomputation over a plain list. Equality is exact. Runs
// at several capacities, and with 0/1 values as the monitor's outcomes window
// records them.
TEST(SlidingWindowTest, MatchesBruteForceOnRandomHistory) {
  struct Shape {
    size_t max_samples;
    MicrosecondCount max_value;
  };
  for (const Shape shape : {Shape{16, 20}, Shape{1, 20}, Shape{2, 20},
                            Shape{16, 1}, Shape{2, 1}}) {
    SCOPED_TRACE(testing::Message() << "max_samples=" << shape.max_samples
                                    << " max_value=" << shape.max_value);
    SlidingWindow::Options options;
    options.window_us = 1000;
    options.max_samples = shape.max_samples;
    SlidingWindow window(options);
    std::deque<std::pair<MicrosecondCount, MicrosecondCount>> reference;
    Random rng(42);
    MicrosecondCount now = 0;
    for (int step = 0; step < 20000; ++step) {
      SCOPED_TRACE(step);
      const double op = rng.NextDouble();
      if (op < 0.7) {
        const MicrosecondCount value =
            rng.NextInt64InRange(0, shape.max_value);
        window.Record(now, value);
        reference.emplace_back(now, value);
        if (reference.size() > options.max_samples) {
          reference.pop_front();
        }
      } else if (op < 0.95) {
        now += rng.NextInt64InRange(0, 40);
      } else if (op < 0.99) {
        now += rng.NextInt64InRange(0, 1500);  // Expires some or all samples.
      } else {
        window.Clear();
        reference.clear();
      }
      while (!reference.empty() &&
             reference.front().first < now - options.window_us) {
        reference.pop_front();
      }
      ExpectMatchesReference(window, now, reference, shape.max_value);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// A record into a full window whose oldest samples have just aged out: the
// age eviction makes room first, so nothing else leaves. Then a record into a
// full window with nothing aged out replaces exactly the oldest sample.
TEST(SlidingWindowTest, RecordAtCapacityCoincidingWithAgeEviction) {
  SlidingWindow::Options options;
  options.window_us = 100;
  options.max_samples = 4;
  SlidingWindow window(options);
  std::deque<std::pair<MicrosecondCount, MicrosecondCount>> reference;
  const auto record = [&](MicrosecondCount at_us, MicrosecondCount value) {
    window.Record(at_us, value);
    reference.emplace_back(at_us, value);
    while (reference.front().first < at_us - options.window_us) {
      reference.pop_front();
    }
    if (reference.size() > options.max_samples) {
      reference.pop_front();
    }
  };
  record(0, 30);
  record(0, 10);
  record(50, 20);
  record(60, 40);
  ExpectMatchesReference(window, 60, reference, 50);
  // At 101 both samples taken at 0 are older than the window: the full
  // window drops them by age, and the new sample leaves the other two be.
  record(101, 25);
  ASSERT_EQ(reference.size(), 3u);
  ExpectMatchesReference(window, 101, reference, 50);
  record(102, 5);
  record(103, 45);  // Full, nothing aged out: 20 (taken at 50) leaves.
  ASSERT_EQ(reference.size(), 4u);
  ExpectMatchesReference(window, 103, reference, 50);
  // Full again at 160 (cutoff 60: the sample taken at 60 is not older than
  // the window), so the sample taken at 60 leaves as the oldest.
  record(160, 40);
  ASSERT_EQ(reference.front().first, 101);
  ExpectMatchesReference(window, 160, reference, 50);
  // At 202 (cutoff 102) the sample taken at 101 ages out just as the full
  // window takes a new one: exactly one sample leaves.
  record(202, 0);
  ASSERT_EQ(reference.size(), 4u);
  ASSERT_EQ(reference.front().first, 102);
  ExpectMatchesReference(window, 202, reference, 50);
}

}  // namespace
}  // namespace pileus
