// Time-bounded sliding window of latency samples.
//
// Pileus monitors keep "a sliding window of the last few minutes of
// measurements" per storage node (paper Section 4.5). PNodeLat(node, L) is the
// fraction of windowed round-trip times below L; the window also exposes the
// mean and quantiles. Every windowed sample counts equally. The client queries
// the window on every Get, so beside the arrival-ordered samples it keeps a
// sorted copy of their values and a running sum: FractionBelow is a binary
// search, Mean and Quantile are O(1), and Record pays one sorted insert (a
// memmove bounded by max_samples).

#ifndef PILEUS_SRC_UTIL_SLIDING_WINDOW_H_
#define PILEUS_SRC_UTIL_SLIDING_WINDOW_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "src/common/clock.h"

namespace pileus {

class SlidingWindow {
 public:
  struct Options {
    // Samples older than this are evicted.
    MicrosecondCount window_us = SecondsToMicroseconds(120);
    // Hard cap on retained samples regardless of age.
    size_t max_samples = 4096;
  };

  SlidingWindow() : SlidingWindow(Options{}) {}
  explicit SlidingWindow(Options options) : options_(options) {}

  // Records a latency sample observed at `now_us`.
  void Record(MicrosecondCount now_us, MicrosecondCount value_us);

  // Fraction of samples strictly below `threshold_us`; returns
  // `empty_estimate` when no samples are in the window, modelling an
  // unmeasured node optimistically so it gets probed/tried.
  double FractionBelow(MicrosecondCount now_us, MicrosecondCount threshold_us,
                       double empty_estimate = 1.0) const;

  // Arithmetic mean of windowed samples (0 when empty).
  MicrosecondCount Mean(MicrosecondCount now_us) const;

  // q in [0,1]; nearest-rank quantile of windowed samples (0 when empty).
  MicrosecondCount Quantile(MicrosecondCount now_us, double q) const;

  size_t SampleCount(MicrosecondCount now_us) const;
  bool Empty(MicrosecondCount now_us) const { return SampleCount(now_us) == 0; }

  // Time of the most recent sample, or -1 if none.
  MicrosecondCount LastSampleTime() const {
    return samples_.empty() ? -1 : samples_.back().at_us;
  }

  void Clear();

 private:
  struct Sample {
    MicrosecondCount at_us;
    MicrosecondCount value_us;
  };

  void EvictExpired(MicrosecondCount now_us) const;
  // Drops the oldest sample from the arrival order and the index.
  void PopOldest() const;

  Options options_;
  // Mutable so read-side queries can lazily evict expired samples. samples_
  // is in arrival order; sorted_ holds the same values in ascending order and
  // sum_ their total.
  mutable std::deque<Sample> samples_;
  mutable std::vector<MicrosecondCount> sorted_;
  mutable MicrosecondCount sum_ = 0;
};

}  // namespace pileus

#endif  // PILEUS_SRC_UTIL_SLIDING_WINDOW_H_
