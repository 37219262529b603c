#include "src/util/sliding_window.h"

#include <algorithm>

namespace pileus {

void SlidingWindow::Record(MicrosecondCount now_us,
                           MicrosecondCount value_us) {
  EvictExpired(now_us);
  if (options_.max_samples > 0 && samples_.size() == options_.max_samples) {
    ReplaceOldest(now_us, value_us);
    return;
  }
  samples_.push_back(Sample{now_us, value_us});
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), value_us),
                 value_us);
  // Sums of microsecond latencies over <=4096 samples cannot overflow int64.
  sum_ += value_us;
}

void SlidingWindow::ReplaceOldest(MicrosecondCount now_us,
                                  MicrosecondCount value_us) {
  const MicrosecondCount old = samples_.front().value_us;
  samples_.pop_front();
  samples_.push_back(Sample{now_us, value_us});
  sum_ += value_us - old;
  // A sorted vector is fixed by the multiset it holds, so the old value may
  // leave from whichever of its copies lies nearest the new value's slot:
  // only the values strictly between the two move, one slot each. Equal
  // values (a full 0/1 outcomes window in steady state) move nothing.
  if (value_us > old) {
    const auto from = std::upper_bound(sorted_.begin(), sorted_.end(), old) - 1;
    const auto to = std::lower_bound(from, sorted_.end(), value_us);
    *(std::move(from + 1, to, from)) = value_us;
  } else if (value_us < old) {
    const auto to = std::upper_bound(sorted_.begin(), sorted_.end(), value_us);
    const auto from = std::lower_bound(to, sorted_.end(), old);
    std::move_backward(to, from, from + 1);
    *to = value_us;
  }
}

void SlidingWindow::PopOldest() const {
  const MicrosecondCount value = samples_.front().value_us;
  samples_.pop_front();
  sorted_.erase(std::lower_bound(sorted_.begin(), sorted_.end(), value));
  sum_ -= value;
}

void SlidingWindow::EvictExpired(MicrosecondCount now_us) const {
  const MicrosecondCount cutoff = now_us - options_.window_us;
  while (!samples_.empty() && samples_.front().at_us < cutoff) {
    PopOldest();
  }
}

void SlidingWindow::Clear() {
  samples_.clear();
  sorted_.clear();
  sum_ = 0;
}

double SlidingWindow::FractionBelow(MicrosecondCount now_us,
                                    MicrosecondCount threshold_us,
                                    double empty_estimate) const {
  EvictExpired(now_us);
  if (sorted_.empty()) {
    return empty_estimate;
  }
  const auto below =
      std::lower_bound(sorted_.begin(), sorted_.end(), threshold_us) -
      sorted_.begin();
  return static_cast<double>(below) / static_cast<double>(sorted_.size());
}

MicrosecondCount SlidingWindow::Mean(MicrosecondCount now_us) const {
  EvictExpired(now_us);
  return sorted_.empty()
             ? 0
             : sum_ / static_cast<MicrosecondCount>(sorted_.size());
}

MicrosecondCount SlidingWindow::Quantile(MicrosecondCount now_us,
                                         double q) const {
  EvictExpired(now_us);
  if (sorted_.empty()) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const size_t rank = std::min(
      sorted_.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_.size())));
  return sorted_[rank];
}

size_t SlidingWindow::SampleCount(MicrosecondCount now_us) const {
  EvictExpired(now_us);
  return samples_.size();
}

}  // namespace pileus
