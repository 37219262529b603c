#include "src/sim/latency_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pileus::sim {

SiteId LatencyModel::AddSite(std::string name,
                             MicrosecondCount local_rtt_us) {
  const SiteId id = static_cast<SiteId>(names_.size());
  names_.push_back(std::move(name));
  const size_t n = names_.size();
  // Rebuild the dense matrices at the new size, preserving old entries.
  std::vector<MicrosecondCount> rtt(n * n, 0);
  std::vector<MicrosecondCount> delta(n * n, 0);
  for (size_t a = 0; a + 1 < n; ++a) {
    for (size_t b = 0; b + 1 < n; ++b) {
      rtt[a * n + b] = rtt_us_[a * (n - 1) + b];
      delta[a * n + b] = delta_us_[a * (n - 1) + b];
    }
  }
  rtt_us_ = std::move(rtt);
  delta_us_ = std::move(delta);
  rtt_us_[Index(id, id)] = local_rtt_us;
  return id;
}

void LatencyModel::SetRtt(SiteId a, SiteId b, MicrosecondCount rtt_us) {
  assert(a >= 0 && a < site_count() && b >= 0 && b < site_count());
  rtt_us_[Index(a, b)] = rtt_us;
  rtt_us_[Index(b, a)] = rtt_us;
}

void LatencyModel::SetRttDelta(SiteId a, SiteId b, MicrosecondCount delta_us) {
  assert(a >= 0 && a < site_count() && b >= 0 && b < site_count());
  delta_us_[Index(a, b)] = delta_us;
  delta_us_[Index(b, a)] = delta_us;
}

MicrosecondCount LatencyModel::BaseRtt(SiteId a, SiteId b) const {
  assert(a >= 0 && a < site_count() && b >= 0 && b < site_count());
  return rtt_us_[Index(a, b)] + delta_us_[Index(a, b)];
}

MicrosecondCount LatencyModel::SampleOneWay(SiteId a, SiteId b,
                                            Random& rng) const {
  double one_way = static_cast<double>(BaseRtt(a, b)) / 2.0;
  if (options_.jitter_sigma > 0.0) {
    one_way *= std::exp(options_.jitter_sigma * rng.NextGaussian());
  }
  return std::max<MicrosecondCount>(1, static_cast<MicrosecondCount>(one_way));
}

SiteId LatencyModel::FindSite(std::string_view name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<SiteId>(i);
    }
  }
  return -1;
}

}  // namespace pileus::sim
