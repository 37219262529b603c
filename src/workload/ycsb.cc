#include "src/workload/ycsb.h"

#include <cstdio>

namespace pileus::workload {

YcsbWorkload::YcsbWorkload(WorkloadOptions options)
    : options_(options), rng_(options.seed) {
  switch (options_.distribution) {
    case KeyDistribution::kZipfian:
      chooser_ = std::make_unique<ScrambledZipfianChooser>(
          static_cast<uint64_t>(options_.key_count), options_.zipf_theta);
      break;
    case KeyDistribution::kUniform:
      chooser_ = std::make_unique<UniformChooser>(
          static_cast<uint64_t>(options_.key_count));
      break;
  }
}

std::string YcsbWorkload::KeyForIndex(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%010llu",
                static_cast<unsigned long long>(index));
  return buf;
}

Operation YcsbWorkload::Next() {
  Operation op;
  op.starts_new_session =
      options_.ops_per_session > 0 &&
      ops_generated_ % static_cast<uint64_t>(options_.ops_per_session) == 0;
  op.is_get = rng_.NextBool(options_.read_fraction);
  op.key = KeyForIndex(chooser_->Next(rng_));
  if (!op.is_get) {
    // Distinct values so staleness is observable; padded to value_size.
    // Appended, not `"v" + std::to_string(...)`: GCC 12 reports a false
    // -Wrestrict overlap for that in optimized builds.
    op.value.push_back('v');
    op.value += std::to_string(++value_counter_);
    if (static_cast<int>(op.value.size()) < options_.value_size) {
      op.value.resize(options_.value_size, 'x');
    }
  }
  ++ops_generated_;
  return op;
}

}  // namespace pileus::workload
