// Computation behind the benchmark's reported numbers: percentiles, metric
// naming, per-class read accounting, and the result line the runner parses.
// Kept apart from the deployment so selftest.cc can check it by hand.

#ifndef PILEUS_E2EBENCH_STATS_H_
#define PILEUS_E2EBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/client.h"

namespace e2ebench {

// Nearest-rank percentile: the smallest sample with at least a fraction `q`
// (0 < q <= 1) of all samples at or below it. 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

// "p50", "p90", "p99", "p99.9": the percentile's tag in a metric name.
std::string PercentileTag(double q);

// <subject>_<tag>_<unit>, e.g. ("relaxed_read", 0.9, "us") ->
// "relaxed_read_p90_us".
std::string LatencyMetricName(std::string_view subject, double q,
                              std::string_view unit);

double Mean(const std::vector<double>& samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The runner-facing result: one JSON object on one line, with the keys
// correct, attempted, failed and metrics ({name: {value, unit}}). Values are
// printed with every digit needed to read them back exactly.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

// One op completed in the timed window.
struct OpSample {
  int64_t end_ns = 0;
  double latency_us = 0;
  bool strong = false;  // Session class: strong or relaxed.
  bool read = false;    // Get or GetRange; otherwise a Put.
  double utility = 0;   // Reads: delivered utility.
  bool top_met = false;  // Reads: met rank 0.
};

// End-to-end numbers of one timed window.
struct WindowSummary {
  double ops_per_s = 0;
  double relaxed_read_p50_us = 0;
  double relaxed_read_p90_us = 0;
  double strong_read_p50_us = 0;
  double write_p50_us = 0;
  double write_p90_us = 0;
  double utility_mean = 0;
  double top_subsla_rate = 0;
};

// Cuts [start_ns, end_ns) into `slices` equal slices by op end time,
// computes every number per slice, and reports the median over slices
// (nearest rank), so interference from the host that covers a minority of
// the slices does not move the result.
WindowSummary SummarizeWindow(const std::vector<OpSample>& ops,
                              int64_t start_ns, int64_t end_ns, int slices);

// Whole-window read outcomes of one session class (Get and GetRange alike),
// as the client's condition code reports them: where each read was served
// and whether it met the subSLA it targeted.
struct ReadTally {
  uint64_t reads = 0;
  uint64_t target_met = 0;    // Met the targeted rank or a better one.
  uint64_t from_primary = 0;  // Served by the authoritative primary.

  void Record(const pileus::core::GetOutcome& outcome);
  void Merge(const ReadTally& other);

  double target_met_rate() const;
  double primary_share() const;
};

}  // namespace e2ebench

#endif  // PILEUS_E2EBENCH_STATS_H_
