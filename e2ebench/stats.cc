#include "e2ebench/stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace e2ebench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::string PercentileTag(double q) {
  // Percent with trailing zeros dropped: 0.5 -> 50, 0.999 -> 99.9.
  char buffer[32];
  const double percent = std::round(q * 1000.0) / 10.0;
  if (percent == std::floor(percent)) {
    std::snprintf(buffer, sizeof(buffer), "p%.0f", percent);
  } else {
    std::snprintf(buffer, sizeof(buffer), "p%.1f", percent);
  }
  return buffer;
}

std::string LatencyMetricName(std::string_view subject, double q,
                              std::string_view unit) {
  std::string name(subject);
  name += '_';
  name += PercentileTag(q);
  name += '_';
  name += unit;
  return name;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

WindowSummary SummarizeWindow(const std::vector<OpSample>& ops,
                              int64_t start_ns, int64_t end_ns, int slices) {
  slices = std::max(slices, 1);
  const double width_ns =
      static_cast<double>(std::max<int64_t>(end_ns - start_ns, 1)) / slices;
  struct Slice {
    std::vector<double> relaxed_reads, strong_reads, writes;
    double utility = 0;
    uint64_t reads = 0, top_met = 0, ops = 0;
  };
  std::vector<Slice> per_slice(static_cast<size_t>(slices));
  for (const OpSample& op : ops) {
    const auto index = static_cast<size_t>(std::clamp<int64_t>(
        static_cast<int64_t>(static_cast<double>(op.end_ns - start_ns) /
                             width_ns),
        0, slices - 1));
    Slice& slice = per_slice[index];
    ++slice.ops;
    if (!op.read) {
      slice.writes.push_back(op.latency_us);
      continue;
    }
    (op.strong ? slice.strong_reads : slice.relaxed_reads)
        .push_back(op.latency_us);
    slice.utility += op.utility;
    ++slice.reads;
    slice.top_met += op.top_met ? 1 : 0;
  }
  std::vector<double> ops_per_s, relaxed_p50, relaxed_p90, strong_p50,
      write_p50, write_p90, utility, top;
  for (const Slice& s : per_slice) {
    ops_per_s.push_back(static_cast<double>(s.ops) / (width_ns / 1e9));
    relaxed_p50.push_back(Percentile(s.relaxed_reads, 0.5));
    relaxed_p90.push_back(Percentile(s.relaxed_reads, 0.9));
    strong_p50.push_back(Percentile(s.strong_reads, 0.5));
    write_p50.push_back(Percentile(s.writes, 0.5));
    write_p90.push_back(Percentile(s.writes, 0.9));
    utility.push_back(s.reads == 0 ? 0.0
                                   : s.utility / static_cast<double>(s.reads));
    top.push_back(s.reads == 0 ? 0.0
                               : static_cast<double>(s.top_met) /
                                     static_cast<double>(s.reads));
  }
  WindowSummary summary;
  summary.ops_per_s = Percentile(ops_per_s, 0.5);
  summary.relaxed_read_p50_us = Percentile(relaxed_p50, 0.5);
  summary.relaxed_read_p90_us = Percentile(relaxed_p90, 0.5);
  summary.strong_read_p50_us = Percentile(strong_p50, 0.5);
  summary.write_p50_us = Percentile(write_p50, 0.5);
  summary.write_p90_us = Percentile(write_p90, 0.5);
  summary.utility_mean = Percentile(utility, 0.5);
  summary.top_subsla_rate = Percentile(top, 0.5);
  return summary;
}

void ReadTally::Record(const pileus::core::GetOutcome& outcome) {
  ++reads;
  if (outcome.met_rank >= 0 && outcome.met_rank <= outcome.target_rank) {
    ++target_met;
  }
  if (outcome.from_primary) {
    ++from_primary;
  }
}

void ReadTally::Merge(const ReadTally& other) {
  reads += other.reads;
  target_met += other.target_met;
  from_primary += other.from_primary;
}

namespace {

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

double ReadTally::target_met_rate() const { return Share(target_met, reads); }
double ReadTally::primary_share() const { return Share(from_primary, reads); }

}  // namespace e2ebench
