// Checks of the benchmark's own computation: percentiles and metric names,
// utility/rank accounting on a hand-checked set of reads, per-second slice
// medians, the result line, the routing guard, and the durability check
// catching planted faults.
//
// Run: python3 e2ebench/run.py --selftest   (or e2ebench_selftest <dir>)

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "e2ebench/checks.h"
#include "e2ebench/stats.h"
#include "src/common/clock.h"
#include "src/persist/durable_tablet.h"

namespace e2ebench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                              \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

void TestPercentile() {
  const std::vector<double> one_to_ten = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
  EXPECT(Percentile(one_to_ten, 0.5) == 5);
  EXPECT(Percentile(one_to_ten, 0.9) == 9);
  EXPECT(Percentile(one_to_ten, 0.99) == 10);
  EXPECT(Percentile(one_to_ten, 0.01) == 1);
  EXPECT(Percentile({1, 2, 3}, 0.5) == 2);
  EXPECT(Percentile({42}, 0.99) == 42);
  EXPECT(Percentile({}, 0.5) == 0);
  EXPECT(Mean({1, 2, 6}) == 3);
}

void TestNames() {
  EXPECT(PercentileTag(0.5) == "p50");
  EXPECT(PercentileTag(0.9) == "p90");
  EXPECT(PercentileTag(0.99) == "p99");
  EXPECT(PercentileTag(0.999) == "p99.9");
  EXPECT(LatencyMetricName("relaxed_read", 0.9, "us") ==
         "relaxed_read_p90_us");
  EXPECT(LatencyMetricName("write", 0.5, "us") == "write_p50_us");
  EXPECT(ResultLine(true, 3, 1, {{"latency_ms", 1.25, "ms"}}) ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": "
         "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
  // Every digit survives: 0.1 + 0.2 is not 0.3.
  EXPECT(ResultLine(false, 1, 0, {{"x", 0.1 + 0.2, "s"}}) ==
         "{\"correct\": false, \"attempted\": 1, \"failed\": 0, \"metrics\": "
         "{\"x\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}");
}

pileus::core::GetOutcome Outcome(int target, int met, double utility,
                                 bool from_primary) {
  pileus::core::GetOutcome outcome;
  outcome.target_rank = target;
  outcome.met_rank = met;
  outcome.utility = utility;
  outcome.from_primary = from_primary;
  return outcome;
}

void TestReadAccounting() {
  // Four reads under <rmw,1.0> <eventual,0.5> <eventual,0.1>:
  //   primary, aimed at rank 0, met rank 0
  //   secondary, aimed at rank 1, met rank 0 (Figure 9: better than aimed)
  //   secondary, aimed at rank 0, met only rank 1
  //   secondary, aimed at rank 1, met rank 2
  ReadTally tally;
  tally.Record(Outcome(0, 0, 1.0, true));
  tally.Record(Outcome(1, 0, 1.0, false));
  tally.Record(Outcome(0, 1, 0.5, false));
  ReadTally other;
  other.Record(Outcome(1, 2, 0.1, false));
  tally.Merge(other);
  EXPECT(tally.reads == 4);
  EXPECT(tally.target_met_rate() == 0.5);
  EXPECT(tally.primary_share() == 0.25);
  // A read that met no subSLA meets nothing.
  tally.Record(Outcome(0, -1, 0.0, false));
  EXPECT(tally.target_met_rate() == 2.0 / 5);
  EXPECT(ReadTally().primary_share() == 0);
}

OpSample Op(double at_s, double latency_us, bool strong, bool read,
            double utility = 0) {
  OpSample op;
  op.end_ns = static_cast<int64_t>(at_s * 1e9);
  op.latency_us = latency_us;
  op.strong = strong;
  op.read = read;
  op.utility = utility;
  op.top_met = utility == 1.0;
  return op;
}

void TestWindowSlices() {
  // Three one-second slices; the middle one suffers a burst of interference
  // (slow relaxed reads that met only rank 1, a slow write). The medians over
  // slices ignore it.
  std::vector<OpSample> ops;
  const double relaxed_us[] = {100, 200, 110};
  const double relaxed_utility[] = {1.0, 0.5, 1.0};
  const double write_us[] = {4000, 9000, 4100};
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 3; ++i) {
      ops.push_back(Op(s + 0.1 * (i + 1), relaxed_us[s], false, true,
                       relaxed_utility[s]));
    }
    ops.push_back(Op(s + 0.5, 2000 + s, true, true, 1.0));
    ops.push_back(Op(s + 0.6, write_us[s], s == 1, false));
  }
  ops.back().end_ns = 3'000'000'000;  // The window's last instant.
  const WindowSummary w = SummarizeWindow(ops, 0, 3'000'000'000, 3);
  EXPECT(w.ops_per_s == 5);
  EXPECT(w.relaxed_read_p50_us == 110);
  EXPECT(w.relaxed_read_p90_us == 110);
  EXPECT(w.strong_read_p50_us == 2001);
  EXPECT(w.write_p50_us == 4100);
  EXPECT(w.write_p90_us == 4100);
  EXPECT(w.utility_mean == 1.0);
  EXPECT(w.top_subsla_rate == 1.0);
  // One slice is the plain whole-window computation.
  const WindowSummary whole = SummarizeWindow(ops, 0, 3'000'000'000, 1);
  EXPECT(whole.ops_per_s == 5);
  EXPECT(whole.relaxed_read_p50_us == 110);
  EXPECT(whole.relaxed_read_p90_us == 200);
  EXPECT(whole.utility_mean == (8 * 1.0 + 3 * 0.5 + 1.0) / 12);
  EXPECT(whole.top_subsla_rate == 9.0 / 12);
}

void TestRoutingGuard() {
  EXPECT(CheckRouting(1.0, 0.0).empty());
  EXPECT(CheckRouting(kMinStrongPrimaryShare, kMaxRelaxedPrimaryShare)
             .empty());
  EXPECT(!CheckRouting(0.5, 0.0).empty());
  EXPECT(!CheckRouting(1.0, 0.5).empty());
}

void TestDurabilityCheck(const std::string& root) {
  using pileus::persist::DurableTablet;
  const std::string dir = root + "/durable";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  DurableTablet::Options options;
  options.directory = dir;
  options.tablet.is_primary = true;

  AckLog acked;
  {
    auto opened = DurableTablet::Open(options, pileus::RealClock::Instance());
    EXPECT(opened.ok());
    if (!opened.ok()) {
      return;
    }
    DurableTablet& tablet = *opened.value();
    const auto first = tablet.HandlePut("k1", "old");
    const auto second = tablet.HandlePut("k2", "v2");
    const auto newer = tablet.HandlePut("k1", "new");
    EXPECT(first.ok() && second.ok() && newer.ok());
    EXPECT(tablet.Sync().ok());
    acked.Record("k1", first->timestamp, "old");
    acked.Record("k2", second->timestamp, "v2");
    acked.Record("k1", newer->timestamp, "new");
  }
  EXPECT(acked.size() == 2);
  EXPECT(acked.entries().at("k1").value == "new");

  const auto clean = CheckDurableReopen(dir, acked);
  EXPECT(clean.ok() && clean->checked == 2 && clean->ok());

  // Planted: an acked write the store never received.
  AckLog missing = acked;
  pileus::Timestamp later = acked.entries().at("k2").timestamp;
  later.physical_us += 1;
  missing.Record("k3", later, "ghost");
  const auto lost = CheckDurableReopen(dir, missing);
  EXPECT(lost.ok() && lost->missing == 1 && !lost->ok());

  // Planted: an acked write newer than what survived.
  AckLog stale = acked;
  stale.Record("k2", later, "v2-newer");
  const auto behind = CheckDurableReopen(dir, stale);
  EXPECT(behind.ok() && behind->missing == 1);

  // Planted: the right timestamp with the wrong value.
  AckLog wrong;
  wrong.Record("k2", acked.entries().at("k2").timestamp, "not-v2");
  const auto mismatch = CheckDurableReopen(dir, wrong);
  EXPECT(mismatch.ok() && mismatch->missing == 1);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: e2ebench_selftest <scratch dir>\n");
    return 2;
  }
  e2ebench::TestPercentile();
  e2ebench::TestNames();
  e2ebench::TestReadAccounting();
  e2ebench::TestWindowSlices();
  e2ebench::TestRoutingGuard();
  e2ebench::TestDurabilityCheck(argv[1]);
  if (e2ebench::failures != 0) {
    std::printf("selftest: %d check(s) failed\n", e2ebench::failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
