// Figure 3: average Get latency per consistency choice and client location.
//
// Paper result (ms):
//   consistency      US   England  India  China
//   strong          147        1     435    307
//   causal          146        1     431    306
//   bounded(30)      75        1     234    241
//   read-my-writes   13        1      18    166
//   monotonic         1        1       1    160
//   eventual          1        1       1    160
//
// This bench reruns the YCSB workload on the simulated Figure 10 test bed
// with a single-consistency SLA per row and prints the same table. Absolute
// values track the RTT matrix; the shape (orders-of-magnitude spread, the
// bounded(30) midpoints, read-my-writes' small premium over eventual) is the
// reproduction target. The bench checks that shape, as EXPERIMENTS.md
// records it, and exits 1 with a FAIL line on a miss (CheckShape).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "src/core/consistency.h"
#include "src/experiments/geo_testbed.h"
#include "src/experiments/runner.h"
#include "src/experiments/tables.h"
#include "src/telemetry/metrics.h"
#include "src/workload/ycsb.h"

namespace {

using pileus::core::Guarantee;
using namespace pileus::experiments;  // NOLINT

constexpr uint64_t kOpsPerCell = 4000;
constexpr uint64_t kWarmupOps = 1000;

// PILEUS_BENCH_SMOKE=1 shrinks the run so CI can execute the bench end to end
// in seconds; the table is printed either way, just from fewer samples.
bool SmokeMode() {
  const char* value = std::getenv("PILEUS_BENCH_SMOKE");
  return value != nullptr && *value != '\0' && std::strcmp(value, "0") != 0;
}

// --- Figure 3's shape, as EXPERIMENTS.md records it ---
//
// Each row runs its own seeds, so cells that should tie (strong and causal,
// monotonic and eventual) differ by sampling noise; each check states its
// slack. A weaker row may exceed the stronger row above it by kRiseSlackMs
// plus kRiseSlackFraction of the stronger row's latency.
constexpr double kRiseSlackMs = 0.5;
constexpr double kRiseSlackFraction = 0.01;
// England reads at the primary: kPrimaryMs +/- kPrimaryToleranceMs.
constexpr double kPrimaryMs = 1.0;
constexpr double kPrimaryToleranceMs = 0.5;
// For the U.S. and India, whose eventual reads stay local.
constexpr double kStrongOverEventual = 20.0;
// Monotonic may differ from eventual by this many ms plus this fraction of
// eventual.
constexpr double kMonotonicToleranceMs = 0.5;
constexpr double kMonotonicToleranceFraction = 0.02;

// Prints one FAIL line per miss and returns the number of misses.
// `ms[row][site]` is the mean Get latency of `rows[row]` at `sites[site]`.
int CheckShape(
    const std::vector<std::vector<double>>& ms,
    const std::vector<std::pair<const char*, Guarantee>>& rows,
    const std::vector<const char*>& sites) {
  const auto row_of = [&rows](const char* name) {
    size_t row = 0;
    while (std::strcmp(rows[row].first, name) != 0) {
      ++row;
    }
    return row;
  };
  const size_t strong = row_of("strong");
  const size_t monotonic = row_of("monotonic");
  const size_t eventual = row_of("eventual");
  int misses = 0;
  for (size_t site = 0; site < sites.size(); ++site) {
    for (size_t row = 1; row < rows.size(); ++row) {
      const double stronger = ms[row - 1][site];
      const double slack = kRiseSlackMs + kRiseSlackFraction * stronger;
      if (ms[row][site] > stronger + slack) {
        std::printf("FAIL: %s: %s %.1f ms rises above %s %.1f ms "
                    "(slack %.1f ms)\n", sites[site], rows[row].first,
                    ms[row][site], rows[row - 1].first, stronger, slack);
        ++misses;
      }
    }
    const double tolerance = kMonotonicToleranceMs +
                             kMonotonicToleranceFraction * ms[eventual][site];
    if (std::fabs(ms[monotonic][site] - ms[eventual][site]) > tolerance) {
      std::printf("FAIL: %s: monotonic %.1f ms differs from eventual %.1f ms "
                  "by more than %.1f ms\n", sites[site], ms[monotonic][site],
                  ms[eventual][site], tolerance);
      ++misses;
    }
    if (std::strcmp(sites[site], kEngland) == 0) {
      for (size_t row = 0; row < rows.size(); ++row) {
        if (std::fabs(ms[row][site] - kPrimaryMs) > kPrimaryToleranceMs) {
          std::printf("FAIL: %s (primary): %s %.1f ms is not %.1f +/- %.1f "
                      "ms\n", sites[site], rows[row].first, ms[row][site],
                      kPrimaryMs, kPrimaryToleranceMs);
          ++misses;
        }
      }
    }
    if ((std::strcmp(sites[site], kUs) == 0 ||
         std::strcmp(sites[site], kIndia) == 0) &&
        ms[strong][site] < kStrongOverEventual * ms[eventual][site]) {
      std::printf("FAIL: %s: strong %.1f ms is under %.0fx eventual %.1f "
                  "ms\n", sites[site], ms[strong][site], kStrongOverEventual,
                  ms[eventual][site]);
      ++misses;
    }
  }
  std::printf("Shape: no column rises from strong down to eventual (slack "
              "%.1f ms + %.0f%%);\n"
              "       England (primary) reads %.1f +/- %.1f ms in every row;\n"
              "       strong >= %.0fx eventual for the U.S. and India;\n"
              "       monotonic within %.1f ms + %.0f%% of eventual: %s\n",
              kRiseSlackMs, 100.0 * kRiseSlackFraction, kPrimaryMs,
              kPrimaryToleranceMs, kStrongOverEventual, kMonotonicToleranceMs,
              100.0 * kMonotonicToleranceFraction,
              misses == 0 ? "PASS" : "FAIL");
  return misses;
}

}  // namespace

int main() {
  const bool smoke = SmokeMode();
  const uint64_t ops_per_cell = smoke ? 300 : kOpsPerCell;
  const uint64_t warmup_ops = smoke ? 100 : kWarmupOps;
  const int preload_keys = smoke ? 1000 : 10000;
  std::printf("=== Figure 3: average Get latency (ms) per consistency and "
              "client location ===%s\n\n", smoke ? " [smoke]" : "");

  const std::vector<std::pair<const char*, Guarantee>> kConsistencies = {
      {"strong", Guarantee::Strong()},
      {"causal", Guarantee::Causal()},
      {"bounded(30)", Guarantee::BoundedSeconds(30)},
      {"read-my-writes", Guarantee::ReadMyWrites()},
      {"monotonic", Guarantee::Monotonic()},
      {"eventual", Guarantee::Eventual()},
  };
  const std::vector<const char*> kClientSites = {kUs, kEngland, kIndia,
                                                 kChina};

  // One row per consistency; columns per client site. The hit table is built
  // from each run's telemetry registry rather than RunStats, exercising the
  // same per-subSLA counters operators scrape in deployments.
  std::vector<std::vector<double>> latencies(
      kConsistencies.size(), std::vector<double>(kClientSites.size(), 0.0));
  std::vector<std::vector<double>> hit_rates(
      kConsistencies.size(), std::vector<double>(kClientSites.size(), 0.0));

  for (size_t site_index = 0; site_index < kClientSites.size();
       ++site_index) {
    const char* site = kClientSites[site_index];
    GeoTestbedOptions testbed_options;
    testbed_options.seed = 1000 + site_index;
    GeoTestbed testbed(testbed_options);
    PreloadKeys(testbed, preload_keys);
    testbed.StartReplication();

    for (size_t row = 0; row < kConsistencies.size(); ++row) {
      pileus::telemetry::MetricsRegistry registry;
      pileus::core::PileusClient::Options client_options;
      client_options.seed = 17 * (row + 1);
      client_options.metrics = &registry;
      auto client = testbed.MakeClient(site, client_options);
      client->StartProbing();

      RunOptions run;
      run.sla = SingleConsistencySla(kConsistencies[row].second);
      run.total_ops = ops_per_cell;
      run.warmup_ops = warmup_ops;
      run.workload.seed = 7 + row;
      const RunStats stats = RunYcsb(testbed, *client, run);
      latencies[row][site_index] = stats.get_latency_us.Mean() / 1000.0;

      // Telemetry-side per-subSLA breakdown. Counters include warm-up ops
      // (the registry sees every Get the client executed).
      const uint64_t met = registry
                               .GetCounter(pileus::telemetry::WithLabels(
                                   "pileus_client_sla_met_total",
                                   {{"table", kTableName}, {"rank", "0"}}))
                               ->Value();
      const uint64_t gets = registry
                                .GetCounter(pileus::telemetry::WithLabels(
                                    "pileus_client_gets_total",
                                    {{"table", kTableName}}))
                                ->Value();
      hit_rates[row][site_index] =
          gets == 0 ? 0.0
                    : 100.0 * static_cast<double>(met) /
                          static_cast<double>(gets);
      client->StopProbing();
    }
  }

  AsciiTable table({"Consistency", "U.S.", "England (Primary)", "India",
                    "China"});
  for (size_t row = 0; row < kConsistencies.size(); ++row) {
    std::vector<std::string> cells = {kConsistencies[row].first};
    for (double ms : latencies[row]) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", ms);
      cells.push_back(buf);
    }
    table.AddRow(std::move(cells));
  }
  std::printf("%s\n", table.ToString().c_str());

  AsciiTable hits({"SubSLA hit % (telemetry)", "U.S.", "England (Primary)",
                   "India", "China"});
  for (size_t row = 0; row < kConsistencies.size(); ++row) {
    std::vector<std::string> cells = {kConsistencies[row].first};
    for (double pct : hit_rates[row]) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", pct);
      cells.push_back(buf);
    }
    hits.AddRow(std::move(cells));
  }
  std::printf("%s\n", hits.ToString().c_str());

  std::printf("Paper (ms):        strong 147/1/435/307, causal 146/1/431/306,\n"
              "                   bounded(30) 75/1/234/241, rmw 13/1/18/166,\n"
              "                   monotonic 1/1/1/160, eventual 1/1/1/160\n\n");

  return CheckShape(latencies, kConsistencies, kClientSites) == 0 ? 0 : 1;
}
