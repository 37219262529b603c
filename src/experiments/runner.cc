#include "src/experiments/runner.h"

#include <optional>

#include "src/common/logging.h"

namespace pileus::experiments {

double RunStats::MetFraction(int rank) const {
  if (gets == 0) {
    return 0.0;
  }
  auto it = met_counts.find(rank);
  if (it == met_counts.end()) {
    return 0.0;
  }
  return static_cast<double>(it->second) / static_cast<double>(gets);
}

core::Sla SingleConsistencySla(core::Guarantee guarantee) {
  return core::Sla().Add(guarantee, SecondsToMicroseconds(30), 1.0);
}

void PreloadKeys(GeoTestbed& testbed, int key_count, int value_size) {
  storage::Tablet* primary =
      testbed.node(testbed.primary_site())->FindTablet(kTableName, "");
  std::string value(static_cast<size_t>(value_size), 'p');
  for (int i = 0; i < key_count; ++i) {
    Result<proto::PutReply> reply =
        primary->HandlePut(workload::YcsbWorkload::KeyForIndex(i), value);
    (void)reply;
  }
  // One immediate sync so secondaries start from the preloaded state.
  (void)testbed.CatchUpSecondaries();
}

RunStats RunYcsb(GeoTestbed& testbed, GeoClient& geo_client,
                 const RunOptions& options, const GetCallback& on_get) {
  core::PileusClient& client = geo_client.client();
  workload::YcsbWorkload workload(options.workload);
  RunStats stats;

  const uint64_t messages_before = client.messages_sent();
  std::optional<core::Session> session;
  const uint64_t total = options.warmup_ops + options.total_ops;
  for (uint64_t i = 0; i < total; ++i) {
    const workload::Operation op = workload.Next();
    if (op.starts_new_session || !session.has_value()) {
      Result<core::Session> begun = client.BeginSession(options.sla);
      // The SLA was validated by the bench; failure here is a bug.
      session.emplace(std::move(begun).value());
    }
    const bool counted = i >= options.warmup_ops;
    if (op.is_get) {
      Result<core::GetResult> result = client.Get(*session, op.key);
      if (counted) {
        ++stats.gets;
        if (result.ok()) {
          const core::GetOutcome& outcome = result.value().outcome;
          stats.utility_sum += outcome.utility;
          stats.get_latency_us.Record(outcome.rtt_us);
          ++stats.target_node_counts[{outcome.target_rank,
                                      outcome.node_index}];
          ++stats.met_counts[outcome.met_rank];
          if (outcome.retried) {
            ++stats.retries;
          }
          if (on_get) {
            on_get(testbed.env().NowMicros(), outcome);
          }
        } else {
          ++stats.get_errors;
          ++stats.met_counts[-1];
          if (on_get) {
            core::GetOutcome failed;
            on_get(testbed.env().NowMicros(), failed);
          }
        }
      }
    } else {
      Result<core::PutResult> result = client.Put(*session, op.key, op.value);
      if (counted) {
        ++stats.puts;
        if (result.ok()) {
          stats.put_latency_us.Record(result.value().rtt_us);
        }
      }
    }
    if (options.workload.think_time_us > 0) {
      testbed.env().RunFor(options.workload.think_time_us);
    }
  }
  stats.messages_sent = client.messages_sent() - messages_before;
  return stats;
}

}  // namespace pileus::experiments
