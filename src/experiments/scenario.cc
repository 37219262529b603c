#include "src/experiments/scenario.h"

#include <sys/stat.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "src/common/random.h"
#include "src/experiments/deployment.h"
#include "src/persist/wal.h"
#include "src/workload/ycsb.h"

namespace pileus::experiments {

std::string_view FaultScenarioName(FaultScenario scenario) {
  switch (scenario) {
    case FaultScenario::kNone:
      return "none";
    case FaultScenario::kPartition:
      return "partition";
    case FaultScenario::kDrops:
      return "drops";
    case FaultScenario::kGray:
      return "gray";
    case FaultScenario::kCrashRestart:
      return "crash-restart";
    case FaultScenario::kHandoff:
      return "handoff";
    case FaultScenario::kFailover:
      return "failover";
    case FaultScenario::kOverload:
      return "overload";
  }
  return "unknown";
}

std::optional<FaultScenario> ParseFaultScenario(std::string_view name) {
  for (FaultScenario scenario : AllFaultScenarios()) {
    if (name == FaultScenarioName(scenario)) {
      return scenario;
    }
  }
  return std::nullopt;
}

std::vector<FaultScenario> AllFaultScenarios() {
  return {FaultScenario::kNone,         FaultScenario::kPartition,
          FaultScenario::kDrops,        FaultScenario::kGray,
          FaultScenario::kCrashRestart, FaultScenario::kHandoff,
          FaultScenario::kFailover,     FaultScenario::kOverload};
}

core::Sla AuditSla() {
  return core::Sla()
      .Add(core::Guarantee::Strong(), MillisecondsToMicroseconds(180), 1.0)
      .Add(core::Guarantee::Causal(), MillisecondsToMicroseconds(250), 0.8)
      .Add(core::Guarantee::ReadMyWrites(), MillisecondsToMicroseconds(300),
           0.6)
      .Add(core::Guarantee::BoundedSeconds(10),
           MillisecondsToMicroseconds(400), 0.4)
      .Add(core::Guarantee::Monotonic(), MillisecondsToMicroseconds(500), 0.2)
      .Add(core::Guarantee::Eventual(), SecondsToMicroseconds(2), 0.1);
}

std::string ScenarioResult::Summary() const {
  // The scenario label and the flags that reproduce the run.
  const uint64_t seed = options.seed;
  const std::string_view label = FaultScenarioName(options.scenario);
  std::string repro =
      "--seed " + std::to_string(seed) + " --scenarios " + std::string(label);
  if (options.deployment == DeploymentKind::kTcp) {
    repro = "--transport tcp " + repro;
  }

  std::ostringstream os;
  os << (ok() ? "PASS" : "FAIL") << " scenario=" << label << " seed=" << seed
     << ": ";
  if (!setup.ok()) {
    os << "setup failed: " << setup.ToString();
    return os.str();
  }
  os << ops_attempted << " ops (" << ops_failed << " failed), " << sessions
     << " sessions";
  if (handoffs > 0) {
    os << ", " << handoffs << " handoffs";
  }
  if (failovers > 0) {
    os << ", " << failovers << " failovers";
  }
  os << "; " << acked_writes << " acked writes (" << lost_acked_writes
     << " lost); " << report.reads_checked << " reads, "
     << report.writes_checked << " writes, " << report.ranges_checked
     << " ranges, " << report.claims_checked << " claims checked";
  if (!ok()) {
    os << "; " << report.violations.size() << " violation"
       << (report.violations.size() == 1 ? "" : "s") << " (reproduce with "
       << repro << ")";
  }
  return os.str();
}

Status CheckSupport(const ScenarioOptions& options, std::string_view name,
                    const std::vector<FaultScenario>& scenarios) {
  if (std::find(scenarios.begin(), scenarios.end(), options.scenario) ==
      scenarios.end()) {
    return Status(StatusCode::kInvalidArgument,
                  std::string(name) + " does not support scenario '" +
                      std::string(FaultScenarioName(options.scenario)) + "'");
  }
  return Status::Ok();
}

namespace {

std::unique_ptr<Deployment> MakeDeployment(const ScenarioOptions& options) {
  if (options.deployment == DeploymentKind::kTcp) {
    return MakeTcpDeployment(options);
  }
  return MakeSimDeployment(options);
}

// mkdir -p: best effort, components may already exist.
void MakeDirectories(const std::string& path) {
  for (size_t slash = path.find('/', 1); slash != std::string::npos;
       slash = path.find('/', slash + 1)) {
    ::mkdir(path.substr(0, slash).c_str(), 0755);
  }
  ::mkdir(path.c_str(), 0755);
}

// Fault events keyed by the op index they fire before.
using FaultPlan = std::multimap<uint64_t, FaultEvent>;
// (key, timestamp) of every write a client saw acknowledged.
using AckedWrites = std::vector<std::pair<std::string, Timestamp>>;

FaultPlan PlanFaults(FaultScenario scenario, uint64_t total_ops,
                     Random& rng) {
  using Kind = FaultEvent::Kind;
  using Target = FaultEvent::Target;
  FaultPlan plan;
  const uint64_t n = std::max<uint64_t>(total_ops, 10);
  // A window starts somewhere in the first two thirds of the run and always
  // ends before the run does, so the tail of every run is fault-free and
  // convergence gets re-exercised. `lift` repeats the start's target.
  const auto add_window = [&](FaultEvent start, Kind lift) {
    const uint64_t begin = n / 10 + rng.NextUint64(n / 2);
    const uint64_t end = std::min(n - 1, begin + n / 6 + rng.NextUint64(n / 6 + 1));
    FaultEvent stop = start;
    stop.kind = lift;
    plan.emplace(begin, start);
    plan.emplace(end, stop);
  };

  switch (scenario) {
    case FaultScenario::kNone:
    case FaultScenario::kHandoff:
      break;  // Hand-off is driven inline by the op loop.

    case FaultScenario::kPartition:
      for (int i = 0; i < 2; ++i) {
        add_window({Kind::kIsolate, Target::kAnyNode, rng.NextUint64()},
                   Kind::kRejoin);
      }
      break;

    case FaultScenario::kDrops:
      for (int i = 0; i < 2; ++i) {
        add_window({Kind::kDrop, Target::kAnyNode, rng.NextUint64(),
                    0.1 + 0.3 * rng.NextDouble()},
                   Kind::kRecover);
      }
      break;

    case FaultScenario::kGray:
      for (int i = 0; i < 3; ++i) {
        add_window({Kind::kGray, Target::kAnyNode, rng.NextUint64(),
                    2.0 + 4.0 * rng.NextDouble()},
                   Kind::kRecover);
      }
      break;

    case FaultScenario::kCrashRestart:
      // Crash a replica, never the primary: the run should keep committing
      // writes for the checker to audit against.
      plan.emplace(n / 3, FaultEvent{Kind::kCrash, Target::kReplica,
                                     rng.NextUint64()});
      plan.emplace(2 * n / 3, FaultEvent{Kind::kRestart});
      break;

    case FaultScenario::kFailover:
      // Crash the PRIMARY mid-run. The lease coordinator must detect the
      // death, fence the old epoch, and promote the sync replica with the
      // highest durable timestamp without losing one acked write. The old
      // primary restarts later and must rejoin as a fenced secondary of the
      // new epoch (its stale-epoch Puts answered with kNotPrimary).
      plan.emplace(n / 3, FaultEvent{Kind::kCrash, Target::kPrimary});
      plan.emplace(n / 2, FaultEvent{Kind::kRestart});
      if (rng.NextBool(0.3)) {
        // Seeded double failover: kill whoever holds the role by then.
        plan.emplace(3 * n / 4, FaultEvent{Kind::kCrash, Target::kPrimary});
      }
      break;

    case FaultScenario::kOverload:
      // Overload episodes: nodes shed data-path requests with kOverloaded
      // plus a retry_after hint, as if another tenant had saturated their
      // admission buckets. One episode hits a replica, so reads must degrade
      // down the SLA ladder or re-route; one hits the primary, so writes and
      // strong reads spend retry budget on jittered backoff. Whatever rank a
      // degraded read ends up claiming, the checker audits it like any other
      // claim - a downgraded guarantee must still be a true one.
      for (const Target target : {Target::kReplica, Target::kPrimary}) {
        const uint64_t pick = rng.NextUint64();
        const double probability = 0.5 + 0.35 * rng.NextDouble();
        const auto retry_after_ms =
            static_cast<uint32_t>(20 + rng.NextUint64(101));
        add_window({Kind::kOverload, target, pick, probability,
                    retry_after_ms},
                   Kind::kRecover);
      }
      break;
  }
  return plan;
}

// Runs one workload op through `client`, recording the write if it was acked.
bool RunOp(core::PileusClient& client, core::Session& session,
           const workload::Operation& op, Random& rng, AckedWrites& acked) {
  if (op.is_get) {
    if (rng.NextBool(0.04)) {
      return client.GetRange(session, op.key, "", 8).ok();
    }
    return client.Get(session, op.key).ok();
  }
  Result<core::PutResult> write = rng.NextBool(0.10)
                                      ? client.Delete(session, op.key)
                                      : client.Put(session, op.key, op.value);
  if (write.ok()) {
    acked.emplace_back(op.key, write->timestamp);
  }
  return write.ok();
}

// Appends a lost-write violation for every WAL entry absent from the
// committed order: everything journaled was acked or transferred, so the
// subset relation (WAL within the order) must hold.
void CrossCheckWal(const std::string& path, const audit::History& history,
                   audit::AuditReport* report) {
  Result<std::vector<proto::ObjectVersion>> wal =
      persist::WriteAheadLog::ReadVersions(path);
  if (!wal.ok()) {
    report->violations.push_back(audit::Violation{
        audit::ViolationType::kLostWrite, 0, audit::kNoRelatedOp,
        "WAL at '" + path + "' unreadable: " + wal.status().ToString()});
    return;
  }
  std::set<std::tuple<std::string, int64_t, uint32_t, bool>> committed;
  for (const proto::ObjectVersion& v : history.ground_truth) {
    committed.emplace(v.key, v.timestamp.physical_us, v.timestamp.sequence,
                      v.is_tombstone);
  }
  for (const proto::ObjectVersion& v : wal.value()) {
    if (committed.count({v.key, v.timestamp.physical_us, v.timestamp.sequence,
                         v.is_tombstone}) == 0) {
      report->violations.push_back(audit::Violation{
          audit::ViolationType::kLostWrite, 0, audit::kNoRelatedOp,
          "WAL '" + path + "' holds '" + v.key + "' at " +
              v.timestamp.ToString() + " which the committed order lacks"});
    }
  }
}

// Zero lost acked writes: every write a client saw succeed must be in the
// committed order. Runs even when the order is incomplete, where the
// checker's own lost-write rule stands down.
void CheckAckedWrites(const AckedWrites& acked,
                      const std::vector<proto::ObjectVersion>& committed_order,
                      ScenarioResult* result) {
  std::set<std::pair<std::string, Timestamp>> committed;
  for (const proto::ObjectVersion& version : committed_order) {
    committed.emplace(version.key, version.timestamp);
  }
  result->acked_writes = acked.size();
  for (const auto& [key, timestamp] : acked) {
    if (committed.count({key, timestamp}) > 0) {
      continue;
    }
    ++result->lost_acked_writes;
    if (result->lost_write_details.size() < 10) {
      std::ostringstream os;
      os << "acked write " << key << "@" << timestamp
         << " missing from the committed order";
      result->lost_write_details.push_back(os.str());
    }
  }
}

}  // namespace

Status Supports(const ScenarioOptions& options) {
  return MakeDeployment(options)->Supports(options);
}

ScenarioResult RunAuditScenario(const ScenarioOptions& options) {
  ScenarioResult result;
  result.options = options;

  audit::HistoryRecorder recorder;  // Outlives the frontends reporting to it.
  std::unique_ptr<Deployment> deployment = MakeDeployment(options);
  result.setup = deployment->Supports(options);
  if (!result.setup.ok()) {
    return result;
  }
  if (!options.durable_root.empty()) {
    MakeDirectories(options.durable_root);
  } else if (options.scenario == FaultScenario::kCrashRestart) {
    result.setup = Status(StatusCode::kInvalidArgument,
                          "crash-restart recovers from disk and needs a "
                          "durable_root");
    return result;
  }
  result.setup = deployment->Build(&recorder);
  if (!result.setup.ok()) {
    return result;
  }
  const std::vector<core::PileusClient*> frontends = deployment->frontends();
  const core::Sla sla = options.sla.value_or(AuditSla());
  AckedWrites acked;

  // Preload every key through a client, so each one rides the journaled
  // write path: state written around the WAL would be silently lost across
  // a crash + restart, which the checker rightly flags.
  {
    Result<core::Session> preload = frontends[0]->BeginSession(sla);
    if (!preload.ok()) {
      result.setup = preload.status();
      return result;
    }
    for (int i = 0; i < options.key_count; ++i) {
      const std::string key =
          workload::YcsbWorkload::KeyForIndex(static_cast<uint64_t>(i));
      std::string value = std::to_string(i);  // Distinct per key.
      value.resize(100, 'p');
      Result<core::PutResult> put = frontends[0]->Put(*preload, key, value);
      if (put.ok()) {
        acked.emplace_back(key, put->timestamp);
      }
    }
  }
  deployment->Start();

  // Everything random below derives from the one seed: workload stream,
  // fault plan, frontend choices, op mutations.
  Random rng(options.seed);
  workload::WorkloadOptions wl;
  wl.key_count = options.key_count;
  wl.ops_per_session = options.ops_per_session;
  wl.seed = rng.NextUint64();
  workload::YcsbWorkload workload(wl);
  const FaultPlan plan = PlanFaults(options.scenario, options.total_ops, rng);
  const int handoff_stride = std::max(2, options.ops_per_session / 2);

  std::optional<core::Session> session;
  size_t frontend = 0;
  uint64_t ops_in_session = 0;
  std::string crashed;  // The node the last kCrash took down.

  for (uint64_t i = 0; i < options.total_ops; ++i) {
    const auto due = plan.equal_range(i);
    for (auto it = due.first; it != due.second; ++it) {
      const FaultEvent& event = it->second;
      std::string node = crashed;
      if (event.kind != FaultEvent::Kind::kRestart) {
        const std::vector<std::string> nodes = deployment->Nodes(event.target);
        node = nodes.empty() ? "" : nodes[event.pick % nodes.size()];
      }
      if (node.empty()) {
        continue;
      }
      deployment->Apply(event, node);
      crashed = event.kind == FaultEvent::Kind::kCrash ? node : crashed;
    }
    deployment->BeforeOp(i);

    const workload::Operation op = workload.Next();
    if (op.starts_new_session || !session.has_value()) {
      frontend = rng.NextUint64(frontends.size());
      Result<core::Session> begun = frontends[frontend]->BeginSession(sla);
      if (!begun.ok()) {
        result.setup = begun.status();
        return result;
      }
      session.emplace(std::move(begun).value());
      ++result.sessions;
      ops_in_session = 0;
    } else if (options.scenario == FaultScenario::kHandoff &&
               ops_in_session % handoff_stride == 0) {
      // Serialize the session and resume it on the next frontend; its
      // guarantees must keep holding across the move.
      Result<core::Session> resumed =
          core::Session::Deserialize(session->Serialize());
      if (resumed.ok()) {
        session.emplace(std::move(resumed).value());
        frontend = (frontend + 1) % frontends.size();
        ++result.handoffs;
      }
    }

    ++result.ops_attempted;
    ++ops_in_session;
    if (!RunOp(*frontends[frontend], *session, op, rng, acked)) {
      ++result.ops_failed;
    }
    deployment->AfterOp();
  }

  Result<GroundTruth> truth = deployment->Finish(result);
  if (!truth.ok()) {
    result.setup = truth.status();
    return result;
  }
  const bool complete = truth->complete;
  const std::vector<std::string> wal_paths = std::move(truth->wal_paths);
  recorder.SetGroundTruth(std::move(truth->versions), complete);
  result.history = recorder.Snapshot();
  result.report = audit::ConsistencyChecker().Check(result.history);
  if (complete) {
    for (const std::string& path : wal_paths) {
      CrossCheckWal(path, result.history, &result.report);
    }
  }
  CheckAckedWrites(acked, result.history.ground_truth, &result);
  return result;
}

}  // namespace pileus::experiments
