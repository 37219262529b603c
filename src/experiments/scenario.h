// Audit scenarios: seeded random workloads under seeded random faults, with
// every client-visible op recorded and checked offline (DESIGN.md
// "Consistency auditing").
//
// One runner drives every deployment the audit covers: the Fig-10 GeoTestbed
// on the deterministic simulator, and a durable group-commit primary plus a
// pulled secondary over loopback TCP. The runner owns the seeded
// op loop (YCSB-shaped Gets, Puts, Deletes and small Range scans, session
// turnover and serialized hand-off between frontends), the fault plan, and
// the checks: the ConsistencyChecker over the recorded history, the WAL
// cross-check against the committed order, and the acked-write check.
// Everything derives from one seed; a failing run is reproduced by
// re-running with the printed seed.

#ifndef PILEUS_SRC_EXPERIMENTS_SCENARIO_H_
#define PILEUS_SRC_EXPERIMENTS_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/audit/checker.h"
#include "src/audit/history.h"
#include "src/common/status.h"
#include "src/core/sla.h"

namespace pileus::experiments {

enum class FaultScenario {
  kNone = 0,       // Healthy network: any violation is a logic bug.
  kPartition,      // Timed windows that cut one node off from all others.
  kDrops,          // Silent packet loss on a random node.
  kGray,           // Gray slowness episodes on random nodes.
  kCrashRestart,   // Crash a replica mid-run, restart it from its WAL.
  kHandoff,        // Serialize sessions and resume them on the other frontend.
  kFailover,       // Crash the PRIMARY mid-run: lease-based live failover.
  kOverload,       // Admission-shedding episodes: degraded reads must still
                   // honor their claimed (downgraded) guarantees.
};

std::string_view FaultScenarioName(FaultScenario scenario);
// Parses the names FaultScenarioName produces ("none", "partition", "drops",
// "gray", "crash-restart", "handoff", "failover", "overload"); nullopt for
// anything else.
std::optional<FaultScenario> ParseFaultScenario(std::string_view name);
std::vector<FaultScenario> AllFaultScenarios();

// Where the scenario runs (DESIGN.md Section 8 lists what each supports).
enum class DeploymentKind {
  kSim = 0,  // Fig-10 GeoTestbed on the deterministic simulator.
  kTcp,      // Durable primary + pulled secondary over loopback TCP.
};

struct ScenarioOptions {
  DeploymentKind deployment = DeploymentKind::kSim;
  uint64_t seed = 1;
  FaultScenario scenario = FaultScenario::kNone;
  // Client operations across all frontends (excluding the preload).
  uint64_t total_ops = 600;
  int key_count = 100;
  int ops_per_session = 40;
  // WALs live here. Required for kCrashRestart (the restarted node recovers
  // from its WAL) and for every TCP run; optional otherwise. When set, the
  // run also cross-checks the WALs against the committed order.
  std::string durable_root;
  // Defaults to AuditSla().
  std::optional<core::Sla> sla;
};

// The audit SLA: one subSLA per guarantee, strongest first, so every claim
// path through DetermineMetRank gets exercised.
core::Sla AuditSla();

struct ScenarioResult {
  ScenarioOptions options;  // The run's options, for the summary.
  // Non-ok when the options are unsupported, the world could not be built,
  // or the deployment could not be driven; the audit fields are empty then.
  Status setup = Status::Ok();
  audit::AuditReport report;
  // The audited history (kept so violation reports can cite full op records).
  audit::History history;
  uint64_t ops_attempted = 0;
  uint64_t ops_failed = 0;  // Op returned an error (fine under faults).
  uint64_t sessions = 0;
  uint64_t handoffs = 0;
  // Every Put/Delete a client saw succeed (preload included) must appear in
  // the committed order, whether or not that order is complete.
  uint64_t acked_writes = 0;
  uint64_t lost_acked_writes = 0;
  std::vector<std::string> lost_write_details;  // The first few.
  // Sim: completed primary promotions (kFailover).
  uint64_t failovers = 0;

  bool ok() const {
    return setup.ok() && report.ok() && lost_acked_writes == 0;
  }
  // One line: verdict, scenario, seed (the repro handle), op counts.
  std::string Summary() const;
};

// Ok when the chosen deployment can run `options`' scenario.
// RunAuditScenario checks this first and fails setup on an unsupported
// combination.
Status Supports(const ScenarioOptions& options);

ScenarioResult RunAuditScenario(const ScenarioOptions& options);

}  // namespace pileus::experiments

#endif  // PILEUS_SRC_EXPERIMENTS_SCENARIO_H_
