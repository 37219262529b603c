// Consistency-audit sweep runner (DESIGN.md "Consistency auditing").
//
// Runs seeded random workloads under scripted fault scenarios, records every
// client-visible operation, and audits the history offline against the
// committed order. Every run is reproducible from its printed seed:
//
//   pileus_audit                        # default sweep: 8 seeds x 3 scenarios
//   pileus_audit --seed 42              # one seed across the scenario list
//   pileus_audit --seed 42 --scenarios crash-restart   # one exact run
//   pileus_audit --transport tcp        # same audit over real sockets: the
//                                       # epoll transport, a durable primary
//                                       # with WAL group commit, replication
//                                       # pulls over TCP (wall-clock time, so
//                                       # runs are seeded but not bit-exact)
//
// Exits 2 on an unknown scenario or one the chosen deployment does not support,
// and 1 when any run reports a violation or a lost acked write. Without
// --durable_root the runs' WALs go to a fresh temporary directory, removed
// when every run passed and kept for triage otherwise.

#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "src/experiments/scenario.h"
#include "tools/flags.h"

namespace pileus {
namespace {

using experiments::DeploymentKind;
using experiments::FaultScenarioName;
using experiments::ScenarioOptions;
using experiments::ScenarioResult;

// Prints what a failing run needs for triage: the report, the lost acked
// writes, and the full op records each violation cites.
void PrintFailure(const ScenarioResult& result) {
  std::printf("%s\n", result.report.ToString().c_str());
  for (const std::string& detail : result.lost_write_details) {
    std::printf("    %s\n", detail.c_str());
  }
  for (const auto& violation : result.report.violations) {
    for (const size_t index :
         {violation.op_index, violation.related_op_index}) {
      if (index < result.history.ops.size()) {
        std::printf("    op #%zu: %s\n", index,
                    audit::DescribeOp(result.history.ops[index]).c_str());
      }
    }
  }
}

int Run(int argc, char** argv) {
  tools::FlagSet flags;
  flags.DefineInt("seed", 0, "run only this seed (0 = sweep 1..num_seeds)");
  flags.DefineInt("num_seeds", 8, "seeds per scenario when sweeping");
  flags.DefineString("scenarios", "",
                     "comma-separated: none, partition, drops, gray, "
                     "crash-restart, handoff, failover, overload "
                     "(default: none,partition,crash-restart on sim; "
                     "none,crash-restart,handoff on tcp)");
  flags.DefineString("transport", "sim",
                     "sim = deterministic simulator testbed; tcp = real "
                     "sockets on loopback (epoll transport, durable primary "
                     "with WAL group commit, replication pulls over TCP)");
  flags.DefineInt("ops", 600, "client operations per run");
  flags.DefineInt("keys", 100, "distinct keys in the workload");
  flags.DefineString("durable_root", "",
                     "directory for per-run WALs (default: a fresh temp "
                     "dir, removed when every run passes)");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }

  const std::string transport = flags.GetString("transport");
  if (transport != "sim" && transport != "tcp") {
    std::fprintf(stderr, "--transport must be 'sim' or 'tcp'\n");
    return 2;
  }
  const bool tcp = transport == "tcp";

  std::string scenario_list = flags.GetString("scenarios");
  if (scenario_list.empty()) {
    scenario_list =
        tcp ? "none,crash-restart,handoff" : "none,partition,crash-restart";
  }
  ScenarioOptions base;
  base.deployment = tcp ? DeploymentKind::kTcp : DeploymentKind::kSim;
  base.total_ops = static_cast<uint64_t>(flags.GetInt("ops"));
  base.key_count = static_cast<int>(flags.GetInt("keys"));

  std::vector<ScenarioOptions> configs;
  std::istringstream names(scenario_list);
  for (std::string name; std::getline(names, name, ',');) {
    if (name.empty()) {
      continue;
    }
    const auto scenario = experiments::ParseFaultScenario(name);
    if (!scenario.has_value()) {
      std::fprintf(stderr, "unknown scenario '%s'\n", name.c_str());
      return 2;
    }
    ScenarioOptions options = base;
    options.scenario = *scenario;
    configs.push_back(options);
  }
  if (configs.empty()) {
    std::fprintf(stderr, "no scenarios selected\n");
    return 2;
  }
  for (const ScenarioOptions& options : configs) {
    const Status supported = experiments::Supports(options);
    if (!supported.ok()) {
      std::fprintf(stderr, "%s: %s\n",
                   std::string(FaultScenarioName(options.scenario)).c_str(),
                   supported.message().c_str());
      return 2;
    }
  }

  std::vector<uint64_t> seeds;
  if (flags.GetInt("seed") != 0) {
    seeds.push_back(static_cast<uint64_t>(flags.GetInt("seed")));
  } else {
    for (int64_t s = 1; s <= flags.GetInt("num_seeds"); ++s) {
      seeds.push_back(static_cast<uint64_t>(s));
    }
  }

  std::string durable_root = flags.GetString("durable_root");
  const bool own_root = durable_root.empty();
  if (own_root) {
    char tmpl[] = "/tmp/pileus_audit.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return 2;
    }
    durable_root = tmpl;
  }

  int failures = 0;
  uint64_t runs = 0;
  for (ScenarioOptions& options : configs) {
    for (const uint64_t seed : seeds) {
      options.seed = seed;
      // One subdirectory per run: WALs append, so runs must not share files.
      options.durable_root = durable_root + "/" +
                             std::string(FaultScenarioName(options.scenario)) +
                             "_" + std::to_string(seed);
      const ScenarioResult result = experiments::RunAuditScenario(options);
      ++runs;
      std::printf("%s\n", result.Summary().c_str());
      if (!result.ok()) {
        ++failures;
        std::printf("    run directory: %s\n", options.durable_root.c_str());
        PrintFailure(result);
      }
    }
  }
  std::printf("%llu runs, %d with violations\n",
              static_cast<unsigned long long>(runs), failures);
  if (own_root && failures == 0) {
    std::error_code ignored;
    std::filesystem::remove_all(durable_root, ignored);
  } else if (own_root) {
    std::printf("kept %s for triage\n", durable_root.c_str());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pileus

int main(int argc, char** argv) { return pileus::Run(argc, argv); }
