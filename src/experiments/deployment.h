// The per-deployment half of the audit runner (scenario.h). A Deployment
// builds a world and its frontends, applies fault events, advances time, and
// exports the committed order; RunAuditScenario owns everything else.

#ifndef PILEUS_SRC_EXPERIMENTS_DEPLOYMENT_H_
#define PILEUS_SRC_EXPERIMENTS_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/audit_hook.h"
#include "src/core/client.h"
#include "src/experiments/scenario.h"
#include "src/proto/messages.h"

namespace pileus::experiments {

// One scripted fault action. The planner fixes every random choice from the
// seed; when the op loop reaches the event, the runner resolves `target` and
// `pick` to one of the deployment's nodes at that moment.
struct FaultEvent {
  enum class Kind {
    kIsolate,   // Two-way partition between the node and every other node.
    kRejoin,    // Lift kIsolate.
    kDrop,      // The node silently drops `amount` of its messages.
    kGray,      // The node answers `amount` times slower.
    kOverload,  // The node sheds with probability `amount`, hinting
                // `retry_after_ms`.
    kRecover,   // Lift kDrop / kGray / kOverload.
    kCrash,     // Crash the node; its volatile state is lost.
    kRestart,   // Restart the node the last kCrash took down, from its WAL.
  };
  enum class Target {
    kAnyNode,
    kReplica,  // A node whose loss the run survives (see Deployment::Nodes).
    kPrimary,  // The node holding the primary role right now.
  };
  Kind kind = Kind::kCrash;
  Target target = Target::kAnyNode;
  // Index into Nodes(target), modulo its size. A lifting event repeats the
  // target and pick of the event it lifts.
  uint64_t pick = 0;
  double amount = 0;
  uint32_t retry_after_ms = 0;
};

// What a deployment hands the runner once the op loop is over.
struct GroundTruth {
  std::vector<proto::ObjectVersion> versions;  // Committed order.
  bool complete = true;  // False when part of the order could not be read.
  // WALs whose every entry must appear in `versions` (checked when complete).
  std::vector<std::string> wal_paths;
};

class Deployment {
 public:
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  virtual ~Deployment() = default;

  // Ok when this deployment can run `options` as asked. Called before Build.
  virtual Status Supports(const ScenarioOptions& options) const = 0;
  // Builds the world; every frontend reports its ops to `observer`.
  virtual Status Build(core::OpObserver* observer) = 0;
  // The clients the runner sends ops through.
  virtual std::vector<core::PileusClient*> frontends() = 0;
  // After the preload, before the first op: replication, probing, warm-up.
  virtual void Start() {}
  // The nodes an event aimed at `target` may hit right now (may be empty).
  virtual std::vector<std::string> Nodes(FaultEvent::Target target) = 0;
  virtual void Apply(const FaultEvent& event, const std::string& node) = 0;
  // Deployment-owned activity before op `op` (probe rounds).
  virtual void BeforeOp(uint64_t /*op*/) {}
  // Advances time by one think time after an op.
  virtual void AfterOp() {}
  // Heals every fault, quiesces background work, fills the deployment's
  // counters in `result`, and exports the committed order.
  virtual Result<GroundTruth> Finish(ScenarioResult& result) = 0;
};

// Ok when `options` asks for one of `scenarios`.
Status CheckSupport(const ScenarioOptions& options, std::string_view name,
                    const std::vector<FaultScenario>& scenarios);

std::unique_ptr<Deployment> MakeSimDeployment(const ScenarioOptions& options);
std::unique_ptr<Deployment> MakeTcpDeployment(const ScenarioOptions& options);

}  // namespace pileus::experiments

#endif  // PILEUS_SRC_EXPERIMENTS_DEPLOYMENT_H_
