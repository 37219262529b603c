// Dynamic tablets under a synthetic hotspot (DESIGN.md Section 14).
//
// A four-node fleet starts perfectly balanced: one tablet per node, uniform
// traffic. Then the workload concentrates 90% of its ops on one quarter of
// the keyspace — a single tablet, a single node — and throughput collapses
// to roughly what that one node can serve. The rebalancer's job is to win
// it back: split the hot tablet at its observed median until the pieces are
// cool enough to spread, then live-migrate them across the fleet.
//
// Throughput is modeled, not wall-clocked: every op costs its primary a
// fixed service time, so a workload's throughput is total ops divided by
// the busiest node's busy time (the makespan of a perfectly pipelined
// fleet). That keeps the bench deterministic while still rewarding exactly
// what rebalancing buys — spreading the busy time.
//
// Self-checks (exit 1 on failure):
//   1. After rebalancing converges, hotspot throughput recovers to >= 80%
//      of the balanced-workload baseline.
//   2. Every live migration's write-unavailability window (fence on the
//      source to promote on the target, as recorded by the coordinator's
//      pileus_tablet_migration_window_us histogram) stays under a bound
//      and is recorded exactly once per migration — the fenced drain is
//      finite, so windows must not stretch with the ops pushed through.
//   3. Coordinator kill (DESIGN.md Section 15): a durable coordinator dies
//      at the worst crash point — mid-cutover, range fenced on the source —
//      and a standby waits out the lease, replays the intent log, and
//      resumes the migration. Write unavailability for the migrating range
//      stays under lease + drain budget, and every other range serves
//      writes uninterrupted throughout.
//
// Writes BENCH_tablets.json (cwd) so the numbers are trackable across
// commits. PILEUS_BENCH_SMOKE=1 shrinks the op counts; the self-checks
// hold in both modes.

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/proto/messages.h"
#include "src/sim/fault_injector.h"
#include "src/storage/storage_node.h"
#include "src/tablets/coordinator.h"
#include "src/tablets/rebalancer.h"
#include "src/tablets/tablet_map.h"
#include "src/telemetry/metrics.h"
#include "src/util/histogram.h"

using namespace pileus;  // NOLINT

namespace {

bool SmokeMode() {
  const char* value = std::getenv("PILEUS_BENCH_SMOKE");
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

// Virtual time that flows as work happens: every read advances the clock by
// a small tick. The coordinator measures the migration window with
// NowMicros() reads around the fence→drain→promote span, so in this world
// the recorded window counts the clock observations the protocol makes
// while the range is fenced. The bound below therefore checks a structural
// property: cutover closes in O(1) coordinator steps, independent of how
// many ops the workload pushed — a drain that scaled with workload size
// would stretch the window past the bound.
class TickingClock : public Clock {
 public:
  explicit TickingClock(MicrosecondCount tick_us) : tick_us_(tick_us) {}
  MicrosecondCount NowMicros() const override {
    return now_us_.fetch_add(tick_us_, std::memory_order_relaxed) + tick_us_;
  }

 private:
  const MicrosecondCount tick_us_;
  mutable std::atomic<MicrosecondCount> now_us_{1'000'000};
};

constexpr int kNodes = 4;
constexpr int kKeys = 400;            // k0000..k0399; one quarter per tablet.
constexpr int kHotBegin = 100;        // The hot band is [k0100, k0200) —
constexpr int kHotEnd = 200;          // exactly node 2's initial tablet.
constexpr double kHotFraction = 0.9;  // Ops landing in the hot band.
constexpr MicrosecondCount kServiceUs = 100;  // Per-op cost at the primary.
constexpr const char* kTable = "bench";

std::string KeyName(int index) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "k%04d", index);
  return buf;
}

struct World {
  std::unique_ptr<TickingClock> clock;
  std::unique_ptr<sim::FaultInjector> injector;
  tablets::TabletMap initial;  // Seed map, kept for standby Recover().
  std::vector<std::unique_ptr<storage::StorageNode>> nodes;
  std::unique_ptr<tablets::TabletCoordinator> coordinator;
  std::unique_ptr<telemetry::MetricsRegistry> registry;

  storage::StorageNode* NodeNamed(const std::string& name) {
    for (auto& node : nodes) {
      if (node->name() == name) {
        return node.get();
      }
    }
    return nullptr;
  }
};

// With `intent_log_path` empty the coordinator is the plain in-memory one;
// otherwise it boots durably via Recover() under `lease_us` leases, wired
// to the world's fault injector so crash points can kill it mid-protocol.
World BuildWorld(const std::string& intent_log_path = "",
                 MicrosecondCount lease_us = 0) {
  World world;
  world.clock = std::make_unique<TickingClock>(/*tick_us=*/2);
  world.injector = std::make_unique<sim::FaultInjector>();
  tablets::TabletMap initial;
  initial.table = kTable;
  initial.version = 1;
  for (int i = 0; i < kNodes; ++i) {
    const std::string name = "n" + std::to_string(i + 1);
    auto node = std::make_unique<storage::StorageNode>(name, "dc1",
                                                       world.clock.get());
    tablets::TabletInfo info;
    info.range.begin = i == 0 ? "" : KeyName(i * kKeys / kNodes);
    info.range.end = i == kNodes - 1 ? "" : KeyName((i + 1) * kKeys / kNodes);
    info.config.epoch = 1;
    info.config.primary = name;
    info.config.members = {name};
    storage::Tablet::Options tablet_options;
    tablet_options.range = info.range;
    tablet_options.is_primary = true;
    if (Status added = node->AddTablet(kTable, tablet_options); !added.ok()) {
      std::fprintf(stderr, "AddTablet: %s\n", added.ToString().c_str());
      std::exit(1);
    }
    initial.tablets.push_back(std::move(info));
    world.nodes.push_back(std::move(node));
  }
  world.initial = initial;
  if (intent_log_path.empty()) {
    world.coordinator = std::make_unique<tablets::TabletCoordinator>(
        std::move(initial), world.clock.get());
  } else {
    tablets::TabletCoordinator::Options options;
    options.intent_log_path = intent_log_path;
    options.coordinator_name = "coord-a";
    options.lease_duration_us = lease_us;
    options.fault_injector = world.injector.get();
    auto recovered = tablets::TabletCoordinator::Recover(
        std::move(initial), world.clock.get(), options);
    if (!recovered.ok()) {
      std::fprintf(stderr, "Recover: %s\n",
                   recovered.status().ToString().c_str());
      std::exit(1);
    }
    world.coordinator = std::move(*recovered);
  }
  world.registry = std::make_unique<telemetry::MetricsRegistry>();
  world.coordinator->EnableTelemetry(world.registry.get());
  for (auto& node : world.nodes) {
    world.coordinator->RegisterNode(node.get());
  }
  if (Status published = world.coordinator->PublishMap(); !published.ok()) {
    std::fprintf(stderr, "PublishMap: %s\n", published.ToString().c_str());
    std::exit(1);
  }
  return world;
}

struct WorkloadResult {
  uint64_t ops = 0;
  uint64_t errors = 0;
  // Busy time model: ops served per primary; the makespan is the busiest
  // node's count times kServiceUs.
  std::map<std::string, uint64_t> ops_by_node;

  double Throughput() const {
    uint64_t busiest = 0;
    for (const auto& [node, count] : ops_by_node) {
      busiest = std::max(busiest, count);
    }
    if (busiest == 0) {
      return 0.0;
    }
    return static_cast<double>(ops) /
           (static_cast<double>(busiest) * kServiceUs / 1e6);
  }
};

// Drives `ops` requests routed by the coordinator's current map (re-read
// every op, so mid-run splits and migrations redirect traffic immediately).
// `hot` concentrates kHotFraction of ops uniformly inside the hot band.
WorkloadResult RunWorkload(World& world, uint64_t ops, bool hot,
                           uint64_t seed) {
  Random random(seed);
  WorkloadResult result;
  for (uint64_t i = 0; i < ops; ++i) {
    int index;
    if (hot && random.NextDouble() < kHotFraction) {
      index = kHotBegin +
              static_cast<int>(random.NextUint64(kHotEnd - kHotBegin));
    } else {
      index = static_cast<int>(random.NextUint64(kKeys));
    }
    const std::string key = KeyName(index);
    const tablets::TabletInfo* owner =
        world.coordinator->map().OwnerOf(key);
    storage::StorageNode* node =
        owner == nullptr ? nullptr : world.NodeNamed(owner->config.primary);
    if (node == nullptr) {
      ++result.errors;
      continue;
    }
    proto::Message request;
    if (random.NextDouble() < 0.3) {
      proto::PutRequest put;
      put.table = kTable;
      put.key = key;
      put.value = "v" + std::to_string(i);
      request = put;
    } else {
      proto::GetRequest get;
      get.table = kTable;
      get.key = key;
      request = get;
    }
    const proto::Message reply = node->Handle(request);
    if (std::holds_alternative<proto::ErrorReply>(reply)) {
      ++result.errors;
    } else {
      ++result.ops;
      ++result.ops_by_node[node->name()];
    }
  }
  return result;
}

// --- Coordinator kill (DESIGN.md Section 15) ---

constexpr MicrosecondCount kLeaseUs = 100'000;       // Virtual lease term.
constexpr MicrosecondCount kDrainBudgetUs = 50'000;  // Same bound as phase 4.

struct KillPhaseResult {
  bool ok = false;
  int64_t unavailability_us = 0;       // Crash to first accepted hot write.
  uint64_t standby_wait_attempts = 0;  // Recover() calls fenced by the lease.
  uint64_t hot_probe_attempts = 0;     // Migrating-range writes in the window.
  uint64_t hot_probe_failures = 0;     // All must fail: the range is fenced.
  uint64_t cold_probe_writes = 0;      // Other-range writes in the window.
  uint64_t cold_probe_failures = 0;    // Must be zero: uninterrupted service.
};

bool ProbePut(storage::StorageNode* node, const std::string& key,
              const std::string& value) {
  proto::PutRequest put;
  put.table = kTable;
  put.key = key;
  put.value = value;
  proto::Message request = put;
  return !std::holds_alternative<proto::ErrorReply>(node->Handle(request));
}

// A durable coordinator dies at the worst crash point of a live migration —
// the source just fenced the range, the target is not yet promoted — and a
// standby must wait out the lease before it may replay the intent log and
// resume the cutover. The whole down window is probed: writes to the
// migrating range must fail (no split brain), writes to every other range
// must keep landing.
// The coordinator's intent log lives in `dir`.
KillPhaseResult RunCoordinatorKillPhaseIn(const std::string& dir, bool smoke) {
  KillPhaseResult result;
  const std::string log_path = dir + "/coordinator.intents";
  World world = BuildWorld(log_path, kLeaseUs);

  // Seed data so the cutover drain has records to pull.
  (void)RunWorkload(world, smoke ? 500 : 2'000, /*hot=*/false, /*seed=*/7);

  const std::string hot_begin = KeyName(kHotBegin);
  if (Status renewed = world.coordinator->RenewLease(); !renewed.ok()) {
    std::fprintf(stderr, "coordinator kill: RenewLease: %s\n",
                 renewed.ToString().c_str());
    return result;
  }
  world.injector->ArmCrashPoint("tablets.migration.after_fence");
  const Status migrate = world.coordinator->ExecuteMigration(hot_begin, "n4");
  if (migrate.code() != StatusCode::kCancelled) {
    std::fprintf(stderr,
                 "coordinator kill: expected the crash point to fire, got %s\n",
                 migrate.ToString().c_str());
    return result;
  }
  const tablets::TabletMap fenced = world.coordinator->map();
  const MicrosecondCount crash_us = world.clock->NowMicros();
  world.coordinator.reset();  // kill -9: only the intent log survives.

  tablets::TabletCoordinator::Options standby;
  standby.intent_log_path = log_path;
  standby.coordinator_name = "coord-b";
  standby.lease_duration_us = kLeaseUs;
  std::unique_ptr<tablets::TabletCoordinator> successor;
  for (uint64_t i = 0; i < 500'000 && successor == nullptr; ++i) {
    auto attempt = tablets::TabletCoordinator::Recover(
        world.initial, world.clock.get(), standby);
    if (attempt.ok()) {
      successor = std::move(*attempt);
      break;
    }
    ++result.standby_wait_attempts;
    // Probe the data plane while the control plane is down.
    for (const tablets::TabletInfo& info : fenced.tablets) {
      const std::string key =
          info.range.begin.empty() ? KeyName(0) : info.range.begin;
      storage::StorageNode* node = world.NodeNamed(info.config.primary);
      const bool served =
          node != nullptr && ProbePut(node, key, "probe");
      if (info.range.begin == hot_begin) {
        ++result.hot_probe_attempts;
        if (!served) {
          ++result.hot_probe_failures;
        }
      } else {
        ++result.cold_probe_writes;
        if (!served) {
          ++result.cold_probe_failures;
        }
      }
    }
  }
  if (successor == nullptr) {
    std::fprintf(stderr, "coordinator kill: standby never took over\n");
    return result;
  }
  world.coordinator = std::move(successor);
  for (auto& node : world.nodes) {
    world.coordinator->RegisterNode(node.get());
  }
  if (Status done = world.coordinator->CompleteRecovery(); !done.ok()) {
    std::fprintf(stderr, "coordinator kill: CompleteRecovery: %s\n",
                 done.ToString().c_str());
    return result;
  }

  // The resumed cutover must have promoted the target; the first accepted
  // write to the migrating range closes the unavailability window.
  const tablets::TabletInfo* owner =
      world.coordinator->map().OwnerOf(hot_begin);
  storage::StorageNode* new_primary =
      owner == nullptr ? nullptr : world.NodeNamed(owner->config.primary);
  if (owner == nullptr || owner->config.primary != "n4" ||
      new_primary == nullptr ||
      !ProbePut(new_primary, hot_begin, "post-recovery")) {
    std::fprintf(stderr,
                 "coordinator kill: migration did not resume to the target\n");
    return result;
  }
  result.unavailability_us = world.clock->NowMicros() - crash_us;

  result.ok = true;
  if (world.coordinator->migrations() != 1 ||
      world.coordinator->pending_intent().has_value()) {
    std::fprintf(stderr,
                 "FAIL: standby finished %llu migrations (want 1), pending "
                 "intent %s\n",
                 static_cast<unsigned long long>(
                     world.coordinator->migrations()),
                 world.coordinator->pending_intent().has_value() ? "set"
                                                                 : "clear");
    result.ok = false;
  }
  if (result.standby_wait_attempts == 0) {
    std::fprintf(stderr,
                 "FAIL: the standby never waited — the lease did not fence "
                 "the takeover\n");
    result.ok = false;
  }
  if (result.hot_probe_attempts == 0 ||
      result.hot_probe_failures != result.hot_probe_attempts) {
    std::fprintf(stderr,
                 "FAIL: the fenced range accepted writes during the down "
                 "window (%llu of %llu rejected) — split brain\n",
                 static_cast<unsigned long long>(result.hot_probe_failures),
                 static_cast<unsigned long long>(result.hot_probe_attempts));
    result.ok = false;
  }
  if (result.cold_probe_writes == 0 || result.cold_probe_failures != 0) {
    std::fprintf(stderr,
                 "FAIL: other ranges did not serve uninterrupted (%llu of "
                 "%llu probes failed)\n",
                 static_cast<unsigned long long>(result.cold_probe_failures),
                 static_cast<unsigned long long>(result.cold_probe_writes));
    result.ok = false;
  }
  if (result.unavailability_us <= 0 ||
      result.unavailability_us > kLeaseUs + kDrainBudgetUs) {
    std::fprintf(stderr,
                 "FAIL: write unavailability %lld us exceeds the lease + "
                 "drain budget %lld us\n",
                 static_cast<long long>(result.unavailability_us),
                 static_cast<long long>(kLeaseUs + kDrainBudgetUs));
    result.ok = false;
  }
  return result;
}

// Runs the kill phase in a fresh temporary directory, removed when the phase
// passes and kept (its path printed) for triage when it fails.
KillPhaseResult RunCoordinatorKillPhase(bool smoke) {
  char dir[] = "/tmp/pileus_bench_tablets.XXXXXX";
  if (::mkdtemp(dir) == nullptr) {
    std::fprintf(stderr, "coordinator kill: mkdtemp failed\n");
    return KillPhaseResult{};
  }
  const KillPhaseResult result = RunCoordinatorKillPhaseIn(dir, smoke);
  if (result.ok) {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  } else {
    std::fprintf(stderr, "coordinator kill: intent log kept in %s\n", dir);
  }
  return result;
}

}  // namespace

int main() {
  const bool smoke = SmokeMode();
  const uint64_t phase_ops = smoke ? 6'000 : 30'000;
  const uint64_t round_ops = phase_ops / 4;
  const int max_rounds = 16;

  World world = BuildWorld();

  std::printf("dynamic tablets: %d nodes, %d keys, hot band [%s, %s) %.0f%%\n",
              kNodes, kKeys, KeyName(kHotBegin).c_str(),
              KeyName(kHotEnd).c_str(), kHotFraction * 100);

  // Phase 1: balanced baseline — uniform keys, one tablet per node.
  const WorkloadResult balanced =
      RunWorkload(world, phase_ops, /*hot=*/false, /*seed=*/1);
  std::printf("balanced:            %8.0f ops/s (modeled)\n",
              balanced.Throughput());

  // Phase 2: the hotspot hits, nothing rebalances yet. The sample before it
  // primes the per-tablet op-counter baselines: a first sample has no
  // baseline and reports 0 ops/s, which would make every threshold trip.
  (void)world.coordinator->SampleLoads();
  const WorkloadResult hotspot =
      RunWorkload(world, phase_ops, /*hot=*/true, /*seed=*/2);
  std::printf("hotspot, static map: %8.0f ops/s (modeled)\n",
              hotspot.Throughput());

  // Phase 3: rebalance. Split hot tablets (anything above ~1/8 of the total
  // observed rate — half a fair node share), then move the pieces to cool
  // nodes, one observation round at a time until a round plans nothing.
  uint64_t total_rate = 0;
  for (const tablets::TabletLoad& load : world.coordinator->SampleLoads()) {
    total_rate += load.ops_per_sec;
  }
  tablets::Rebalancer::Options policy;
  policy.split_threshold_bytes = 0;  // Rate-driven: splits chase heat.
  policy.split_threshold_ops_per_sec = std::max<uint64_t>(total_rate / 8, 1);
  policy.imbalance_ratio = 1.3;
  const tablets::Rebalancer rebalancer(policy);

  int rounds = 0;
  uint64_t actions_total = 0;
  int quiet_rounds = 0;
  for (; rounds < max_rounds; ++rounds) {
    (void)RunWorkload(world, round_ops, /*hot=*/true,
                      /*seed=*/100 + static_cast<uint64_t>(rounds));
    const std::vector<tablets::RebalanceAction> actions =
        world.coordinator->RunRebalanceRound(rebalancer);
    for (const tablets::RebalanceAction& action : actions) {
      std::printf("  round %2d: %s\n", rounds + 1,
                  action.ToString().c_str());
    }
    actions_total += actions.size();
    // Freshly split or migrated tablets have no rate baseline for one
    // sampling round, so a single quiet round can be observation lag, not
    // convergence; stop after two in a row.
    quiet_rounds = actions.empty() ? quiet_rounds + 1 : 0;
    if (quiet_rounds >= 2 && actions_total > 0) {
      break;
    }
  }
  std::printf("rebalancer: %llu splits, %llu migrations (%llu failed) over "
              "%d rounds, map v%llu with %zu tablets\n",
              static_cast<unsigned long long>(world.coordinator->splits()),
              static_cast<unsigned long long>(world.coordinator->migrations()),
              static_cast<unsigned long long>(
                  world.coordinator->migration_failures()),
              rounds + 1,
              static_cast<unsigned long long>(world.coordinator->map().version),
              world.coordinator->map().tablets.size());

  // Phase 4: the same hotspot against the rebalanced map.
  const WorkloadResult rebalanced =
      RunWorkload(world, phase_ops, /*hot=*/true, /*seed=*/3);
  std::printf("hotspot, rebalanced: %8.0f ops/s (modeled, %.0f%% of "
              "balanced)\n",
              rebalanced.Throughput(),
              100.0 * rebalanced.Throughput() / balanced.Throughput());

  // Migration write-unavailability windows, as the coordinator recorded
  // them (virtual time; the ticking clock advances with drain work).
  const Histogram windows =
      world.registry
          ->GetHistogram(telemetry::WithLabels(
              "pileus_tablet_migration_window_us", {{"table", kTable}}))
          ->Merged();
  std::printf("migration windows:   n=%llu p50=%lld us max=%lld us\n",
              static_cast<unsigned long long>(windows.count()),
              static_cast<long long>(windows.Quantile(0.5)),
              static_cast<long long>(windows.max()));

  bool ok = true;
  if (balanced.Throughput() <= 0 ||
      rebalanced.Throughput() < 0.8 * balanced.Throughput()) {
    std::fprintf(stderr,
                 "FAIL: rebalanced hotspot throughput %.0f is below 80%% of "
                 "the balanced baseline %.0f\n",
                 rebalanced.Throughput(), balanced.Throughput());
    ok = false;
  }
  if (world.coordinator->migrations() == 0 ||
      world.coordinator->splits() == 0) {
    std::fprintf(stderr,
                 "FAIL: rebalancer never split (%llu) or never migrated "
                 "(%llu) — the hotspot was not acted on\n",
                 static_cast<unsigned long long>(world.coordinator->splits()),
                 static_cast<unsigned long long>(
                     world.coordinator->migrations()));
    ok = false;
  }
  constexpr int64_t kWindowBoundUs = 50'000;  // 50 ms of virtual time.
  if (windows.count() != world.coordinator->migrations() ||
      windows.max() <= 0 || windows.max() > kWindowBoundUs) {
    std::fprintf(stderr,
                 "FAIL: migration windows out of bounds (n=%llu vs %llu "
                 "migrations, max=%lld us, bound=%lld us)\n",
                 static_cast<unsigned long long>(windows.count()),
                 static_cast<unsigned long long>(
                     world.coordinator->migrations()),
                 static_cast<long long>(windows.max()),
                 static_cast<long long>(kWindowBoundUs));
    ok = false;
  }
  if (hotspot.Throughput() >= 0.95 * balanced.Throughput()) {
    std::fprintf(stderr,
                 "FAIL: the hotspot did not degrade throughput (%.0f vs "
                 "%.0f) — the bench is not measuring anything\n",
                 hotspot.Throughput(), balanced.Throughput());
    ok = false;
  }

  // Phase 5: kill the coordinator mid-cutover; a standby resumes from the
  // intent log after the lease runs out.
  const KillPhaseResult kill = RunCoordinatorKillPhase(smoke);
  std::printf("coordinator kill:    unavailability %lld us (bound %lld us), "
              "%llu lease-fenced takeover attempts, hot probes %llu/%llu "
              "rejected, cold probes %llu/%llu served\n",
              static_cast<long long>(kill.unavailability_us),
              static_cast<long long>(kLeaseUs + kDrainBudgetUs),
              static_cast<unsigned long long>(kill.standby_wait_attempts),
              static_cast<unsigned long long>(kill.hot_probe_failures),
              static_cast<unsigned long long>(kill.hot_probe_attempts),
              static_cast<unsigned long long>(kill.cold_probe_writes -
                                              kill.cold_probe_failures),
              static_cast<unsigned long long>(kill.cold_probe_writes));
  ok = ok && kill.ok;

  // --- BENCH_tablets.json ---
  FILE* json = std::fopen("BENCH_tablets.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(json,
                 "  \"balanced_ops_per_sec\": %.0f,\n"
                 "  \"hotspot_static_ops_per_sec\": %.0f,\n"
                 "  \"hotspot_rebalanced_ops_per_sec\": %.0f,\n"
                 "  \"recovery_fraction\": %.3f,\n",
                 balanced.Throughput(), hotspot.Throughput(),
                 rebalanced.Throughput(),
                 rebalanced.Throughput() / balanced.Throughput());
    std::fprintf(json,
                 "  \"splits\": %llu,\n  \"migrations\": %llu,\n"
                 "  \"migration_failures\": %llu,\n  \"map_version\": %llu,\n"
                 "  \"tablets\": %zu,\n",
                 static_cast<unsigned long long>(world.coordinator->splits()),
                 static_cast<unsigned long long>(
                     world.coordinator->migrations()),
                 static_cast<unsigned long long>(
                     world.coordinator->migration_failures()),
                 static_cast<unsigned long long>(
                     world.coordinator->map().version),
                 world.coordinator->map().tablets.size());
    std::fprintf(json,
                 "  \"migration_window_us\": {\"n\": %llu, \"p50\": %lld, "
                 "\"max\": %lld, \"bound\": %lld},\n",
                 static_cast<unsigned long long>(windows.count()),
                 static_cast<long long>(windows.Quantile(0.5)),
                 static_cast<long long>(windows.max()),
                 static_cast<long long>(kWindowBoundUs));
    std::fprintf(json,
                 "  \"coordinator_kill\": {\"lease_us\": %lld, "
                 "\"drain_budget_us\": %lld, \"unavailability_us\": %lld, "
                 "\"bound_us\": %lld, \"standby_wait_attempts\": %llu, "
                 "\"hot_probes_rejected\": %llu, \"hot_probes\": %llu, "
                 "\"cold_probes_served\": %llu, \"cold_probes\": %llu, "
                 "\"ok\": %s},\n",
                 static_cast<long long>(kLeaseUs),
                 static_cast<long long>(kDrainBudgetUs),
                 static_cast<long long>(kill.unavailability_us),
                 static_cast<long long>(kLeaseUs + kDrainBudgetUs),
                 static_cast<unsigned long long>(kill.standby_wait_attempts),
                 static_cast<unsigned long long>(kill.hot_probe_failures),
                 static_cast<unsigned long long>(kill.hot_probe_attempts),
                 static_cast<unsigned long long>(kill.cold_probe_writes -
                                                 kill.cold_probe_failures),
                 static_cast<unsigned long long>(kill.cold_probe_writes),
                 kill.ok ? "true" : "false");
    std::fprintf(json, "  \"pass\": %s\n}\n", ok ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_tablets.json\n");
  }

  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
