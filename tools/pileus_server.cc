// pileus_server: a storage-node daemon.
//
// Hosts one table over TCP (loopback), optionally durable (WAL +
// checkpoints), as either the primary or a secondary that pulls from a
// primary on the same host.
//
//   # primary with durability
//   pileus_server --port 7000 --role primary --data_dir /var/lib/pileus/p0
//
//   # secondary replicating from it every 10 s
//   pileus_server --port 7001 --role secondary --primary_port 7000
//                 --pull_period_ms 10000 --data_dir /var/lib/pileus/s0
//
// A durable node that restarts comes back in the role its journal last
// recorded, fenced until a tablet-map install re-leases it; --role only
// seeds a node that never installed a map. Stops cleanly on SIGINT/SIGTERM
// (exit 1 when the shutdown checkpoint fails).

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/server/node_host.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "tools/flags.h"

using namespace pileus;  // NOLINT

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int /*signum*/) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  tools::FlagSet flags;
  flags.DefineInt("port", 0, "TCP port to listen on (0 = ephemeral)");
  flags.DefineString("table", "default", "table this node hosts");
  flags.DefineString("role", "primary", "primary | secondary");
  flags.DefineString("name", "node", "node name (for logs)");
  flags.DefineInt("primary_port", 0,
                  "port of the primary to replicate from (secondaries)");
  flags.DefineInt("pull_period_ms", 60000, "replication pull period");
  flags.DefineString("data_dir", "",
                     "directory for WAL + checkpoints (empty = in-memory)");
  flags.DefineBool("fsync_every_write", false,
                   "fdatasync the WAL after every write");
  flags.DefineBool("group_commit", false,
                   "batch WAL fsyncs: mutation acks wait for a shared "
                   "fdatasync (durable nodes; implies crash safety for every "
                   "acked write at a fraction of the fsync count)");
  flags.DefineInt("group_commit_batch", 64,
                  "max acks per group-commit fsync (with --group_commit)");
  flags.DefineInt("group_commit_delay_us", 2000,
                  "max time a mutation ack waits for its batch fsync");
  flags.DefineInt("loop_threads", 2, "transport event-loop threads");
  flags.DefineInt("pull_batch", 0,
                  "max versions per replication pull reply (0 = unlimited); "
                  "large syncs stream in batches of this size");
  flags.DefineBool("verbose", false, "log at INFO level");
  flags.DefineInt("stats_period_s", 0,
                  "print a telemetry summary every N seconds (0 = off)");
  flags.DefineInt("admit_ops_per_sec", 0,
                  "per-tenant admission rate in ops/s (0 = admission off)");
  flags.DefineInt("admit_burst", 16,
                  "admission bucket burst in ops (with --admit_ops_per_sec)");
  flags.DefineInt("admit_queue", 32,
                  "admission max backlog in ops (with --admit_ops_per_sec)");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  if (flags.GetBool("verbose")) {
    SetLogLevel(LogLevel::kInfo);
  }
  const std::string role = flags.GetString("role");
  if (role != "primary" && role != "secondary") {
    std::fprintf(stderr, "--role must be 'primary' or 'secondary'\n");
    return 2;
  }
  const std::string data_dir = flags.GetString("data_dir");
  if (data_dir.empty() &&
      (flags.GetBool("group_commit") || flags.GetBool("fsync_every_write"))) {
    std::fprintf(stderr,
                 "--group_commit and --fsync_every_write need --data_dir\n");
    return 2;
  }
  if (role == "primary" && flags.GetInt("primary_port") > 0) {
    std::fprintf(stderr, "--primary_port is for --role secondary\n");
    return 2;
  }
  const std::string table = flags.GetString("table");

  signal(SIGINT, HandleSignal);
  signal(SIGTERM, HandleSignal);

  server::NodeHost::Options options;
  options.port = static_cast<uint16_t>(flags.GetInt("port"));
  options.table = table;
  options.is_primary = role == "primary";
  options.name = flags.GetString("name");
  options.primary_port = static_cast<uint16_t>(flags.GetInt("primary_port"));
  options.pull_period_us =
      MillisecondsToMicroseconds(flags.GetInt("pull_period_ms"));
  options.data_dir = data_dir;
  options.fsync_every_write = flags.GetBool("fsync_every_write");
  options.group_commit.enabled = flags.GetBool("group_commit");
  options.group_commit.max_batch =
      static_cast<size_t>(flags.GetInt("group_commit_batch"));
  options.group_commit.max_delay_us = flags.GetInt("group_commit_delay_us");
  options.loop_threads = static_cast<int>(flags.GetInt("loop_threads"));
  options.pull_batch = static_cast<uint32_t>(flags.GetInt("pull_batch"));
  if (flags.GetInt("admit_ops_per_sec") > 0) {
    // Per-tenant token buckets with utility-weighted shedding (DESIGN.md
    // Section 11).
    storage::AdmissionOptions admission;
    admission.tenant_ops_per_sec =
        static_cast<double>(flags.GetInt("admit_ops_per_sec"));
    admission.tenant_burst_ops =
        static_cast<double>(flags.GetInt("admit_burst"));
    admission.tenant_max_queue_ops =
        static_cast<double>(flags.GetInt("admit_queue"));
    options.admission = admission;
  }
  // `pileus_cli stats` scrapes this registry over the regular port.
  options.metrics = &telemetry::MetricsRegistry::Default();

  // An empty data directory is a first start: nothing is recovered from it.
  std::error_code dir_error;
  const bool first_start =
      !data_dir.empty() && std::filesystem::is_empty(data_dir, dir_error);

  server::NodeHost host(std::move(options));
  if (Status st = host.Start(); !st.ok()) {
    std::fprintf(stderr, "failed to start: %s\n", st.ToString().c_str());
    return 1;
  }
  if (first_start) {
    std::printf("created 1 tablet(s) in the empty data directory %s\n",
                data_dir.c_str());
  } else if (const persist::DurableTablet* tablet = host.durable_tablet()) {
    const auto& recovery = tablet->recovery_info();
    std::printf("recovered 1 tablet(s): %llu checkpoint + %llu WAL "
                "versions%s\n",
                static_cast<unsigned long long>(recovery.checkpoint_versions),
                static_cast<unsigned long long>(recovery.wal_versions),
                recovery.wal_tail_torn ? " (torn WAL tail discarded)" : "");
    if (auto map = host.node()->InstalledTabletMap(table)) {
      std::printf("journaled placement re-installed, fenced: %s\n",
                  map->ToString().c_str());
    }
  }
  std::printf("%s '%s' serving table '%s' on 127.0.0.1:%u (%s)\n",
              role.c_str(), flags.GetString("name").c_str(), table.c_str(),
              host.port(), data_dir.empty() ? "in-memory" : "durable");
  if (role == "secondary" && flags.GetInt("primary_port") > 0) {
    std::printf("replicating from 127.0.0.1:%lld every %lld ms\n",
                static_cast<long long>(flags.GetInt("primary_port")),
                static_cast<long long>(flags.GetInt("pull_period_ms")));
  }
  std::fflush(stdout);

  const long long stats_period_s = flags.GetInt("stats_period_s");
  MicrosecondCount next_stats_us =
      stats_period_s > 0
          ? RealClock::Instance()->NowMicros() +
                SecondsToMicroseconds(stats_period_s)
          : 0;
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (stats_period_s > 0 &&
        RealClock::Instance()->NowMicros() >= next_stats_us) {
      next_stats_us += SecondsToMicroseconds(stats_period_s);
      std::printf(
          "--- telemetry ---\n%s",
          telemetry::ExportSummary(telemetry::MetricsRegistry::Default())
              .c_str());
      std::fflush(stdout);
    }
  }
  // The threads that serve and replicate stop first: the request count is
  // theirs to write until then.
  const Status stopped = host.Stop();
  std::printf("shutting down (%llu requests served)\n",
              static_cast<unsigned long long>(host.node()->requests_served()));
  if (!stopped.ok()) {
    std::fprintf(stderr, "shutdown checkpoint failed: %s\n",
                 stopped.ToString().c_str());
    return 1;
  }
  return 0;
}
