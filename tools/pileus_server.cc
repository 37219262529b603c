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
// Stops cleanly on SIGINT/SIGTERM.

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/monitoring/aggregator.h"
#include "src/monitoring/service.h"
#include "src/net/tcp.h"
#include "src/persist/durable_service.h"
#include "src/persist/durable_tablet.h"
#include "src/replication/replication_agent.h"
#include "src/storage/storage_node.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "tools/flags.h"

using namespace pileus;  // NOLINT

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int /*signum*/) { g_stop.store(true); }

Result<proto::SyncReply> SyncOverChannel(net::Channel& channel,
                                         const proto::SyncRequest& request) {
  Result<proto::Message> reply =
      channel.Call(request, SecondsToMicroseconds(30));
  if (!reply.ok()) {
    return reply.status();
  }
  if (const auto* err = std::get_if<proto::ErrorReply>(&reply.value())) {
    return Status(err->code, err->message);
  }
  if (auto* sync = std::get_if<proto::SyncReply>(&reply.value())) {
    return std::move(*sync);
  }
  return Status(StatusCode::kInternal, "unexpected reply type for sync");
}

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
                  "per-tenant admission rate in ops/s (0 = admission off; "
                  "in-memory nodes only)");
  flags.DefineInt("admit_burst", 16,
                  "admission bucket burst in ops (with --admit_ops_per_sec)");
  flags.DefineInt("admit_queue", 32,
                  "admission max backlog in ops (with --admit_ops_per_sec)");
  flags.DefineBool("aggregator", false,
                   "embed a shared-monitoring aggregator: MonitorReport / "
                   "DigestSubscribe on this port (DESIGN.md Section 12)");
  flags.DefineInt("self_report_period_ms", 5000,
                  "aggregator self-report period (with --aggregator; "
                  "in-memory nodes only)");
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
  const bool is_primary = role == "primary";
  const std::string table = flags.GetString("table");

  signal(SIGINT, HandleSignal);
  signal(SIGTERM, HandleSignal);

  // --- Storage: durable or in-memory ---
  net::Handler handler;
  std::unique_ptr<persist::DurableTablet> durable;
  std::unique_ptr<persist::DurableStorageService> durable_service;
  std::unique_ptr<storage::StorageNode> node;
  storage::Tablet* tablet = nullptr;

  if (const std::string data_dir = flags.GetString("data_dir");
      !data_dir.empty()) {
    persist::DurableTablet::Options options;
    options.directory = data_dir;
    options.tablet.is_primary = is_primary;
    options.sync_every_append = flags.GetBool("fsync_every_write");
    Result<std::unique_ptr<persist::DurableTablet>> opened =
        persist::DurableTablet::Open(options, RealClock::Instance());
    if (!opened.ok()) {
      std::fprintf(stderr, "failed to open data dir: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    durable = std::move(opened).value();
    const auto& recovery = durable->recovery_info();
    std::printf("recovered: %llu checkpoint + %llu WAL versions%s\n",
                static_cast<unsigned long long>(recovery.checkpoint_versions),
                static_cast<unsigned long long>(recovery.wal_versions),
                recovery.wal_tail_torn ? " (torn WAL tail discarded)" : "");
    tablet = &durable->tablet();
    persist::GroupCommitConfig group_commit;
    group_commit.enabled = flags.GetBool("group_commit");
    group_commit.max_batch =
        static_cast<size_t>(flags.GetInt("group_commit_batch"));
    group_commit.max_delay_us = flags.GetInt("group_commit_delay_us");
    durable_service = std::make_unique<persist::DurableStorageService>(
        table, durable.get(), group_commit);
    // Dynamic tablets (DESIGN.md Section 14): serve the tablet-map view and
    // CLI splits, re-opening any children recorded by earlier splits.
    if (Status dynamic = durable_service->EnableDynamicTablets(
            options, RealClock::Instance());
        !dynamic.ok()) {
      std::fprintf(stderr, "dynamic tablets: %s\n",
                   dynamic.ToString().c_str());
      return 1;
    }
    if (const size_t hosted = durable_service->tablet_count(); hosted > 1) {
      std::printf("hosting %zu tablets (recovered split children)\n", hosted);
    }
    if (group_commit.enabled) {
      std::printf("group commit: batch %lld, delay %lld us\n",
                  static_cast<long long>(flags.GetInt("group_commit_batch")),
                  static_cast<long long>(
                      flags.GetInt("group_commit_delay_us")));
    }
    handler = [service = durable_service.get()](const proto::Message& m) {
      return service->Handle(m);
    };
  } else {
    node = std::make_unique<storage::StorageNode>(
        flags.GetString("name"), "local", RealClock::Instance());
    node->EnableTelemetry(&telemetry::MetricsRegistry::Default());
    storage::Tablet::Options options;
    options.is_primary = is_primary;
    if (Status st = node->AddTablet(table, options); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    tablet = node->FindTablet(table, "");
    if (flags.GetInt("admit_ops_per_sec") > 0) {
      // Overload control (DESIGN.md Section 11): per-tenant token buckets
      // with utility-weighted shedding. The shed/queue-delay counters show
      // up in `pileus_cli stats` via the telemetry registry.
      storage::AdmissionOptions admission;
      admission.tenant_ops_per_sec =
          static_cast<double>(flags.GetInt("admit_ops_per_sec"));
      admission.tenant_burst_ops =
          static_cast<double>(flags.GetInt("admit_burst"));
      admission.tenant_max_queue_ops =
          static_cast<double>(flags.GetInt("admit_queue"));
      node->EnableAdmission(admission);
      std::printf("admission: %lld ops/s per tenant (burst %lld, queue %lld)\n",
                  static_cast<long long>(flags.GetInt("admit_ops_per_sec")),
                  static_cast<long long>(flags.GetInt("admit_burst")),
                  static_cast<long long>(flags.GetInt("admit_queue")));
    }
    handler = [raw = node.get()](const proto::Message& m) {
      return raw->Handle(m);
    };
  }
  if (durable && flags.GetInt("admit_ops_per_sec") > 0) {
    std::fprintf(stderr,
                 "warning: --admit_ops_per_sec is ignored with --data_dir "
                 "(admission runs on in-memory nodes only)\n");
  }

  // Scrape endpoint: a StatsRequest on the regular port answers with this
  // process's metrics registry rendered in the requested format, so
  // `pileus_cli stats` (or any codec-speaking scraper) works against both the
  // durable and in-memory paths without a second listener.
  handler = [inner = std::move(handler)](const proto::Message& m) {
    if (const auto* stats = std::get_if<proto::StatsRequest>(&m)) {
      proto::StatsReply reply;
      reply.text =
          telemetry::ExportAs(telemetry::MetricsRegistry::Default(),
                              stats->format);
      return proto::Message(std::move(reply));
    }
    return inner(m);
  };

  // Embedded shared-monitoring aggregator (DESIGN.md Section 12): monitoring
  // messages on the regular port are routed to the aggregator; everything
  // else falls through to the storage handler.
  std::unique_ptr<monitoring::MonitorAggregator> aggregator;
  std::unique_ptr<monitoring::AggregatorService> aggregator_service;
  if (flags.GetBool("aggregator")) {
    aggregator = std::make_unique<monitoring::MonitorAggregator>(
        RealClock::Instance());
    aggregator_service = std::make_unique<monitoring::AggregatorService>(
        aggregator.get(), &telemetry::MetricsRegistry::Default());
    handler = aggregator_service->Wrap(std::move(handler));
    std::printf("aggregator: enabled (MonitorReport / DigestSubscribe)\n");
  }

  // --- Transport ---
  net::TcpServer server;
  net::TcpServer::Options server_options;
  server_options.loop_threads =
      static_cast<int>(flags.GetInt("loop_threads"));
  Status listen_status;
  if (durable_service != nullptr) {
    // Durable storage goes through the async path so a group-commit ack can
    // be deferred until its batch fsync without parking a loop thread;
    // stats/monitoring messages stay on the synchronous wrapper chain.
    auto* service = durable_service.get();
    net::AsyncHandler async_handler =
        [service, sync = handler](const proto::Message& m,
                                  std::function<void(proto::Message)> done) {
          if (std::holds_alternative<proto::StatsRequest>(m) ||
              std::holds_alternative<proto::MonitorReport>(m) ||
              std::holds_alternative<proto::DigestSubscribe>(m)) {
            done(sync(m));
            return;
          }
          service->HandleAsync(m, std::move(done));
        };
    listen_status =
        server.StartAsync(static_cast<uint16_t>(flags.GetInt("port")),
                          std::move(async_handler), server_options);
  } else {
    listen_status = server.Start(
        static_cast<uint16_t>(flags.GetInt("port")), handler, server_options);
  }
  if (!listen_status.ok()) {
    std::fprintf(stderr, "failed to listen: %s\n",
                 listen_status.ToString().c_str());
    return 1;
  }
  std::printf("%s '%s' serving table '%s' on 127.0.0.1:%u (%s)\n",
              role.c_str(), flags.GetString("name").c_str(), table.c_str(),
              server.port(), durable ? "durable" : "in-memory");
  std::fflush(stdout);

  // --- Replication (secondaries) ---
  std::unique_ptr<storage::Tablet> shadow;
  std::unique_ptr<replication::ReplicationAgent> agent;
  std::unique_ptr<replication::ThreadedPuller> puller;
  std::unique_ptr<net::TcpChannel> sync_channel;
  if (!is_primary && flags.GetInt("primary_port") > 0) {
    replication::ReplicationAgent::Options agent_options{.table = table};
    agent_options.max_versions_per_pull =
        static_cast<uint32_t>(flags.GetInt("pull_batch"));
    // In memory, the served tablet is written only under the node's lock
    // (the server thread reads it concurrently): the agent tracks pull
    // progress on a private shadow tablet instead.
    storage::Tablet* progress_tablet = tablet;
    if (node) {
      shadow = std::make_unique<storage::Tablet>(storage::Tablet::Options{},
                                                 RealClock::Instance());
      progress_tablet = shadow.get();
    }
    agent = std::make_unique<replication::ReplicationAgent>(progress_tablet,
                                                            agent_options);
    agent->EnableTelemetry(&telemetry::MetricsRegistry::Default(),
                           flags.GetString("name"));
    sync_channel = std::make_unique<net::TcpChannel>(
        static_cast<uint16_t>(flags.GetInt("primary_port")));
    auto* channel = sync_channel.get();
    auto* durable_ptr = durable.get();
    auto* service_ptr = durable_service.get();
    auto* node_ptr = node.get();
    auto* tablet_ptr = tablet;
    puller = std::make_unique<replication::ThreadedPuller>(
        agent.get(),
        [channel, durable_ptr, service_ptr, node_ptr,
         tablet_ptr](const proto::SyncRequest& request)
            -> Result<proto::SyncReply> {
          Result<proto::SyncReply> reply = SyncOverChannel(*channel, request);
          if (!reply.ok()) {
            return reply;
          }
          if (node_ptr != nullptr) {
            // Apply to the served tablet under the node's lock and hand the
            // agent only the progress.
            node_ptr->WithLock([&] { tablet_ptr->ApplySync(*reply); });
            if (!reply->versions.empty()) {
              reply->heartbeat =
                  std::max(reply->heartbeat, reply->versions.back().timestamp);
              reply->versions.clear();
            }
            return reply;
          }
          // Durable: journal and apply here, then return an empty reply so
          // the agent (whose target is the served tablet) applies nothing
          // twice.
          Status st = durable_ptr->ApplySync(reply.value());
          if (!st.ok()) {
            return st;
          }
          // One durability barrier covers the whole applied batch (a shared
          // group-commit fsync when enabled, inline otherwise).
          if (!reply->versions.empty() && service_ptr != nullptr) {
            st = service_ptr->SyncNow();
            if (!st.ok()) {
              return st;
            }
          }
          proto::SyncReply applied;
          applied.heartbeat = tablet_ptr->high_timestamp();
          applied.has_more = reply->has_more;
          return applied;
        },
        MillisecondsToMicroseconds(flags.GetInt("pull_period_ms")));
    std::printf("replicating from 127.0.0.1:%lld every %lld ms\n",
                static_cast<long long>(flags.GetInt("primary_port")),
                static_cast<long long>(flags.GetInt("pull_period_ms")));
    std::fflush(stdout);
  }

  const long long stats_period_s = flags.GetInt("stats_period_s");
  MicrosecondCount next_stats_us =
      stats_period_s > 0
          ? RealClock::Instance()->NowMicros() +
                SecondsToMicroseconds(stats_period_s)
          : 0;
  // Periodic self-report into the embedded aggregator: the node's own high
  // timestamp and queue delay join the fleet digest even before any client
  // reports. The in-memory path asks the StorageNode (which also knows its
  // admission queue delay); the durable path reads the tablet directly.
  const MicrosecondCount self_report_period_us = MillisecondsToMicroseconds(
      flags.GetInt("self_report_period_ms"));
  MicrosecondCount next_self_report_us = 0;
  uint64_t self_report_seq = 0;
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (aggregator && tablet && self_report_period_us > 0 &&
        RealClock::Instance()->NowMicros() >= next_self_report_us) {
      next_self_report_us =
          RealClock::Instance()->NowMicros() + self_report_period_us;
      monitoring::NodeCondition cond;
      if (node) {
        cond = node->SelfCondition(table);
      } else {
        cond.node = flags.GetString("name");
        cond.high_timestamp = tablet->high_timestamp();
        cond.high_age_us = 0;  // Measured this instant.
      }
      aggregator->Ingest("self:" + flags.GetString("name"), ++self_report_seq,
                         {std::move(cond)});
    }
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
  // Stop the threads that serve and replicate first: the request count is
  // theirs to write until then.
  if (puller) {
    puller->Stop();
  }
  server.Stop();
  std::printf("shutting down (%llu requests served)\n",
              static_cast<unsigned long long>(
                  durable_service ? durable_service->requests_served()
                                  : node->requests_served()));
  if (durable) {
    (void)durable->Checkpoint();
  }
  return 0;
}
