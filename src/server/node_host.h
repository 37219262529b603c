// The one way a storage node is assembled. RecoverTablets is the restart
// path of every durable node, simulated or real; NodeHost is a node served
// over TCP, as pileus_server and the loopback-TCP audit deployment run it.

#ifndef PILEUS_SRC_SERVER_NODE_HOST_H_
#define PILEUS_SRC_SERVER_NODE_HOST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/net/tcp.h"
#include "src/persist/durable_tablet.h"
#include "src/persist/group_commit.h"
#include "src/replication/replication_agent.h"
#include "src/storage/admission.h"
#include "src/storage/storage_node.h"
#include "src/telemetry/metrics.h"

namespace pileus::server {

// Opens the tablet of the data root `options.directory` (creating it from
// `options.tablet` when the root holds none; see durable_tablet.h) and
// hosts it on `node`. Re-installs the placement it journaled with an
// already-expired lease: one entry (its range and last config), with the
// journaled epoch as the map version. So a node deposed before it crashed
// comes back deposed, and one that led stays fenced until a map install
// re-leases it (paper Section 6.2). Without a journaled config nothing is
// installed and `options.tablet` sets the role. A journaled placement whose
// range does not tile the key space fails with kCorruption.
Result<std::unique_ptr<persist::DurableTablet>> RecoverTablets(
    storage::StorageNode* node, std::string_view table,
    const persist::DurableTablet::Options& options, Clock* clock);

// A durable GeoTestbed node: RecoverTablets on `root` (made when missing),
// with checkpoints off. A fresh root starts with `tablet`.
Result<std::unique_ptr<persist::DurableTablet>> OpenDurableNode(
    storage::StorageNode* node, std::string_view table,
    const std::string& root, storage::Tablet::Options tablet, Clock* clock);

class NodeHost {
 public:
  // One field per pileus_server flag (the flag name in the comment).
  struct Options {
    uint16_t port = 0;                 // --port (0 = ephemeral)
    std::string table = "default";     // --table
    bool is_primary = true;            // --role
    std::string name = "node";         // --name
    uint16_t primary_port = 0;         // --primary_port (secondaries)
    MicrosecondCount pull_period_us =  // --pull_period_ms
        SecondsToMicroseconds(60);
    std::string data_dir;              // --data_dir (empty = in-memory)
    bool fsync_every_write = false;    // --fsync_every_write
    persist::GroupCommitConfig group_commit;  // --group_commit*
    int loop_threads = 2;                     // --loop_threads
    uint32_t pull_batch = 0;                  // --pull_batch
    std::optional<storage::AdmissionOptions> admission;  // --admit_*
    // Registry the node and its replication agent export to, and that a
    // StatsRequest scrapes. Not owned; null = no telemetry.
    telemetry::MetricsRegistry* metrics = nullptr;
  };

  explicit NodeHost(Options options);
  ~NodeHost() { (void)Stop(); }

  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  // Hosts the tablet (recovered from `data_dir`, or in memory), enables
  // admission and group commit and, for a secondary with a `primary_port`,
  // pulls once to catch up (so it never serves a read its high timestamp
  // does not cover) before the periodic pull starts. Listens last.
  Status Start();

  // Stops the puller, the server and the committer, in that order, then
  // checkpoints the durable tablet and returns the first error. Does
  // nothing unless Start succeeded: a node that failed to start (say, on a
  // port another node holding the same data dir serves) leaves the files.
  Status Stop();

  storage::StorageNode* node() { return &node_; }
  uint16_t port() const { return server_.port(); }
  // The durable tablet Start recovered (null in memory).
  const persist::DurableTablet* durable_tablet() const {
    return durable_.get();
  }

 private:
  const Options options_;
  // Declaration order is teardown order, reversed.
  std::unique_ptr<persist::DurableTablet> durable_;
  storage::StorageNode node_;
  std::unique_ptr<persist::GroupCommitter> committer_;
  std::unique_ptr<net::TcpChannel> pull_channel_;  // To the primary.
  std::unique_ptr<replication::ReplicationAgent> agent_;
  std::unique_ptr<replication::ThreadedPuller> puller_;
  net::TcpServer server_;
  bool running_ = false;
};

}  // namespace pileus::server

#endif  // PILEUS_SRC_SERVER_NODE_HOST_H_
