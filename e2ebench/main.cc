// End-to-end benchmark of one Pileus deployment, run inside one process.
//
// Deployment (constants at the top of this file, recorded in
// deployment.json):
//  - Primary: DurableTablet + DurableStorageService with WAL group commit,
//    served by TcpServer::StartAsync.
//  - Secondary: an in-memory StorageNode on its own TcpServer, fed by a
//    ThreadedPuller at a fixed pull period.
//  - The client->primary and secondary->primary channels carry TcpChannel's
//    artificial one-way delay: the primary sits in a far site, so each SLA
//    class has exactly one best node.
//  - Two closed-loop session threads, "strong" and "relaxed", each a
//    PileusClient. They share one TcpChannel per node and one monitor, as
//    one frontend process would; a ThreadedProber keeps running
//    ProbeStaleNodes. Client cache, admission control and tablets stay off.
//
// A run sets the deployment up several times and reports the median set-up
// time, measures one timed window, then checks correctness: every acked
// write survives a reopen of the primary's directory, the secondary catches
// up after a final pull, and each session class stayed on its node. With
// --trace 1 the wrappers in this file record spans around the calls into
// core (client ops), net (node connections, raw probes), storage (the
// secondary's handler and sync apply), persist (the primary's HandleAsync
// and its deferred ack) and replication (the pull), and the per-layer
// metrics come from those spans. The last stdout line is the result JSON.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "e2ebench/checks.h"
#include "e2ebench/spans.h"
#include "e2ebench/stats.h"
#include "src/core/client.h"
#include "src/core/connection.h"
#include "src/core/prober.h"
#include "src/core/sla.h"
#include "src/net/tcp.h"
#include "src/persist/durable_service.h"
#include "src/persist/durable_tablet.h"
#include "src/replication/replication_agent.h"
#include "src/storage/storage_node.h"
#include "src/workload/ycsb.h"

namespace e2ebench {
namespace {

using namespace pileus;  // NOLINT

constexpr char kTable[] = "bench";
constexpr char kPrimaryName[] = "primary";
constexpr char kSecondaryName[] = "secondary";
constexpr MicrosecondCount kCallTimeoutUs = SecondsToMicroseconds(10);

// ---------------------------------------------------------------------------
// The fixed deployment. deployment.json records these values with the rest
// of the set-up; the two must agree.

constexpr MicrosecondCount kOneWayDelayUs = 1000;  // To the far primary.
constexpr MicrosecondCount kPullPeriodUs = 10000;
// GroupCommitter's defaults, stated so that a change of defaults does not
// change what the benchmark measures.
constexpr size_t kGroupCommitMaxBatch = 64;
constexpr MicrosecondCount kGroupCommitMaxDelayUs = 2000;
constexpr uint64_t kCheckpointThresholdBytes = 8 << 20;
constexpr MicrosecondCount kProbeCheckPeriodUs = 100000;  // ProbeStaleNodes.
constexpr MicrosecondCount kSamplePeriodUs = 5000;  // Traced-run sampler.

constexpr int kKeyCount = 10000;
constexpr double kZipfTheta = 0.7;
constexpr int kOpsPerSession = 400;
constexpr uint32_t kRangeLimit = 50;

// Set-up: every key written kPreloadRounds times with kPreloadInFlight Puts
// pipelined, kProbeFillThreads probing threads to fill the monitor, then
// kWarmupOps untimed ops per class; repeated kSetupRepeats times.
constexpr int kPreloadInFlight = 64;
constexpr int kPreloadRounds = 2;
constexpr int kProbeFillThreads = 64;
constexpr int kWarmupOps = 20;
constexpr int kSetupRepeats = 5;

struct WorkloadSpec {
  const char* name;
  double read_fraction;
  bool reads_are_ranges;  // GetRange of kRangeLimit keys instead of Get.
  int value_size;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"read_mostly", 0.95, false, 100},
    {"write_heavy", 0.5, false, 1024},
    {"scan", 0.9, true, 100},
};

// Password-style: served by the primary. Every SLA ends in an eventual 2 s
// tail, so a slow reply lowers utility instead of failing the op.
const core::Sla& StrongSla() {
  static const core::Sla sla =
      core::Sla()
          .Add(core::Guarantee::Strong(), MillisecondsToMicroseconds(5), 1.0)
          .Add(core::Guarantee::Eventual(), MillisecondsToMicroseconds(1), 0.5)
          .Add(core::Guarantee::Strong(), MillisecondsToMicroseconds(50), 0.25)
          .Add(core::Guarantee::Eventual(), SecondsToMicroseconds(2), 0.1);
  return sla;
}

// Shopping-cart-style: served by the near secondary.
const core::Sla& RelaxedSla() {
  static const core::Sla sla =
      core::Sla()
          .Add(core::Guarantee::ReadMyWrites(), MillisecondsToMicroseconds(1),
               1.0)
          .Add(core::Guarantee::Eventual(), MillisecondsToMicroseconds(1), 0.5)
          .Add(core::Guarantee::Eventual(), SecondsToMicroseconds(2), 0.1);
  return sla;
}

// What varies between runs.
struct Config {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;    // Scratch space for the primary's data.
  std::string spans_path;  // Where the traced run writes its spans.
};

std::optional<Config> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    flags[argv[i]] = argv[i + 1];
  }
  bool ok = argc % 2 == 1 && flags.size() == 6;
  for (const char* name : {"--workload", "--seed", "--seconds", "--trace",
                           "--work_dir", "--spans_out"}) {
    ok = ok && !flags[name].empty();
  }
  Config c;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (flags["--workload"] == spec.name) {
      c.workload = &spec;
    }
  }
  c.seed = std::strtoull(flags["--seed"].c_str(), nullptr, 10);
  c.seconds = std::strtod(flags["--seconds"].c_str(), nullptr);
  c.trace = flags["--trace"] == "1";
  c.work_dir = flags["--work_dir"];
  c.spans_path = flags["--spans_out"];
  if (!ok || c.workload == nullptr || c.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload read_mostly|write_heavy|scan "
                 "--seed N --seconds S --trace 0|1 --work_dir DIR "
                 "--spans_out FILE\n");
    return std::nullopt;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Span names: string literals, one per (layer, operation, node).

const char* CallSpanName(const proto::Message& m, bool primary) {
  if (std::holds_alternative<proto::GetRequest>(m)) {
    return primary ? "net.call.get.primary" : "net.call.get.secondary";
  }
  if (std::holds_alternative<proto::PutRequest>(m)) {
    return primary ? "net.call.put.primary" : "net.call.put.secondary";
  }
  if (std::holds_alternative<proto::RangeRequest>(m)) {
    return primary ? "net.call.range.primary" : "net.call.range.secondary";
  }
  if (std::holds_alternative<proto::ProbeRequest>(m)) {
    return primary ? "net.call.probe.primary" : "net.call.probe.secondary";
  }
  return primary ? "net.call.other.primary" : "net.call.other.secondary";
}

const char* StorageSpanName(const proto::Message& m) {
  if (std::holds_alternative<proto::GetRequest>(m)) {
    return "storage.handle.get";
  }
  if (std::holds_alternative<proto::RangeRequest>(m)) {
    return "storage.handle.range";
  }
  if (std::holds_alternative<proto::ProbeRequest>(m)) {
    return "storage.handle.probe";
  }
  return "storage.handle.other";
}

const char* PersistSpanName(const proto::Message& m) {
  if (std::holds_alternative<proto::GetRequest>(m)) {
    return "persist.handle.get";
  }
  if (std::holds_alternative<proto::PutRequest>(m)) {
    return "persist.handle.put";
  }
  if (std::holds_alternative<proto::RangeRequest>(m)) {
    return "persist.handle.range";
  }
  if (std::holds_alternative<proto::ProbeRequest>(m)) {
    return "persist.handle.probe";
  }
  if (std::holds_alternative<proto::SyncRequest>(m)) {
    return "persist.handle.sync";
  }
  return "persist.handle.other";
}

void RecordTimed(const char* name, int64_t start_ns, int64_t end_ns,
                 int64_t value = 0, uint64_t parent = 0, uint64_t op_id = 0) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.op_id = op_id;
  span.value = value;
  RecordSpan(span);
}

// Timing decorator the traced run puts between PileusClient and each
// node's ChannelConnection: one span per call, nested under the current op.
class TracedConnection : public core::NodeConnection {
 public:
  TracedConnection(std::shared_ptr<core::NodeConnection> inner, bool primary)
      : inner_(std::move(inner)), primary_(primary) {}

  core::TimedReply Call(const proto::Message& request,
                        MicrosecondCount timeout_us) override {
    const int64_t start = NowNs();
    core::TimedReply reply = inner_->Call(request, timeout_us);
    RecordTimed(CallSpanName(request, primary_), start, NowNs(), 0,
                CurrentOp(), CurrentOp());
    return reply;
  }

 private:
  std::shared_ptr<core::NodeConnection> inner_;
  const bool primary_;
};

Result<proto::Message> CallChecked(net::Channel& channel,
                                   const proto::Message& request) {
  Result<proto::Message> reply = channel.Call(request, kCallTimeoutUs);
  if (!reply.ok()) {
    return reply.status();
  }
  if (const auto* err = std::get_if<proto::ErrorReply>(&reply.value())) {
    return Status(err->code, err->message);
  }
  return reply;
}

std::string PreloadValue(uint64_t seed, int round, int index, int size) {
  std::string value = "pre-" + std::to_string(seed) + "-" +
                      std::to_string(round) + "-" + std::to_string(index) +
                      "-";
  value.resize(std::max<size_t>(value.size(), static_cast<size_t>(size)),
               static_cast<char>('a' + index % 26));
  return value;
}

uint64_t ProcessDiskWriteBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "write_bytes:") {
      return value;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The deployment

class Deployment {
 public:
  Deployment(const Config& config, std::string directory)
      : config_(config), directory_(std::move(directory)) {}
  ~Deployment() { Stop(); }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  Status Start();
  Status Preload(AckLog* acked);
  // Blocking catch-up pull, then the periodic puller and the prober.
  Status CatchUp();

  // After the timed window: stops background pulls and probes, reads the
  // primary's high timestamp, and runs one more blocking pull.
  Status FinalPull(Timestamp* primary_high, Timestamp* secondary_high);
  CheckResult CheckSecondary(const AckLog& acked);
  // Stops servers and closes the primary's files. Idempotent.
  void Stop();

  core::PileusClient& strong() { return *strong_; }
  core::PileusClient& relaxed() { return *relaxed_; }
  core::Monitor& monitor() { return monitor_; }
  net::TcpChannel& raw_primary() { return *raw_primary_; }
  net::TcpChannel& raw_secondary() { return *raw_secondary_; }
  const std::string& primary_dir() const { return primary_dir_; }

  struct Counters {
    uint64_t messages = 0;
    uint64_t syncs = 0;
    uint64_t acked = 0;
    uint64_t disk_write_bytes = 0;
    uint64_t versions_pulled = 0;
    uint64_t pulls = 0;
  };
  Counters ReadCounters() const;

 private:
  net::AsyncHandler PrimaryHandler();
  net::Handler SecondaryHandler();
  Result<proto::SyncReply> Pull(const proto::SyncRequest& request);
  std::shared_ptr<core::NodeConnection> Connection(
      std::shared_ptr<net::TcpChannel> channel, bool primary) const;
  std::unique_ptr<core::PileusClient> MakeClient(uint64_t seed);

  const Config& config_;
  const std::string directory_;
  std::string primary_dir_;
  std::unique_ptr<persist::DurableTablet> durable_;
  std::unique_ptr<persist::DurableStorageService> service_;
  net::TcpServer primary_server_;

  storage::StorageNode secondary_node_{kSecondaryName, "near",
                                       RealClock::Instance()};
  storage::Tablet* secondary_tablet_ = nullptr;
  net::TcpServer secondary_server_;
  // The puller's agent tracks progress on this shadow tablet. Pull() applies
  // each reply to the served secondary tablet under its node's lock and
  // hands the agent only the heartbeat, so pulls never race the reads the
  // secondary is serving.
  storage::Tablet shadow_{storage::Tablet::Options{}, RealClock::Instance()};
  replication::ReplicationAgent agent_{&shadow_, {.table = kTable}};
  std::unique_ptr<net::TcpChannel> pull_channel_;
  std::atomic<uint64_t> versions_pulled_{0};
  std::atomic<uint64_t> pulls_{0};
  std::unique_ptr<replication::ThreadedPuller> puller_;

  std::shared_ptr<net::TcpChannel> to_primary_;    // Delayed (far site).
  std::shared_ptr<net::TcpChannel> to_secondary_;  // Near.
  std::unique_ptr<net::TcpChannel> raw_primary_;   // Undelayed: set-up,
  std::unique_ptr<net::TcpChannel> raw_secondary_;  // checks, sampling.
  core::Monitor monitor_{RealClock::Instance()};
  std::unique_ptr<core::PileusClient> strong_;
  std::unique_ptr<core::PileusClient> relaxed_;
  std::unique_ptr<core::ThreadedProber> prober_;
  bool stopped_ = false;
};

Status Deployment::Start() {
  primary_dir_ = directory_ + "/primary";
  std::error_code error;
  std::filesystem::create_directories(primary_dir_, error);
  if (error) {
    return Status(StatusCode::kInternal,
                  "mkdir " + primary_dir_ + ": " + error.message());
  }
  persist::DurableTablet::Options options;
  options.directory = primary_dir_;
  options.tablet.is_primary = true;
  options.checkpoint_threshold_bytes = kCheckpointThresholdBytes;
  Result<std::unique_ptr<persist::DurableTablet>> opened =
      persist::DurableTablet::Open(options, RealClock::Instance());
  if (!opened.ok()) {
    return opened.status();
  }
  durable_ = std::move(opened).value();
  persist::GroupCommitConfig group_commit;
  group_commit.enabled = true;
  group_commit.max_batch = kGroupCommitMaxBatch;
  group_commit.max_delay_us = kGroupCommitMaxDelayUs;
  service_ = std::make_unique<persist::DurableStorageService>(
      kTable, durable_.get(), group_commit);
  PILEUS_RETURN_IF_ERROR(primary_server_.StartAsync(0, PrimaryHandler()));

  PILEUS_RETURN_IF_ERROR(
      secondary_node_.AddTablet(kTable, storage::Tablet::Options{}));
  secondary_tablet_ = secondary_node_.FindTablet(kTable, "");
  PILEUS_RETURN_IF_ERROR(secondary_server_.Start(0, SecondaryHandler()));

  const uint16_t primary_port = primary_server_.port();
  const uint16_t secondary_port = secondary_server_.port();
  pull_channel_ = std::make_unique<net::TcpChannel>(primary_port,
                                                    kOneWayDelayUs);
  to_primary_ = std::make_shared<net::TcpChannel>(primary_port,
                                                  kOneWayDelayUs);
  to_secondary_ = std::make_shared<net::TcpChannel>(secondary_port);
  raw_primary_ = std::make_unique<net::TcpChannel>(primary_port);
  raw_secondary_ = std::make_unique<net::TcpChannel>(secondary_port);
  strong_ = MakeClient(config_.seed * 2 + 1);
  relaxed_ = MakeClient(config_.seed * 2 + 2);
  return Status();
}

net::AsyncHandler Deployment::PrimaryHandler() {
  persist::DurableStorageService* service = service_.get();
  if (!config_.trace) {
    return [service](const proto::Message& m,
                     std::function<void(proto::Message)> done) {
      service->HandleAsync(m, std::move(done));
    };
  }
  // persist.handle spans run from the HandleAsync call to its return (which
  // includes waiting for the service lock the committer holds through
  // fsync); persist.ack_wait runs from that return to `done`, which for a
  // mutation is the group-commit window plus the fsync.
  return [service](const proto::Message& m,
                   std::function<void(proto::Message)> done) {
    const bool mutation = std::holds_alternative<proto::PutRequest>(m);
    struct AckTiming {
      std::mutex mu;
      int64_t returned_ns = 0;
      int64_t done_ns = 0;
    };
    auto timing = std::make_shared<AckTiming>();
    const int64_t start = NowNs();
    service->HandleAsync(
        m, [timing, mutation, done = std::move(done)](proto::Message reply) {
          if (mutation) {
            std::lock_guard<std::mutex> lock(timing->mu);
            timing->done_ns = NowNs();
            if (timing->returned_ns != 0) {
              RecordTimed("persist.ack_wait", timing->returned_ns,
                          timing->done_ns);
            }
          }
          done(std::move(reply));
        });
    const int64_t returned = NowNs();
    RecordTimed(PersistSpanName(m), start, returned);
    if (mutation) {
      std::lock_guard<std::mutex> lock(timing->mu);
      timing->returned_ns = returned;
      if (timing->done_ns != 0) {  // Acked before HandleAsync returned.
        RecordTimed("persist.ack_wait", returned, returned);
      }
    }
  };
}

net::Handler Deployment::SecondaryHandler() {
  storage::StorageNode* node = &secondary_node_;
  if (!config_.trace) {
    return [node](const proto::Message& m) { return node->Handle(m); };
  }
  return [node](const proto::Message& m) {
    const int64_t start = NowNs();
    proto::Message reply = node->Handle(m);
    const int64_t end = NowNs();
    int64_t reply_bytes = 0;
    if (std::holds_alternative<proto::RangeReply>(reply) && SpansEnabled()) {
      reply_bytes = static_cast<int64_t>(proto::EncodeMessage(reply).size());
    }
    RecordTimed(StorageSpanName(m), start, end, reply_bytes);
    return reply;
  };
}

Result<proto::SyncReply> Deployment::Pull(const proto::SyncRequest& request) {
  const int64_t start = NowNs();
  Result<proto::Message> reply = CallChecked(*pull_channel_, request);
  if (!reply.ok()) {
    return reply.status();
  }
  const auto* sync = std::get_if<proto::SyncReply>(&reply.value());
  if (sync == nullptr) {
    return Status(StatusCode::kInternal, "sync answered with a " +
                                             std::string(proto::MessageTypeName(
                                                 proto::TypeOf(reply.value()))));
  }
  const int64_t apply_start = NowNs();
  secondary_node_.WithLock([&] { secondary_tablet_->ApplySync(*sync); });
  const auto versions = static_cast<int64_t>(sync->versions.size());
  RecordTimed("storage.apply_sync", apply_start, NowNs(), versions);
  versions_pulled_.fetch_add(sync->versions.size(), std::memory_order_relaxed);
  if (!sync->has_more) {
    pulls_.fetch_add(1, std::memory_order_relaxed);
  }
  proto::SyncReply progress;
  progress.heartbeat = sync->heartbeat;
  progress.has_more = sync->has_more;
  progress.config_epoch = sync->config_epoch;
  progress.primary_hint = sync->primary_hint;
  RecordTimed("replication.pull", start, NowNs(), versions);
  return progress;
}

std::shared_ptr<core::NodeConnection> Deployment::Connection(
    std::shared_ptr<net::TcpChannel> channel, bool primary) const {
  auto connection = std::make_shared<core::ChannelConnection>(
      std::move(channel), RealClock::Instance());
  if (!config_.trace) {
    return connection;
  }
  return std::make_shared<TracedConnection>(std::move(connection), primary);
}

std::unique_ptr<core::PileusClient> Deployment::MakeClient(uint64_t seed) {
  core::TableView view;
  view.table_name = kTable;
  view.replicas = {
      core::Replica{kPrimaryName, true, Connection(to_primary_, true)},
      core::Replica{kSecondaryName, false, Connection(to_secondary_, false)}};
  view.primary_index = 0;
  core::PileusClient::Options options;
  options.shared_monitor = &monitor_;
  options.sleep_fn = [](MicrosecondCount us) {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  };
  options.seed = seed;
  return std::make_unique<core::PileusClient>(
      std::move(view), RealClock::Instance(), std::move(options));
}

Status Deployment::Preload(AckLog* acked) {
  // Pipelined Puts straight to the primary's server, every key once per
  // round: group commit batches them the way it batches a busy frontend's
  // writes, and the store starts with a history behind each key.
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    int in_flight = 0;
    Status error;
    std::vector<std::pair<int, Timestamp>> acked;  // (put number, ts)
  };
  auto state = std::make_shared<State>();
  const int puts = kKeyCount * kPreloadRounds;
  for (int n = 0; n < puts; ++n) {
    const int round = n / kKeyCount;
    const int i = n % kKeyCount;
    {
      std::unique_lock<std::mutex> lock(state->mu);
      state->cv.wait(lock, [&] {
        return state->in_flight < kPreloadInFlight;
      });
      if (!state->error.ok()) {
        break;
      }
      ++state->in_flight;
    }
    proto::PutRequest put;
    put.table = kTable;
    put.key = workload::YcsbWorkload::KeyForIndex(static_cast<uint64_t>(i));
    put.value = PreloadValue(config_.seed, round, i, config_.workload->value_size);
    raw_primary_->CallAsync(
        put, kCallTimeoutUs, [state, n](Result<proto::Message> reply) {
          std::lock_guard<std::mutex> lock(state->mu);
          --state->in_flight;
          if (!reply.ok()) {
            state->error = reply.status();
          } else if (const auto* ok =
                         std::get_if<proto::PutReply>(&reply.value())) {
            state->acked.emplace_back(n, ok->timestamp);
          } else if (const auto* err =
                         std::get_if<proto::ErrorReply>(&reply.value())) {
            state->error = Status(err->code, err->message);
          } else {
            state->error = Status(StatusCode::kInternal, "bad put reply");
          }
          state->cv.notify_all();
        });
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->in_flight == 0; });
  for (const auto& [n, timestamp] : state->acked) {
    const int i = n % kKeyCount;
    acked->Record(
        workload::YcsbWorkload::KeyForIndex(static_cast<uint64_t>(i)),
        timestamp,
        PreloadValue(config_.seed, n / kKeyCount, i,
                     config_.workload->value_size));
  }
  return state->error;
}

Status Deployment::CatchUp() {
  const auto sync = [this](const proto::SyncRequest& request) {
    return Pull(request);
  };
  Result<int> pulled = replication::BlockingPuller(&agent_, sync).PullOnce();
  if (!pulled.ok()) {
    return pulled.status();
  }
  puller_ = std::make_unique<replication::ThreadedPuller>(
      &agent_, sync, kPullPeriodUs);
  prober_ = std::make_unique<core::ThreadedProber>(
      strong_.get(), kProbeCheckPeriodUs);
  return Status();
}

Deployment::Counters Deployment::ReadCounters() const {
  Counters c;
  c.messages = strong_->messages_sent() + relaxed_->messages_sent();
  if (const persist::GroupCommitter* committer = service_->group_committer()) {
    c.syncs = committer->syncs();
    c.acked = committer->acked();
  }
  c.disk_write_bytes = ProcessDiskWriteBytes();
  c.versions_pulled = versions_pulled_.load(std::memory_order_relaxed);
  c.pulls = pulls_.load(std::memory_order_relaxed);
  return c;
}

Status Deployment::FinalPull(Timestamp* primary_high,
                             Timestamp* secondary_high) {
  prober_.reset();
  puller_.reset();
  Result<proto::Message> probe =
      CallChecked(*raw_primary_, proto::ProbeRequest{.table = kTable});
  if (!probe.ok()) {
    return probe.status();
  }
  *primary_high = std::get<proto::ProbeReply>(probe.value()).high_timestamp;
  Result<int> pulled =
      replication::BlockingPuller(&agent_, [this](const proto::SyncRequest& r) {
        return Pull(r);
      }).PullOnce();
  if (!pulled.ok()) {
    return pulled.status();
  }
  *secondary_high = secondary_node_.WithLock(
      [&] { return secondary_tablet_->high_timestamp(); });
  return Status();
}

CheckResult Deployment::CheckSecondary(const AckLog& acked) {
  return CheckAckedWrites(acked, [this](std::string_view key) {
    return secondary_node_.WithLock(
        [&] { return secondary_tablet_->HandleGet(key); });
  });
}

void Deployment::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  prober_.reset();
  puller_.reset();
  strong_.reset();
  relaxed_.reset();
  secondary_server_.Stop();
  primary_server_.Stop();
  service_.reset();  // Stops the committer after a final sync.
  durable_.reset();
}

// ---------------------------------------------------------------------------
// Session threads

enum class SessionClass { kStrong, kRelaxed };

struct ClassRun {
  std::vector<OpSample> samples;  // Completed ops.
  ReadTally tally;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failures;  // By status code.
  AckLog acked;
  uint64_t user_bytes_written = 0;
};

// One closed-loop session thread: the next op starts when the previous one
// returned. Stops after `op_limit` ops, or at `deadline_ns` when op_limit is
// 0.
void RunClass(core::PileusClient& client, SessionClass session_class,
              const Config& config, uint64_t stream_seed, uint64_t op_limit,
              int64_t deadline_ns, ClassRun* out) {
  const bool strong = session_class == SessionClass::kStrong;
  const core::Sla& sla = strong ? StrongSla() : RelaxedSla();
  const char* read_span = config.workload->reads_are_ranges
                              ? (strong ? "op.range.strong" : "op.range.relaxed")
                              : (strong ? "op.get.strong" : "op.get.relaxed");
  const char* write_span = strong ? "op.put.strong" : "op.put.relaxed";

  workload::WorkloadOptions options;
  options.key_count = kKeyCount;
  options.read_fraction = config.workload->read_fraction;
  options.zipf_theta = kZipfTheta;
  options.ops_per_session = kOpsPerSession;
  options.value_size = config.workload->value_size;
  options.think_time_us = 0;
  options.seed = stream_seed;
  workload::YcsbWorkload workload(options);

  std::optional<core::Session> session;
  for (uint64_t n = 0;; ++n) {
    if (op_limit != 0 ? n >= op_limit : NowNs() >= deadline_ns) {
      break;
    }
    const workload::Operation op = workload.Next();
    if (op.starts_new_session || !session.has_value()) {
      Result<core::Session> begun = client.BeginSession(sla);
      if (!begun.ok()) {
        ++out->attempted;
        ++out->failed;
        ++out->failures[std::string(StatusCodeName(begun.status().code()))];
        continue;
      }
      session.emplace(std::move(begun).value());
    }
    const uint64_t op_id = config.trace ? NextSpanId() : 0;
    SetCurrentOp(op_id);
    const int64_t start = NowNs();
    Status status;
    const core::GetOutcome* outcome = nullptr;
    Result<core::RangeResult> range(StatusCode::kInternal, "not run");
    Result<core::GetResult> got(StatusCode::kInternal, "not run");
    if (op.is_get && config.workload->reads_are_ranges) {
      range = client.GetRange(*session, op.key, "", kRangeLimit);
      if (range.ok()) {
        outcome = &range->outcome;
      } else {
        status = range.status();
      }
    } else if (op.is_get) {
      got = client.Get(*session, op.key);
      if (got.ok()) {
        outcome = &got->outcome;
      } else {
        status = got.status();
      }
    } else {
      Result<core::PutResult> put = client.Put(*session, op.key, op.value);
      if (put.ok()) {
        out->acked.Record(op.key, put->timestamp, op.value);
        out->user_bytes_written += op.key.size() + op.value.size();
      } else {
        status = put.status();
      }
    }
    const int64_t end = NowNs();
    SetCurrentOp(0);
    if (config.trace) {
      Span span;
      span.name = op.is_get ? read_span : write_span;
      span.start_ns = start;
      span.end_ns = end;
      span.id = op_id;  // Connection spans name it as their parent.
      span.op_id = op_id;
      RecordSpan(span);
    }
    ++out->attempted;
    if (!status.ok()) {
      ++out->failed;
      ++out->failures[std::string(StatusCodeName(status.code()))];
      continue;
    }
    OpSample sample;
    sample.end_ns = end;
    sample.latency_us = static_cast<double>(end - start) / 1e3;
    sample.strong = strong;
    sample.read = op.is_get;
    if (outcome != nullptr) {
      out->tally.Record(*outcome);
      sample.utility = outcome->utility;
      sample.top_met = outcome->met_rank == 0;
    }
    out->samples.push_back(sample);
  }
}

// Stream seeds: every random choice derives from --seed; warm-up and the
// timed window draw from different streams.
uint64_t StreamSeed(uint64_t seed, SessionClass session_class, bool warmup) {
  return seed * 4 + (session_class == SessionClass::kStrong ? 0 : 1) +
         (warmup ? 2 : 0) + 1;
}

// Brings the monitor to its steady state before anything is timed: both
// nodes' RTT windows are filled to capacity with real probe samples (the
// connect-inflated first probe becomes one sample among thousands, and
// selection, which scans the whole window, costs what it will cost for the
// rest of the run), then untimed ops run in both classes.
Status WarmUp(Deployment& deployment, const Config& config, AckLog* acked) {
  const size_t capacity =
      deployment.monitor().options().latency_window.max_samples;
  const size_t threads = static_cast<size_t>(kProbeFillThreads);
  const size_t rounds = (capacity + threads - 1) / threads;
  std::atomic<bool> probe_failed{false};
  std::vector<std::thread> probers;
  for (size_t t = 0; t < threads; ++t) {
    probers.emplace_back([&] {
      for (size_t r = 0; r < rounds && !probe_failed.load(); ++r) {
        if (!deployment.strong().ProbeNode(0).ok() ||
            !deployment.strong().ProbeNode(1).ok()) {
          probe_failed.store(true);
        }
      }
    });
  }
  for (std::thread& prober : probers) {
    prober.join();
  }
  const std::vector<core::Monitor::NodeSnapshot> nodes =
      deployment.monitor().Snapshot();
  if (probe_failed.load() || nodes.size() != 2 ||
      nodes[0].latency_samples < capacity ||
      nodes[1].latency_samples < capacity) {
    return Status(StatusCode::kUnavailable, "monitor warm-up probes failed");
  }
  ClassRun strong;
  ClassRun relaxed;
  const auto ops = static_cast<uint64_t>(kWarmupOps);
  std::thread strong_thread([&] {
    RunClass(deployment.strong(), SessionClass::kStrong, config,
             StreamSeed(config.seed, SessionClass::kStrong, true), ops, 0,
             &strong);
  });
  RunClass(deployment.relaxed(), SessionClass::kRelaxed, config,
           StreamSeed(config.seed, SessionClass::kRelaxed, true), ops, 0,
           &relaxed);
  strong_thread.join();
  acked->Merge(strong.acked);
  acked->Merge(relaxed.acked);
  if (strong.failed + relaxed.failed > 0) {
    return Status(StatusCode::kUnavailable, "warm-up ops failed");
  }
  return Status();
}

// Traced runs only: every sample period, raw undelayed probes of both nodes
// (replication lag = primary minus secondary high timestamp; the secondary
// probe's RTT is net.probe), plus one raw Get and one raw Range on the
// secondary. Those give net.call_us_p50.{get,range} one population of calls
// in every workload: undelayed, never queued behind the primary's fsync, and
// the same whatever the workload's mix.
class Sampler {
 public:
  Sampler(Deployment* deployment, const Config& config)
      : deployment_(deployment), config_(config) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Sampler() { Stop(); }

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  void Loop() {
    Random rng(config_.seed + 17);
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock,
                         std::chrono::microseconds(kSamplePeriodUs),
                         [this] { return stop_; })) {
      lock.unlock();
      SampleOnce(rng);
      lock.lock();
    }
  }

  void SampleOnce(Random& rng) {
    net::TcpChannel& secondary = deployment_->raw_secondary();
    const proto::ProbeRequest probe{.table = kTable};
    const int64_t t0 = NowNs();
    Result<proto::Message> near = CallChecked(secondary, probe);
    const int64_t t1 = NowNs();
    Result<proto::Message> far = CallChecked(deployment_->raw_primary(), probe);
    const int64_t t2 = NowNs();
    if (near.ok() && far.ok()) {
      RecordTimed("net.probe.secondary", t0, t1);
      const Timestamp lag_from =
          std::get<proto::ProbeReply>(near.value()).high_timestamp;
      const Timestamp lag_to =
          std::get<proto::ProbeReply>(far.value()).high_timestamp;
      RecordTimed("replication.lag", t0, t2,
                  lag_to.physical_us - lag_from.physical_us);
    }
    const std::string key =
        workload::YcsbWorkload::KeyForIndex(rng.NextUint64(
            static_cast<uint64_t>(kKeyCount)));
    proto::GetRequest get;
    get.table = kTable;
    get.key = key;
    const int64_t t3 = NowNs();
    if (CallChecked(secondary, get).ok()) {
      RecordTimed("net.raw.get", t3, NowNs());
    }
    proto::RangeRequest range;
    range.table = kTable;
    range.begin = key;
    range.limit = kRangeLimit;
    const int64_t t4 = NowNs();
    if (CallChecked(secondary, range).ok()) {
      RecordTimed("net.raw.range", t4, NowNs());
    }
  }

  Deployment* deployment_;
  const Config& config_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Metrics

// Heap in use, small chunks and mmapped large ones alike.
double HeapMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / 1e6;
}

std::vector<Metric> EndToEndMetrics(const WindowSummary& w,
                                    const std::vector<double>& setup_s,
                                    double heap_mb) {
  return {
      {"ops_per_s", w.ops_per_s, "ops/s"},
      {LatencyMetricName("relaxed_read", 0.5, "us"), w.relaxed_read_p50_us,
       "us"},
      {LatencyMetricName("relaxed_read", 0.9, "us"), w.relaxed_read_p90_us,
       "us"},
      {LatencyMetricName("strong_read", 0.5, "us"), w.strong_read_p50_us,
       "us"},
      {LatencyMetricName("write", 0.5, "us"), w.write_p50_us, "us"},
      {LatencyMetricName("write", 0.9, "us"), w.write_p90_us, "us"},
      {"utility_mean", w.utility_mean, "utility"},
      {"top_subsla_rate", w.top_subsla_rate, "fraction"},
      {"setup_s", Percentile(setup_s, 0.5), "s"},
      {"heap_mb", heap_mb, "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const std::vector<Span>& spans,
                                    const Deployment::Counters& delta,
                                    const ClassRun& strong,
                                    const ClassRun& relaxed) {
  std::unordered_map<std::string_view, std::vector<double>> us_by_name;
  std::unordered_map<std::string_view, std::vector<double>> value_by_name;
  std::unordered_map<uint64_t, int64_t> call_ns_by_op;
  for (const Span& span : spans) {
    const std::string_view name = span.name;
    us_by_name[name].push_back(static_cast<double>(span.duration_ns()) / 1e3);
    value_by_name[name].push_back(static_cast<double>(span.value));
    if (name.rfind("net.call.", 0) == 0 && span.parent != 0) {
      call_ns_by_op[span.parent] += span.duration_ns();
    }
  }
  const auto us = [&](std::string_view name) -> std::vector<double> {
    const auto it = us_by_name.find(name);
    return it == us_by_name.end() ? std::vector<double>{} : it->second;
  };
  // Every Put goes to the far primary; its artificial delay is subtracted.
  std::vector<double> put_us = us("net.call.put.primary");
  for (double& d : put_us) {
    d -= 2.0 * static_cast<double>(kOneWayDelayUs);
  }
  std::vector<double> self_us;
  std::vector<double> persist_us;
  for (const Span& span : spans) {
    const std::string_view name = span.name;
    if (name.rfind("op.", 0) == 0) {
      const auto it = call_ns_by_op.find(span.id);
      const int64_t inside = it == call_ns_by_op.end() ? 0 : it->second;
      self_us.push_back(static_cast<double>(span.duration_ns() - inside) /
                        1e3);
    } else if (name.rfind("persist.handle.", 0) == 0) {
      persist_us.push_back(static_cast<double>(span.duration_ns()) / 1e3);
    }
  }
  const auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  ReadTally reads = strong.tally;
  reads.Merge(relaxed.tally);
  const uint64_t ops = strong.attempted + relaxed.attempted;
  const std::vector<double>& lag = value_by_name["replication.lag"];
  return {
      {"core.self_us_p50", Percentile(self_us, 0.5), "us"},
      {"core.messages_per_op", ratio(delta.messages, ops), "messages/op"},
      {"core.primary_read_share.strong", strong.tally.primary_share(),
       "fraction"},
      {"core.primary_read_share.relaxed", relaxed.tally.primary_share(),
       "fraction"},
      {"core.target_met_rate", reads.target_met_rate(), "fraction"},
      {"net.call_us_p50.get", Percentile(us("net.raw.get"), 0.5), "us"},
      {"net.call_us_p50.put", Percentile(put_us, 0.5), "us"},
      {"net.call_us_p50.range", Percentile(us("net.raw.range"), 0.5), "us"},
      {"net.overhead_us_p50",
       Percentile(us("net.raw.get"), 0.5) -
           Percentile(us("storage.handle.get"), 0.5),
       "us"},
      {"net.probe_rtt_us_p50", Percentile(us("net.probe.secondary"), 0.5),
       "us"},
      {"storage.handle_us_p50.get", Percentile(us("storage.handle.get"), 0.5),
       "us"},
      {"storage.handle_us_p50.range",
       Percentile(us("storage.handle.range"), 0.5), "us"},
      {"storage.handle_us_p50.sync",
       Percentile(us("storage.apply_sync"), 0.5), "us"},
      {"storage.range_reply_bytes_mean",
       Mean(value_by_name["storage.handle.range"]), "bytes"},
      {"persist.handle_us_p50", Percentile(persist_us, 0.5), "us"},
      {"persist.handle_us_p99", Percentile(persist_us, 0.99), "us"},
      {"persist.ack_wait_us_p50", Percentile(us("persist.ack_wait"), 0.5),
       "us"},
      {"persist.fsyncs_per_write", ratio(delta.syncs, delta.acked),
       "fsyncs/write"},
      {"persist.write_bytes_per_user_byte",
       ratio(delta.disk_write_bytes,
             strong.user_bytes_written + relaxed.user_bytes_written),
       "bytes/byte"},
      {"replication.pull_us_p50", Percentile(us("replication.pull"), 0.5),
       "us"},
      {"replication.versions_per_pull",
       ratio(delta.versions_pulled, delta.pulls), "versions/pull"},
      {"replication.lag_us_p50", Percentile(lag, 0.5), "us"},
      {"replication.lag_us_p90", Percentile(lag, 0.9), "us"},
  };
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// The highest percentiles of the traced run, with their sample counts (a
// percentile is reported only when at least ten samples lie beyond it).
std::string TailReport(const std::vector<OpSample>& ops) {
  std::vector<double> relaxed_reads, strong_reads, writes;
  for (const OpSample& op : ops) {
    (!op.read ? writes : op.strong ? strong_reads : relaxed_reads)
        .push_back(op.latency_us);
  }
  const std::pair<const char*, const std::vector<double>*> series[] = {
      {"relaxed_read", &relaxed_reads},
      {"strong_read", &strong_reads},
      {"write", &writes}};
  std::string report = "tail latencies over the whole window:\n";
  for (const auto& [subject, samples] : series) {
    const size_t n = samples->size();
    char line[160];
    std::snprintf(line, sizeof(line), "  %-36s %14.1f us  (n=%zu%s)\n",
                  LatencyMetricName(subject, 0.99, "us").c_str(),
                  Percentile(*samples, 0.99), n,
                  n >= 1000 ? "" : ", fewer than 10 samples beyond p99");
    report += line;
  }
  return report;
}

int Run(const Config& config) {
  // --- Set-up, several times: report the median, keep the last.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  AckLog acked;
  std::string previous_dir;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (deployment != nullptr) {
      deployment.reset();
      std::filesystem::remove_all(previous_dir);
    }
    acked = AckLog();
    previous_dir = config.work_dir + "/setup-" + std::to_string(i);
    std::filesystem::remove_all(previous_dir);
    // Phase boundaries: start, servers up, preloaded, caught up, warm.
    int64_t marks[5] = {NowNs(), 0, 0, 0, 0};
    deployment = std::make_unique<Deployment>(config, previous_dir);
    Status status = deployment->Start();
    marks[1] = NowNs();
    if (status.ok()) {
      status = deployment->Preload(&acked);
      marks[2] = NowNs();
    }
    if (status.ok()) {
      status = deployment->CatchUp();
      marks[3] = NowNs();
    }
    if (status.ok()) {
      status = WarmUp(*deployment, config, &acked);
      marks[4] = NowNs();
    }
    if (!status.ok()) {
      // Not a check failure (exit 1): nothing was measured, so no result.
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 3;
    }
    setup_s.push_back(static_cast<double>(marks[4] - marks[0]) / 1e9);
    std::printf("set-up %d: %.1f ms (start %.1f, preload %.1f, catch-up "
                "%.1f, warm-up %.1f)\n",
                i, (marks[4] - marks[0]) / 1e6, (marks[1] - marks[0]) / 1e6,
                (marks[2] - marks[1]) / 1e6, (marks[3] - marks[2]) / 1e6,
                (marks[4] - marks[3]) / 1e6);
  }

  // --- Timed window.
  const Deployment::Counters before = deployment->ReadCounters();
  std::unique_ptr<Sampler> sampler;
  if (config.trace) {
    EnableSpans(true);
    sampler = std::make_unique<Sampler>(deployment.get(), config);
  }
  ClassRun strong;
  ClassRun relaxed;
  const int64_t window_start = NowNs();
  const int64_t deadline =
      window_start + static_cast<int64_t>(config.seconds * 1e9);
  int64_t strong_end = 0;
  std::thread strong_thread([&] {
    RunClass(deployment->strong(), SessionClass::kStrong, config,
             StreamSeed(config.seed, SessionClass::kStrong, false), 0,
             deadline, &strong);
    strong_end = NowNs();
  });
  RunClass(deployment->relaxed(), SessionClass::kRelaxed, config,
           StreamSeed(config.seed, SessionClass::kRelaxed, false), 0, deadline,
           &relaxed);
  const int64_t relaxed_end = NowNs();
  strong_thread.join();
  const int64_t window_end = std::max(strong_end, relaxed_end);
  const double elapsed_s =
      static_cast<double>(window_end - window_start) / 1e9;
  Deployment::Counters delta = deployment->ReadCounters();
  delta.messages -= before.messages;
  delta.syncs -= before.syncs;
  delta.acked -= before.acked;
  delta.disk_write_bytes -= before.disk_write_bytes;
  delta.versions_pulled -= before.versions_pulled;
  delta.pulls -= before.pulls;
  sampler.reset();
  EnableSpans(false);

  // --- Summarise the window, then free the per-op samples: they are the
  // benchmark's memory, grow with ops/s, and must not count in heap_mb.
  WindowSummary window;
  std::string tails;
  {
    std::vector<OpSample> ops = std::move(strong.samples);
    ops.insert(ops.end(), relaxed.samples.begin(), relaxed.samples.end());
    std::vector<OpSample>().swap(relaxed.samples);
    const int slices =
        std::max(1, static_cast<int>(std::lround(elapsed_s)));
    window = SummarizeWindow(ops, window_start, window_end, slices);
    if (config.trace) {
      tails = TailReport(ops);
    }
  }

  // --- Correctness checks.
  acked.Merge(strong.acked);
  acked.Merge(relaxed.acked);
  bool correct = true;
  Timestamp primary_high;
  Timestamp secondary_high;
  const Status pulled = deployment->FinalPull(&primary_high, &secondary_high);
  // Taken with every background thread idle, so no reply or batch in flight
  // shows up in it. The traced run's spans are still held and count in it.
  const double heap_mb = HeapMb();
  std::string catch_up;
  if (!pulled.ok()) {
    catch_up = "final pull failed: " + pulled.ToString();
    correct = false;
  } else {
    const CheckResult secondary = deployment->CheckSecondary(acked);
    catch_up = secondary.Summary("secondary after final pull") +
               "\n  secondary high " + secondary_high.ToString() +
               " vs primary high " + primary_high.ToString();
    if (secondary_high < primary_high || !secondary.ok()) {
      correct = false;
      catch_up += "  [FAIL]";
    }
  }
  const std::string primary_dir = deployment->primary_dir();
  deployment->Stop();
  std::string durable;
  Result<CheckResult> reopened = CheckDurableReopen(primary_dir, acked);
  if (!reopened.ok()) {
    durable = "reopen failed: " + reopened.status().ToString();
    correct = false;
  } else {
    durable = reopened->Summary("primary reopened from its directory");
    correct = correct && reopened->ok();
  }
  const std::string routing = CheckRouting(strong.tally.primary_share(),
                                           relaxed.tally.primary_share());
  correct = correct && routing.empty();
  deployment.reset();
  std::filesystem::remove_all(previous_dir);

  // --- Report.
  const uint64_t attempted = strong.attempted + relaxed.attempted;
  const uint64_t failed = strong.failed + relaxed.failed;
  const std::vector<Metric> e2e =
      EndToEndMetrics(window, setup_s, heap_mb);
  std::printf("e2ebench workload=%s seed=%llu trace=%d window=%.3fs "
              "set-ups=%d\n",
              config.workload->name,
              static_cast<unsigned long long>(config.seed),
              config.trace ? 1 : 0, elapsed_s, kSetupRepeats);
  PrintMetrics(config.trace ? "end-to-end (traced run):" : "end-to-end:", e2e);
  std::printf("  %-36s %14.6f fraction (%llu failed of %llu attempted)\n",
              "error_rate",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::map<std::string, uint64_t> failures = strong.failures;
  for (const auto& [code, count] : relaxed.failures) {
    failures[code] += count;
  }
  std::printf("failed ops by status:%s\n", failures.empty() ? " none" : "");
  for (const auto& [code, count] : failures) {
    std::printf("  %s: %llu\n", code.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("routing: strong reads from primary %.4f (n=%llu), relaxed "
              "reads from primary %.4f (n=%llu)%s\n",
              strong.tally.primary_share(),
              static_cast<unsigned long long>(strong.tally.reads),
              relaxed.tally.primary_share(),
              static_cast<unsigned long long>(relaxed.tally.reads),
              routing.empty() ? "" : ("  [FAIL] " + routing).c_str());
  std::printf("check %s\ncheck %s\n", durable.c_str(), catch_up.c_str());

  std::vector<Metric> reported = e2e;
  if (config.trace) {
    const std::vector<Span> spans = CollectSpans();
    std::printf("%s", tails.c_str());
    reported = PerLayerMetrics(spans, delta, strong, relaxed);
    PrintMetrics("per-layer (traced run):", reported);
    if (WriteSpansCsv(config.spans_path, spans)) {
      std::printf("spans: %zu written to %s\n", spans.size(),
                  config.spans_path.c_str());
    } else {
      std::printf("spans: could not write %s\n", config.spans_path.c_str());
    }
  }
  std::printf("E2E %s\n", ResultLine(correct, attempted, failed, e2e).c_str());
  std::printf("%s\n",
              ResultLine(correct, attempted, failed, reported).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  const std::optional<e2ebench::Config> config =
      e2ebench::ParseFlags(argc, argv);
  if (!config.has_value()) {
    return 2;
  }
  return e2ebench::Run(*config);
}
