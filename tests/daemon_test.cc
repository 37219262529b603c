// Runs the shipped pileus_server binary itself: a primary and a secondary
// pulling from it over loopback, in memory and durable. A write through a
// TcpChannel must reach the secondary, and the daemons must shut down
// cleanly; the durable primary must also admit, export its storage metrics
// and recover every acked write after a restart. A durable daemon killed
// after a tablet-map install must come back in the role it journaled, and
// fenced; flag combinations the daemon would ignore must be refused. The
// shipped pileus_audit binary must refuse the retired tablet-churn
// scenarios. Under a sanitizer build the children inherit the sanitizer, so
// a data race or memory error in the daemon fails this test through their
// exit status.

#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/tcp.h"
#include "src/tablets/tablet_map.h"
#include "src/util/key_range.h"

namespace pileus {
namespace {

using Clock = std::chrono::steady_clock;

// One pileus_server child (or another shipped binary at `path`) with its
// stdout on a pipe.
class ServerProcess {
 public:
  explicit ServerProcess(std::vector<std::string> args,
                         std::string path = PILEUS_SERVER_PATH) {
    // Everything the child needs is built before fork: it only execs.
    std::vector<char*> argv = {path.data()};
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    int out[2];
    if (::pipe(out) != 0) {
      return;
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execv(path.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    stdout_fd_ = out[0];
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
    }
  }

  // Reads stdout until the "serving ... on 127.0.0.1:<port>" banner; 0 when
  // it does not appear within the deadline.
  uint16_t WaitForPort() {
    const std::string marker = "127.0.0.1:";
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      const size_t at = output_.find(marker);
      if (at != std::string::npos &&
          output_.find('\n', at) != std::string::npos) {
        return static_cast<uint16_t>(
            std::stoi(output_.substr(at + marker.size())));
      }
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) > 0) {
        char buf[512];
        const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
        if (n <= 0) {
          return 0;  // The child exited before listening.
        }
        output_.append(buf, static_cast<size_t>(n));
      }
    }
    return 0;
  }

  // SIGTERM, then the exit status (-1 when it had to be killed).
  int Stop() {
    ::kill(pid_, SIGTERM);
    return Wait();
  }

  // A crash: SIGKILL, no shutdown checkpoint.
  void Kill() {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  // The exit status once the child exits (-1 when it does not within the
  // deadline or dies of a signal).
  int Wait() {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    int status = 0;
    while (Clock::now() < deadline) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return -1;  // Hung on shutdown; the destructor kills it.
  }

  bool started() const { return pid_ > 0 && stdout_fd_ >= 0; }
  const std::string& output() const { return output_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string output_;
};

TEST(DaemonTest, InMemorySecondaryCatchesUpFromPrimary) {
  ServerProcess primary({"--port", "0", "--role", "primary"});
  ASSERT_TRUE(primary.started());
  const uint16_t primary_port = primary.WaitForPort();
  ASSERT_GT(primary_port, 0) << primary.output();

  ServerProcess secondary({"--port", "0", "--role", "secondary",
                           "--primary_port", std::to_string(primary_port),
                           "--pull_period_ms", "20"});
  ASSERT_TRUE(secondary.started());
  const uint16_t secondary_port = secondary.WaitForPort();
  ASSERT_GT(secondary_port, 0) << secondary.output();

  {
    net::TcpChannel to_primary(primary_port);
    net::TcpChannel to_secondary(secondary_port);
    proto::PutRequest put;
    put.table = "default";
    put.key = "k";
    put.value = "written-at-primary";
    Result<proto::Message> put_reply =
        to_primary.Call(put, SecondsToMicroseconds(10));
    ASSERT_TRUE(put_reply.ok()) << put_reply.status();
    ASSERT_TRUE(std::holds_alternative<proto::PutReply>(put_reply.value()));

    // Reads race the pull thread's applies on the secondary until it has
    // caught up.
    proto::GetRequest get;
    get.table = "default";
    get.key = "k";
    bool caught_up = false;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (!caught_up && Clock::now() < deadline) {
      Result<proto::Message> reply =
          to_secondary.Call(get, SecondsToMicroseconds(10));
      ASSERT_TRUE(reply.ok()) << reply.status();
      const auto* get_reply = std::get_if<proto::GetReply>(&reply.value());
      ASSERT_NE(get_reply, nullptr);
      caught_up = get_reply->found;
      if (caught_up) {
        EXPECT_EQ(get_reply->value, "written-at-primary");
        EXPECT_FALSE(get_reply->served_by_primary);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    EXPECT_TRUE(caught_up);
  }

  EXPECT_EQ(secondary.Stop(), 0) << secondary.output();
  EXPECT_EQ(primary.Stop(), 0) << primary.output();
}

proto::GetRequest GetOf(const std::string& key) {
  proto::GetRequest get;
  get.table = "default";
  get.key = key;
  return get;
}

TEST(DaemonTest, DurableDaemonsAdmitReplicateAndRecover) {
  char tmpl[] = "/tmp/pileus_daemon_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  const std::string primary_dir = root + "/primary";
  const std::string secondary_dir = root + "/secondary";
  ASSERT_EQ(::mkdir(primary_dir.c_str(), 0755), 0);
  ASSERT_EQ(::mkdir(secondary_dir.c_str(), 0755), 0);
  constexpr int kWrites = 5;

  {
    ServerProcess primary({"--port", "0", "--role", "primary", "--data_dir",
                           primary_dir, "--group_commit",
                           "--admit_ops_per_sec", "20", "--admit_burst", "10",
                           "--admit_queue", "10"});
    ASSERT_TRUE(primary.started());
    const uint16_t primary_port = primary.WaitForPort();
    ASSERT_GT(primary_port, 0) << primary.output();
    // A first start on an empty directory recovers nothing, and says so.
    EXPECT_NE(primary.output().find(
                  "created 1 tablet(s) in the empty data directory " +
                  primary_dir + "\n"),
              std::string::npos)
        << primary.output();
    EXPECT_EQ(primary.output().find("recovered"), std::string::npos)
        << primary.output();
    ServerProcess secondary({"--port", "0", "--role", "secondary",
                             "--data_dir", secondary_dir, "--primary_port",
                             std::to_string(primary_port), "--pull_period_ms",
                             "20"});
    ASSERT_TRUE(secondary.started());
    const uint16_t secondary_port = secondary.WaitForPort();
    ASSERT_GT(secondary_port, 0) << secondary.output();

    net::TcpChannel to_primary(primary_port);
    net::TcpChannel to_secondary(secondary_port);
    // Within the admission burst: every write is admitted and acked.
    for (int i = 0; i < kWrites; ++i) {
      proto::PutRequest put;
      put.table = "default";
      put.key = "k" + std::to_string(i);
      put.value = "v" + std::to_string(i);
      Result<proto::Message> reply =
          to_primary.Call(put, SecondsToMicroseconds(10));
      ASSERT_TRUE(reply.ok()) << reply.status();
      ASSERT_TRUE(std::holds_alternative<proto::PutReply>(reply.value()));
    }

    // The writes reach the durable secondary.
    const std::string last = "k" + std::to_string(kWrites - 1);
    bool caught_up = false;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (!caught_up && Clock::now() < deadline) {
      Result<proto::Message> reply =
          to_secondary.Call(GetOf(last), SecondsToMicroseconds(10));
      ASSERT_TRUE(reply.ok()) << reply.status();
      const auto* get_reply = std::get_if<proto::GetReply>(&reply.value());
      ASSERT_NE(get_reply, nullptr);
      caught_up = get_reply->found;
      if (!caught_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    EXPECT_TRUE(caught_up);

    // The durable node exports the storage metrics.
    Result<proto::Message> stats =
        to_primary.Call(proto::StatsRequest{}, SecondsToMicroseconds(10));
    ASSERT_TRUE(stats.ok()) << stats.status();
    ASSERT_TRUE(std::holds_alternative<proto::StatsReply>(stats.value()));
    EXPECT_NE(std::get<proto::StatsReply>(stats.value())
                  .text.find("pileus_storage_puts_total"),
              std::string::npos);

    // A burst far over 20 ops/s is shed.
    bool overloaded = false;
    for (int i = 0; i < 200 && !overloaded; ++i) {
      Result<proto::Message> reply =
          to_primary.Call(GetOf("k0"), SecondsToMicroseconds(10));
      ASSERT_TRUE(reply.ok()) << reply.status();
      const auto* err = std::get_if<proto::ErrorReply>(&reply.value());
      overloaded = err != nullptr && err->code == StatusCode::kOverloaded;
    }
    EXPECT_TRUE(overloaded);

    EXPECT_EQ(secondary.Stop(), 0) << secondary.output();
    EXPECT_EQ(primary.Stop(), 0) << primary.output();
  }

  // A restart on the same directory serves every acked write.
  ServerProcess restarted(
      {"--port", "0", "--role", "primary", "--data_dir", primary_dir});
  ASSERT_TRUE(restarted.started());
  const uint16_t port = restarted.WaitForPort();
  ASSERT_GT(port, 0) << restarted.output();
  // The clean shutdown checkpointed every acked write.
  EXPECT_NE(restarted.output().find("recovered 1 tablet(s): " +
                                    std::to_string(kWrites) +
                                    " checkpoint + 0 WAL versions\n"),
            std::string::npos)
      << restarted.output();
  {
    net::TcpChannel channel(port);
    for (int i = 0; i < kWrites; ++i) {
      Result<proto::Message> reply = channel.Call(
          GetOf("k" + std::to_string(i)), SecondsToMicroseconds(10));
      ASSERT_TRUE(reply.ok()) << reply.status();
      const auto* get_reply = std::get_if<proto::GetReply>(&reply.value());
      ASSERT_NE(get_reply, nullptr);
      EXPECT_TRUE(get_reply->found) << "k" << i;
      EXPECT_EQ(get_reply->value, "v" + std::to_string(i));
    }
  }
  EXPECT_EQ(restarted.Stop(), 0) << restarted.output();
  (void)::system(("rm -rf '" + root + "'").c_str());
}

// A fresh temp directory with a `primary` and a `secondary` data dir.
std::string MakeDataDirs() {
  char tmpl[] = "/tmp/pileus_daemon_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    return "";
  }
  const std::string root = tmpl;
  ::mkdir((root + "/primary").c_str(), 0755);
  ::mkdir((root + "/secondary").c_str(), 0755);
  return root;
}

proto::PutRequest PutOf(const std::string& key) {
  proto::PutRequest put;
  put.table = "default";
  put.key = key;
  put.value = "v-" + key;
  return put;
}

// Installs a one-tablet map of version and epoch 1 that makes `primary` lead
// the whole table among `members`, with no lease (the CLI's handoff map).
void InstallMap(uint16_t port, const std::string& primary,
                std::vector<std::string> members) {
  proto::TabletMapRequest install;
  install.table = "default";
  install.install = true;
  install.map.table = "default";
  install.map.version = 1;
  tablets::TabletInfo tablet;
  tablet.range = KeyRange::All();
  tablet.config.epoch = 1;
  tablet.config.primary = primary;
  tablet.config.members = std::move(members);
  install.map.tablets.push_back(tablet);
  net::TcpChannel channel(port);
  Result<proto::Message> reply =
      channel.Call(install, SecondsToMicroseconds(10));
  ASSERT_TRUE(reply.ok()) << reply.status();
  const auto* accepted = std::get_if<proto::TabletMapReply>(&reply.value());
  ASSERT_NE(accepted, nullptr);
  EXPECT_TRUE(accepted->accepted);
}

TEST(DaemonTest, RestartedExPrimaryStaysDemoted) {
  const std::string root = MakeDataDirs();
  ASSERT_FALSE(root.empty());
  const std::vector<std::string> primary_flags = {
      "--port", "0", "--role", "primary", "--name", "P",
      "--data_dir", root + "/primary"};
  auto primary = std::make_unique<ServerProcess>(primary_flags);
  ASSERT_TRUE(primary->started());
  const uint16_t primary_port = primary->WaitForPort();
  ASSERT_GT(primary_port, 0) << primary->output();
  ServerProcess secondary({"--port", "0", "--role", "secondary", "--name", "S",
                           "--data_dir", root + "/secondary", "--primary_port",
                           std::to_string(primary_port), "--pull_period_ms",
                           "20"});
  ASSERT_TRUE(secondary.started());
  const uint16_t secondary_port = secondary.WaitForPort();
  ASSERT_GT(secondary_port, 0) << secondary.output();

  // Hand P's tablet to S: the source first, then the target.
  InstallMap(primary_port, "S", {"P", "S"});
  InstallMap(secondary_port, "S", {"P", "S"});
  {
    net::TcpChannel to_secondary(secondary_port);
    Result<proto::Message> reply =
        to_secondary.Call(PutOf("after-handoff"), SecondsToMicroseconds(10));
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_TRUE(std::holds_alternative<proto::PutReply>(reply.value()));
  }

  // Crash P and restart it with the same flags, --role primary included.
  primary->Kill();
  primary = std::make_unique<ServerProcess>(primary_flags);
  ASSERT_TRUE(primary->started());
  const uint16_t restarted_port = primary->WaitForPort();
  ASSERT_GT(restarted_port, 0) << primary->output();
  {
    net::TcpChannel to_restarted(restarted_port);
    Result<proto::Message> reply =
        to_restarted.Call(PutOf("split-brain"), SecondsToMicroseconds(10));
    ASSERT_TRUE(reply.ok()) << reply.status();
    const auto* err = std::get_if<proto::ErrorReply>(&reply.value());
    ASSERT_NE(err, nullptr) << "the restarted ex-primary acked a Put";
    EXPECT_EQ(err->code, StatusCode::kNotPrimary);
    EXPECT_EQ(err->primary_hint, "S");
    EXPECT_EQ(err->config_epoch, 1u);
  }
  EXPECT_EQ(secondary.Stop(), 0) << secondary.output();
  EXPECT_EQ(primary->Stop(), 0) << primary->output();
  (void)::system(("rm -rf '" + root + "'").c_str());
}

TEST(DaemonTest, RestartedLeaderStaysFencedUntilReleased) {
  const std::string root = MakeDataDirs();
  ASSERT_FALSE(root.empty());
  const std::vector<std::string> flags = {"--port", "0", "--name", "P",
                                          "--data_dir", root + "/primary"};
  auto node = std::make_unique<ServerProcess>(flags);
  ASSERT_TRUE(node->started());
  uint16_t port = node->WaitForPort();
  ASSERT_GT(port, 0) << node->output();
  InstallMap(port, "P", {"P"});
  {
    net::TcpChannel channel(port);
    Result<proto::Message> reply =
        channel.Call(PutOf("led"), SecondsToMicroseconds(10));
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_TRUE(std::holds_alternative<proto::PutReply>(reply.value()));
  }

  node->Kill();
  node = std::make_unique<ServerProcess>(flags);
  ASSERT_TRUE(node->started());
  port = node->WaitForPort();
  ASSERT_GT(port, 0) << node->output();
  {
    // Its lease did not survive the crash: fenced until re-leased.
    net::TcpChannel channel(port);
    Result<proto::Message> reply =
        channel.Call(PutOf("fenced"), SecondsToMicroseconds(10));
    ASSERT_TRUE(reply.ok()) << reply.status();
    const auto* err = std::get_if<proto::ErrorReply>(&reply.value());
    ASSERT_NE(err, nullptr) << "the restarted leader acked before a re-lease";
    EXPECT_EQ(err->code, StatusCode::kNotPrimary);
    EXPECT_EQ(err->primary_hint, "P");
  }
  InstallMap(port, "P", {"P"});  // Same version: a lease renewal.
  {
    net::TcpChannel channel(port);
    Result<proto::Message> reply =
        channel.Call(PutOf("re-leased"), SecondsToMicroseconds(10));
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_TRUE(std::holds_alternative<proto::PutReply>(reply.value()));
    reply = channel.Call(GetOf("led"), SecondsToMicroseconds(10));
    ASSERT_TRUE(reply.ok()) << reply.status();
    const auto* get_reply = std::get_if<proto::GetReply>(&reply.value());
    ASSERT_NE(get_reply, nullptr);
    EXPECT_TRUE(get_reply->found);
  }
  EXPECT_EQ(node->Stop(), 0) << node->output();
  (void)::system(("rm -rf '" + root + "'").c_str());
}

TEST(DaemonTest, FailedShutdownCheckpointExitsOne) {
  const std::string root = MakeDataDirs();
  ASSERT_FALSE(root.empty());
  ServerProcess server({"--port", "0", "--data_dir", root + "/primary"});
  ASSERT_TRUE(server.started());
  const uint16_t port = server.WaitForPort();
  ASSERT_GT(port, 0) << server.output();
  {
    net::TcpChannel channel(port);
    Result<proto::Message> reply =
        channel.Call(PutOf("k"), SecondsToMicroseconds(10));
    ASSERT_TRUE(reply.ok()) << reply.status();
  }
  // The checkpoint has nowhere to go.
  (void)::system(("rm -rf '" + root + "'").c_str());
  EXPECT_EQ(server.Stop(), 1) << server.output();
}

TEST(DaemonTest, RejectsFlagCombinationsItWouldIgnore) {
  const std::vector<std::vector<std::string>> ignored = {
      {"--group_commit"},
      {"--fsync_every_write"},
      {"--role", "primary", "--primary_port", "7000"},
  };
  for (const std::vector<std::string>& flags : ignored) {
    std::vector<std::string> args = {"--port", "0"};
    args.insert(args.end(), flags.begin(), flags.end());
    ServerProcess server(args);
    ASSERT_TRUE(server.started());
    EXPECT_EQ(server.Wait(), 2) << flags.front();
  }
}

// The dynamic-tablet audit scenarios are retired with the tablet fleet:
// asking for one is an unknown scenario, refused before any run starts.
TEST(AuditToolTest, RetiredTabletChurnScenariosExitTwo) {
  for (const std::string scenario : {"tablet-churn", "tablet-churn-kill"}) {
    ServerProcess audit({"--scenarios", scenario}, PILEUS_AUDIT_PATH);
    ASSERT_TRUE(audit.started());
    EXPECT_EQ(audit.Wait(), 2) << scenario;
  }
}

}  // namespace
}  // namespace pileus
