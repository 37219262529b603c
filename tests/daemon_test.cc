// Runs the shipped pileus_server binary itself: an in-memory primary and an
// in-memory secondary pulling from it over loopback. A write through a
// TcpChannel must reach the secondary, and both daemons must shut down
// cleanly. Under a sanitizer build the children inherit the sanitizer, so a
// data race or memory error in the daemon fails this test through their
// exit status.

#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/net/tcp.h"

namespace pileus {
namespace {

using Clock = std::chrono::steady_clock;

// One pileus_server child with its stdout on a pipe.
class ServerProcess {
 public:
  explicit ServerProcess(std::vector<std::string> args) {
    // Everything the child needs is built before fork: it only execs.
    std::string path = PILEUS_SERVER_PATH;
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

}  // namespace
}  // namespace pileus
