// bench_throughput: transport throughput and latency over real loopback TCP.
//
// The epoll TcpServer multiplexes every connection on a few loop threads;
// a TcpChannel either pipelines async calls on one connection (request ids,
// writev reply coalescing) or runs a synchronous Call on a connection the
// calling thread holds for the round trip. Pipelining must pay for itself:
// 64 calls in flight on 8 connections have to beat 64 threads making
// synchronous Calls by a clear margin.
//
// Three measurements against the same in-memory storage node (Get on a
// preloaded keyspace — a realistic cheap op, so the transport dominates):
//   1. Closed-loop pipelined: C channels x D in-flight async calls against
//      the TcpServer; completions re-issue from the event loop.
//   2. Closed-loop synchronous: 1, 16 and 64 threads making blocking
//      TcpChannel::Calls on one shared channel against the TcpServer
//      (the path every PileusClient op, pull and probe takes), plus one
//      caller with this process's threads pinned to one CPU, once with
//      Gets and once with 50-item Range scans of 100 B values (a second
//      table), whose ~6 KB replies weigh the codec and the CRC.
//   3. Open-loop at 50% of measured capacity: fixed-rate issue, latency
//      distribution of completions. Client and server share one loop thread
//      so the tail reflects transport queueing, not OS run-queue delay from
//      oversubscribing a small machine.
//
// Self-checks (exit non-zero on failure; enforced by CI's smoke run):
//   1. pipelined throughput at 64 in flight (8 channels x 8 deep) >= 1.5x
//      the synchronous row of 64 threads on one channel, from the same run,
//   2. open-loop p99 <= max(2x p50, p50 + 250us) at 50% load (the absolute
//      slack keeps sub-ms medians from flaking on scheduler jitter),
//   3. no transport errors, and every synchronous row opened no more
//      connections than it had caller threads (the channel reuses one idle
//      connection per concurrent caller; a churning idle list fails this),
//   4. every synchronous Range reply carried 50 items.
//
// Writes BENCH_throughput.json (cwd) with every sweep point so the numbers
// are trackable across commits. PILEUS_BENCH_SMOKE=1 shrinks durations; the
// self-checks hold in both modes.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/net/tcp.h"
#include "src/proto/messages.h"
#include "src/storage/storage_node.h"
#include "src/telemetry/metrics.h"
#include "src/util/histogram.h"

using namespace pileus;  // NOLINT

namespace {

constexpr const char* kTable = "bench";
constexpr int kKeyCount = 512;
// The Range row's table: kRangeKeyCount keys of 100 B values, scanned 50 at a
// time from a start key that leaves at least 50 keys after it.
constexpr const char* kRangeTable = "bench_range";
constexpr int kRangeKeyCount = 1000;
constexpr uint32_t kRangeLimit = 50;

bool SmokeMode() {
  const char* value = std::getenv("PILEUS_BENCH_SMOKE");
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

MicrosecondCount MeasureDuration() {
  return SmokeMode() ? MillisecondsToMicroseconds(600)
                     : SecondsToMicroseconds(3);
}

// "k<i mod kKeyCount>", built by appending: GCC 12 reports a false
// -Wrestrict overlap for `"k" + std::to_string(i)` in optimized builds.
std::string GetKey(int i) {
  std::string key("k");
  key += std::to_string(i % kKeyCount);
  return key;
}

proto::GetRequest MakeGet(int i) {
  proto::GetRequest get;
  get.table = kTable;
  get.key = GetKey(i);
  return get;
}

std::string RangeKey(int i) {
  char key[16];
  std::snprintf(key, sizeof(key), "r%05d", i);
  return key;
}

proto::Message MakeRange(int i) {
  proto::RangeRequest range;
  range.table = kRangeTable;
  range.begin = RangeKey(i % (kRangeKeyCount - static_cast<int>(kRangeLimit)));
  range.limit = kRangeLimit;
  return range;
}

// A synchronous row's request maker, and the test a reply must pass to
// count as an op rather than an error.
using MakeRequest = proto::Message (*)(int);
using CheckReply = bool (*)(const proto::Message&);

proto::Message MakeGetMessage(int i) { return MakeGet(i); }
bool AnyReply(const proto::Message&) { return true; }
bool FullRangeReply(const proto::Message& reply) {
  const auto* range = std::get_if<proto::RangeReply>(&reply);
  return range != nullptr && range->items.size() == kRangeLimit;
}

struct LoadResult {
  double ops_per_sec = 0;
  uint64_t ops = 0;
  uint64_t errors = 0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  uint64_t connects = 0;  // Synchronous rows: connections the channel opened.
};

// --- 1. Closed loops of blocking Calls ---
//
// N threads sharing one channel, each waiting for its reply before the next
// Call. A reply that fails `check` counts as an error.

LoadResult RunBlockingClosedLoop(net::Channel* channel, int threads,
                                 MicrosecondCount duration_us,
                                 MakeRequest make, CheckReply check) {
  std::mutex mu;
  Histogram latency;
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> errors{0};
  const MicrosecondCount start = RealClock::Instance()->NowMicros();
  const MicrosecondCount deadline = start + duration_us;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([channel, t, deadline, make, check, &mu, &latency,
                          &ops, &errors] {
      int i = t;
      while (RealClock::Instance()->NowMicros() < deadline) {
        const MicrosecondCount op_start = RealClock::Instance()->NowMicros();
        Result<proto::Message> reply =
            channel->Call(make(i++), SecondsToMicroseconds(10));
        if (reply.ok() && check(reply.value())) {
          ops.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(mu);
          latency.Record(RealClock::Instance()->NowMicros() - op_start);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  const double elapsed_s =
      static_cast<double>(RealClock::Instance()->NowMicros() - start) / 1e6;
  LoadResult result;
  result.ops = ops.load();
  result.errors = errors.load();
  result.ops_per_sec = elapsed_s > 0 ? result.ops / elapsed_s : 0;
  result.p50_us = latency.Quantile(0.50);
  result.p99_us = latency.Quantile(0.99);
  return result;
}

// Synchronous TcpChannel::Call from `threads` callers sharing one channel,
// counting the connections the channel opens (it keeps one per concurrent
// caller, so a churning idle list shows up as connects > threads).
LoadResult RunSyncClosedLoop(uint16_t port, int threads,
                             MicrosecondCount duration_us,
                             MakeRequest make = &MakeGetMessage,
                             CheckReply check = &AnyReply) {
  telemetry::Counter* connects =
      telemetry::MetricsRegistry::Default().GetCounter(
          "pileus_net_tcp_connects_total");
  const uint64_t connects_before = connects->Value();
  net::TcpChannel channel(port);
  LoadResult result =
      RunBlockingClosedLoop(&channel, threads, duration_us, make, check);
  result.connects = connects->Value() - connects_before;
  return result;
}

// Restricts the calling thread to the highest CPU it may use, returning its
// previous mask; threads it starts afterwards inherit the restriction.
cpu_set_t PinToOneCpu() {
  cpu_set_t previous;
  CPU_ZERO(&previous);
  (void)sched_getaffinity(0, sizeof(previous), &previous);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &previous)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)sched_setaffinity(0, sizeof(one), &one);
      break;
    }
  }
  return previous;
}

// --- 2. Closed loop, pipelined ---

LoadResult RunPipelinedClosedLoop(uint16_t port, int channels, int depth,
                                  MicrosecondCount duration_us,
                                  net::EventLoop* pinned_loop = nullptr) {
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    Histogram latency;
    uint64_t ops = 0;
    uint64_t errors = 0;
    int outstanding = 0;
    MicrosecondCount deadline = 0;
  };
  auto shared = std::make_shared<Shared>();
  std::vector<std::unique_ptr<net::TcpChannel>> chans;
  chans.reserve(channels);
  for (int c = 0; c < channels; ++c) {
    chans.push_back(std::make_unique<net::TcpChannel>(port, 0, pinned_loop));
  }
  const MicrosecondCount start = RealClock::Instance()->NowMicros();
  shared->deadline = start + duration_us;

  // Each completion re-issues on its own channel until the deadline, so the
  // in-flight population stays at channels*depth without any client threads.
  struct Issuer {
    static void Issue(net::TcpChannel* channel, std::shared_ptr<Shared> shared,
                      int seq) {
      const MicrosecondCount op_start = RealClock::Instance()->NowMicros();
      channel->CallAsync(
          MakeGet(seq), 0 /* no per-op deadline: skip the timeout-timer heap churn */,
          [channel, shared, seq, op_start](Result<proto::Message> reply) {
            bool reissue = false;
            {
              std::lock_guard<std::mutex> lock(shared->mu);
              if (reply.ok()) {
                ++shared->ops;
                shared->latency.Record(RealClock::Instance()->NowMicros() -
                                       op_start);
              } else {
                ++shared->errors;
              }
              if (RealClock::Instance()->NowMicros() < shared->deadline) {
                reissue = true;
              } else {
                --shared->outstanding;
              }
            }
            if (reissue) {
              Issue(channel, shared, seq + 1);
            } else {
              shared->cv.notify_all();
            }
          });
    }
  };

  {
    std::lock_guard<std::mutex> lock(shared->mu);
    shared->outstanding = channels * depth;
  }
  for (int c = 0; c < channels; ++c) {
    for (int d = 0; d < depth; ++d) {
      Issuer::Issue(chans[c].get(), shared, c * depth + d);
    }
  }
  {
    std::unique_lock<std::mutex> lock(shared->mu);
    shared->cv.wait(lock, [&shared] { return shared->outstanding == 0; });
  }
  const double elapsed_s =
      static_cast<double>(RealClock::Instance()->NowMicros() - start) / 1e6;
  LoadResult result;
  std::lock_guard<std::mutex> lock(shared->mu);
  result.ops = shared->ops;
  result.errors = shared->errors;
  result.ops_per_sec = elapsed_s > 0 ? result.ops / elapsed_s : 0;
  result.p50_us = shared->latency.Quantile(0.50);
  result.p99_us = shared->latency.Quantile(0.99);
  return result;
}

// --- 3. Open loop at a fixed rate ---
//
// The load generator is K virtual clients living ON the event loop: each
// issues a pipelined batch of kOpenLoopBatch requests on its period via a
// self-rearming RunAfter chain, with phases staggered so batches are evenly
// spaced in time. Batched arrivals are the workload this transport exists
// for (a pipelining client sends its window together), and they exercise the
// reply-coalescing path: the server drains the batch in one read and returns
// the replies in one writev. No dedicated pacer thread exists to fight the
// loop for the CPU, and with epoll_pwait2 + tight timer slack the timers
// have tens-of-microseconds accuracy. A client that falls behind its
// schedule (a long loop stall) drops the missed slots instead of bursting.

constexpr int kOpenLoopBatch = 32;

LoadResult RunOpenLoop(uint16_t port, double target_ops_per_sec,
                       MicrosecondCount duration_us,
                       net::EventLoop* pinned_loop) {
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    Histogram latency;
    uint64_t ops = 0;
    uint64_t errors = 0;
    int outstanding = 0;
    int clients_running = 0;
    MicrosecondCount deadline = 0;
  };
  // One batching client: multiple staggered clients sound more realistic but
  // their batches collide whenever timer jitter exceeds the stagger, and the
  // collided batch inherits the other's drain time — a tail the transport
  // didn't cause. One client on an absolute schedule keeps batches disjoint.
  auto shared = std::make_shared<Shared>();
  constexpr int kVirtualClients = 1;
  constexpr int kOpenLoopChannels = 1;
  std::vector<std::unique_ptr<net::TcpChannel>> chans;
  chans.reserve(kOpenLoopChannels);
  for (int c = 0; c < kOpenLoopChannels; ++c) {
    chans.push_back(std::make_unique<net::TcpChannel>(port, 0, pinned_loop));
  }
  const MicrosecondCount start = RealClock::Instance()->NowMicros();
  const double period_us =
      kOpenLoopBatch * kVirtualClients * 1e6 / target_ops_per_sec;
  {
    std::lock_guard<std::mutex> lock(shared->mu);
    shared->deadline = start + duration_us;
    shared->clients_running = kVirtualClients;
  }

  struct Client {
    static void Fire(net::EventLoop* loop, net::TcpChannel* channel,
                     std::shared_ptr<Shared> shared, double period,
                     double due) {
      const MicrosecondCount now = RealClock::Instance()->NowMicros();
      bool stop;
      {
        std::lock_guard<std::mutex> lock(shared->mu);
        stop = now >= shared->deadline;
        if (stop) {
          --shared->clients_running;
        } else {
          shared->outstanding += kOpenLoopBatch;
        }
      }
      if (stop) {
        shared->cv.notify_all();
        return;
      }
      // Every op in the batch is measured from the batch's arrival time
      // (`now`), not from its own CallAsync call: the batch arrived together,
      // and measuring from send time would hide the time an op spent queued
      // behind its batch-mates (coordinated omission).
      const MicrosecondCount op_start = now;
      for (int i = 0; i < kOpenLoopBatch; ++i) {
        channel->CallAsync(
            MakeGet(static_cast<int>(op_start + i) & 0x3ff),
            0,
            [shared, op_start](Result<proto::Message> reply) {
              bool all_done;
              {
                std::lock_guard<std::mutex> lock(shared->mu);
                if (reply.ok()) {
                  ++shared->ops;
                  shared->latency.Record(RealClock::Instance()->NowMicros() -
                                         op_start);
                } else {
                  ++shared->errors;
                }
                --shared->outstanding;
                // Waking the blocked main thread is a context switch; only
                // pay it when the run is actually over.
                all_done =
                    shared->outstanding == 0 && shared->clients_running == 0;
              }
              if (all_done) {
                shared->cv.notify_all();
              }
            });
      }
      double next_due = due + period;
      if (static_cast<double>(now) > next_due + period) {
        next_due = static_cast<double>(now) + period;  // Drop missed slots.
      }
      const MicrosecondCount delay = static_cast<MicrosecondCount>(
          std::max(0.0, next_due - static_cast<double>(
                                       RealClock::Instance()->NowMicros())));
      loop->RunAfter(delay, [loop, channel, shared, period, next_due] {
        Fire(loop, channel, shared, period, next_due);
      });
    }
  };

  for (int c = 0; c < kVirtualClients; ++c) {
    // Stagger client phases across one period for even aggregate spacing.
    const double phase = period_us * c / kVirtualClients;
    const double due = static_cast<double>(start) + phase;
    net::TcpChannel* channel = chans[c % kOpenLoopChannels].get();
    pinned_loop->RunAfter(
        static_cast<MicrosecondCount>(phase),
        [pinned_loop, channel, shared, period_us, due] {
          Client::Fire(pinned_loop, channel, shared, period_us, due);
        });
  }
  {
    std::unique_lock<std::mutex> lock(shared->mu);
    shared->cv.wait(lock, [&shared] {
      return shared->clients_running == 0 && shared->outstanding == 0;
    });
  }
  const double elapsed_s =
      static_cast<double>(RealClock::Instance()->NowMicros() - start) / 1e6;
  LoadResult result;
  std::lock_guard<std::mutex> lock(shared->mu);
  result.ops = shared->ops;
  result.errors = shared->errors;
  result.ops_per_sec = elapsed_s > 0 ? result.ops / elapsed_s : 0;
  result.p50_us = shared->latency.Quantile(0.50);
  result.p99_us = shared->latency.Quantile(0.99);
  return result;
}

void PrintResult(const char* label, const LoadResult& r) {
  std::printf("%-32s %9.0f ops/s  p50=%6lld us  p99=%6lld us  (%llu ops, "
              "%llu errors)\n",
              label, r.ops_per_sec, static_cast<long long>(r.p50_us),
              static_cast<long long>(r.p99_us),
              static_cast<unsigned long long>(r.ops),
              static_cast<unsigned long long>(r.errors));
  std::fflush(stdout);
}

}  // namespace

int main() {
  // One in-memory storage node serves every row, so the handler cost is
  // identical and the rows differ only in how the calls are made.
  storage::StorageNode node("bench-node", "local", RealClock::Instance());
  storage::Tablet::Options primary;
  primary.is_primary = true;
  if (Status st = node.AddTablet(kTable, primary); !st.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", st.ToString().c_str());
    return 1;
  }
  for (int i = 0; i < kKeyCount; ++i) {
    proto::PutRequest put;
    put.table = kTable;
    put.key = GetKey(i);
    put.value = "value-" + std::to_string(i);
    node.Handle(put);
  }
  storage::Tablet::Options range_options;
  range_options.is_primary = true;
  if (Status st = node.AddTablet(kRangeTable, range_options); !st.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", st.ToString().c_str());
    return 1;
  }
  for (int i = 0; i < kRangeKeyCount; ++i) {
    proto::PutRequest put;
    put.table = kRangeTable;
    put.key = RangeKey(i);
    put.value.assign(100, 'v');
    node.Handle(put);
  }
  net::Handler handler = [&node](const proto::Message& m) {
    return node.Handle(m);
  };

  const MicrosecondCount duration_us = MeasureDuration();
  std::printf("bench_throughput (%s mode, %.1f s per point)\n",
              SmokeMode() ? "smoke" : "full",
              static_cast<double>(duration_us) / 1e6);

  // --- Pipelined sweep (channels x pipeline depth), then synchronous rows ---
  const std::pair<int, int> pipelined_configs[] = {
      {1, 1}, {1, 8}, {4, 16}, {8, 8}};
  std::vector<std::pair<std::pair<int, int>, LoadResult>> pipelined_results;
  struct SyncRow {
    int threads;
    bool one_cpu;
    LoadResult result;
  };
  std::vector<SyncRow> sync_results;
  LoadResult sync64;  // The gate's denominator: 64 threads on one channel.
  {
    net::TcpServer server;
    if (Status st = server.Start(0, handler, {.loop_threads = 2});
        !st.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", st.ToString().c_str());
      return 1;
    }
    for (const auto& [channels, depth] : pipelined_configs) {
      LoadResult r =
          RunPipelinedClosedLoop(server.port(), channels, depth, duration_us);
      char label[64];
      std::snprintf(label, sizeof(label), "epoll closed %dch x %d deep",
                    channels, depth);
      PrintResult(label, r);
      pipelined_results.emplace_back(std::make_pair(channels, depth), r);
    }
    for (const int threads : {1, 16, 64}) {
      LoadResult r = RunSyncClosedLoop(server.port(), threads, duration_us);
      char label[64];
      std::snprintf(label, sizeof(label), "sync closed %d threads", threads);
      PrintResult(label, r);
      sync_results.push_back({threads, false, r});
      if (threads == 64) {
        sync64 = r;
      }
    }
    server.Stop();
  }

  // --- One synchronous caller, server and client on one CPU ---
  //
  // Only this process's own threads are pinned: the main thread narrows its
  // affinity, the server loops and the caller it starts inherit it, and the
  // main thread's mask is restored afterwards. Gets first, then 50-item
  // Range scans.
  LoadResult sync_range;
  {
    const cpu_set_t previous = PinToOneCpu();
    net::TcpServer server;
    if (Status st = server.Start(0, handler, {.loop_threads = 2});
        !st.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", st.ToString().c_str());
      return 1;
    }
    LoadResult r = RunSyncClosedLoop(server.port(), 1, duration_us);
    sync_range = RunSyncClosedLoop(server.port(), 1, duration_us, &MakeRange,
                                   &FullRangeReply);
    server.Stop();
    (void)sched_setaffinity(0, sizeof(previous), &previous);
    PrintResult("sync closed 1 thread, 1 cpu", r);
    sync_results.push_back({1, true, r});
    PrintResult("sync range-50 1 thread, 1 cpu", sync_range);
  }

  // --- Open loop at 50% of measured capacity ---
  //
  // Latency distribution under paced (non-saturating) load. Client and
  // server share ONE loop thread: on a small machine the multi-thread
  // topologies above keep more runnable threads than cores, and the OS
  // run-queue delay that puts in the tail is scheduler noise, not transport
  // queueing. Capacity is re-measured closed-loop in this same topology so
  // "50% load" means 50% of what this deployment can actually do.
  LoadResult single_loop_capacity;
  LoadResult open_loop;
  double target = 0;
  {
    net::TcpServer server;
    if (Status st = server.Start(0, handler, {.loop_threads = 1});
        !st.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", st.ToString().c_str());
      return 1;
    }
    net::EventLoop* loop = server.loop_pool()->loop(0);
    single_loop_capacity =
        RunPipelinedClosedLoop(server.port(), 1, 16, duration_us, loop);
    PrintResult("epoll closed 1-loop 1ch x 16", single_loop_capacity);
    target = single_loop_capacity.ops_per_sec * 0.5;
    open_loop = RunOpenLoop(server.port(), target, duration_us, loop);
    server.Stop();
    char label[64];
    std::snprintf(label, sizeof(label), "epoll open @%.0f/s", target);
    PrintResult(label, open_loop);
  }

  // --- Self-checks ---
  const LoadResult& epoll64 = pipelined_results.back().second;  // 8x8 = 64.
  const double pipelined_over_sync =
      sync64.ops_per_sec > 0 ? epoll64.ops_per_sec / sync64.ops_per_sec : 0;
  const bool check_pipelined = pipelined_over_sync >= 1.5;
  // 250 us of absolute slack on top of the 2x multiplier: at a p50 of
  // ~150 us the multiplier alone sits inside scheduler-jitter noise, and a
  // shared CI runner must not flake the check while the tail stays sub-ms.
  const int64_t tail_bound = std::max<int64_t>(
      2 * std::max<int64_t>(open_loop.p50_us, 1), open_loop.p50_us + 250);
  const bool check_tail = open_loop.p99_us <= tail_bound;
  const bool check_errors = epoll64.errors == 0 && open_loop.errors == 0;
  bool check_sync_errors = true;
  bool check_sync_connects = true;
  for (const SyncRow& row : sync_results) {
    check_sync_errors = check_sync_errors && row.result.errors == 0;
    check_sync_connects =
        check_sync_connects &&
        row.result.connects <= static_cast<uint64_t>(row.threads);
  }
  std::printf("pipelined over sync at 64 in flight: %.2fx (floor 1.5x)  %s\n",
              pipelined_over_sync, check_pipelined ? "OK" : "FAIL");
  std::printf("open-loop tail: p99=%lld us vs bound %lld us "
              "(max(2x p50, p50+250))  %s\n",
              static_cast<long long>(open_loop.p99_us),
              static_cast<long long>(tail_bound),
              check_tail ? "OK" : "FAIL");
  if (!check_errors) {
    std::printf("FAIL: transport errors during measurement\n");
  }
  const bool check_range =
      sync_range.errors == 0 && sync_range.ops > 0 && sync_range.connects <= 1;
  std::printf("synchronous calls: %s errors, connects <= caller threads %s\n",
              check_sync_errors ? "no" : "FAIL:",
              check_sync_connects ? "OK" : "FAIL");
  std::printf("synchronous range: %s\n",
              check_range ? "every reply carried 50 items, one connection OK"
                          : "FAIL: errors, short replies or extra connects");

  // --- BENCH_throughput.json ---
  FILE* json = std::fopen("BENCH_throughput.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"mode\": \"%s\",\n  \"duration_s\": %.2f,\n",
                 SmokeMode() ? "smoke" : "full",
                 static_cast<double>(duration_us) / 1e6);
    std::fprintf(json, "  \"epoll_closed_loop\": [");
    for (size_t i = 0; i < pipelined_results.size(); ++i) {
      const auto& [config, r] = pipelined_results[i];
      std::fprintf(json,
                   "%s\n    {\"channels\": %d, \"depth\": %d, "
                   "\"in_flight\": %d, \"ops_per_sec\": %.0f, "
                   "\"p50_us\": %lld, \"p99_us\": %lld, \"errors\": %llu}",
                   i == 0 ? "" : ",", config.first, config.second,
                   config.first * config.second, r.ops_per_sec,
                   static_cast<long long>(r.p50_us),
                   static_cast<long long>(r.p99_us),
                   static_cast<unsigned long long>(r.errors));
    }
    std::fprintf(json, "\n  ],\n  \"sync_closed_loop\": [");
    for (size_t i = 0; i < sync_results.size(); ++i) {
      const SyncRow& row = sync_results[i];
      std::fprintf(json,
                   "%s\n    {\"threads\": %d, \"one_cpu\": %s, "
                   "\"ops_per_sec\": %.0f, \"p50_us\": %lld, "
                   "\"p99_us\": %lld, \"errors\": %llu, \"connects\": %llu}",
                   i == 0 ? "" : ",", row.threads,
                   row.one_cpu ? "true" : "false", row.result.ops_per_sec,
                   static_cast<long long>(row.result.p50_us),
                   static_cast<long long>(row.result.p99_us),
                   static_cast<unsigned long long>(row.result.errors),
                   static_cast<unsigned long long>(row.result.connects));
    }
    std::fprintf(json,
                 "\n  ],\n  \"sync_range_closed_loop\": [\n    "
                 "{\"threads\": 1, \"one_cpu\": true, "
                 "\"items_per_reply\": %u, \"value_bytes\": 100, "
                 "\"ops_per_sec\": %.0f, \"p50_us\": %lld, "
                 "\"p99_us\": %lld, \"errors\": %llu, \"connects\": %llu}",
                 kRangeLimit, sync_range.ops_per_sec,
                 static_cast<long long>(sync_range.p50_us),
                 static_cast<long long>(sync_range.p99_us),
                 static_cast<unsigned long long>(sync_range.errors),
                 static_cast<unsigned long long>(sync_range.connects));
    std::fprintf(json,
                 "\n  ],\n  \"single_loop_capacity_ops_per_sec\": %.0f,\n"
                 "  \"open_loop\": {\"target_ops_per_sec\": %.0f, "
                 "\"achieved_ops_per_sec\": %.0f, \"p50_us\": %lld, "
                 "\"p99_us\": %lld, \"errors\": %llu},\n",
                 single_loop_capacity.ops_per_sec, target, open_loop.ops_per_sec,
                 static_cast<long long>(open_loop.p50_us),
                 static_cast<long long>(open_loop.p99_us),
                 static_cast<unsigned long long>(open_loop.errors));
    std::fprintf(json,
                 "  \"pipelined_over_sync_at_64\": %.2f,\n  \"checks\": "
                 "{\"pipelined_over_sync_floor_1_5x\": %s, "
                 "\"open_loop_p99_within_2x_p50\": "
                 "%s, \"no_errors\": %s, \"sync_no_errors\": %s, "
                 "\"sync_connects_within_callers\": %s, "
                 "\"sync_range_full_replies\": %s}\n}\n",
                 pipelined_over_sync, check_pipelined ? "true" : "false",
                 check_tail ? "true" : "false",
                 check_errors ? "true" : "false",
                 check_sync_errors ? "true" : "false",
                 check_sync_connects ? "true" : "false",
                 check_range ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_throughput.json\n");
  }

  return (check_pipelined && check_tail && check_errors && check_sync_errors &&
          check_sync_connects && check_range)
             ? 0
             : 1;
}
