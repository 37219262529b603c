// Microbenchmarks of the client library's hot paths: target selection
// (Figure 8), minimum-acceptable-read-timestamp computation, monitor updates
// and estimates, and the wire codec. These run on every Get, so their cost
// bounds the client-side overhead Pileus adds over a plain key-value client.

#include <benchmark/benchmark.h>

#include "src/common/clock.h"
#include "src/core/monitor.h"
#include "src/core/selection.h"
#include "src/core/session.h"
#include "src/core/sla.h"
#include "src/proto/messages.h"

namespace {

using namespace pileus;        // NOLINT
using namespace pileus::core;  // NOLINT

struct SelectionFixture {
  ManualClock clock;
  Monitor monitor;
  Session session;
  std::vector<ReplicaView> replicas;
  Sla sla;
  Random rng;

  // Each replica's latency window holds `samples` RTTs; the monitor's
  // default cap is 4096, the window a busy client runs with.
  SelectionFixture(int replica_count, int samples)
      : clock(SecondsToMicroseconds(1000)),
        monitor(&clock),
        session(PasswordCheckingSla()),
        sla(PasswordCheckingSla()),
        rng(1) {
    for (int i = 0; i < replica_count; ++i) {
      ReplicaView view;
      view.name = "node-" + std::to_string(i);
      view.authoritative = (i == 0);
      replicas.push_back(view);
      // Populate monitor state: mixed latencies and staleness.
      for (int s = 0; s < samples; ++s) {
        monitor.RecordLatency(view.name,
                              MillisecondsToMicroseconds(1 + 37 * i + s % 7));
      }
      monitor.RecordHighTimestamp(
          view.name, Timestamp{SecondsToMicroseconds(900 + i), 0});
    }
    session.RecordPut("key-1", Timestamp{SecondsToMicroseconds(950), 0});
    session.RecordGet("key-2", Timestamp{SecondsToMicroseconds(940), 0});
  }
};

void BM_SelectTarget(benchmark::State& state) {
  SelectionFixture fixture(static_cast<int>(state.range(0)),
                           static_cast<int>(state.range(1)));
  SelectionOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectTarget(
        fixture.sla, fixture.replicas, fixture.session, "key-1",
        fixture.clock.NowMicros(), fixture.monitor, options, &fixture.rng));
  }
}
// Args: replicas, latency samples per replica.
BENCHMARK(BM_SelectTarget)->ArgsProduct({{3, 8, 16}, {50, 4096}});

void BM_MinReadTimestamp(benchmark::State& state) {
  SelectionFixture fixture(3, 50);
  const Guarantee guarantees[] = {
      Guarantee::Strong(),       Guarantee::Causal(),
      Guarantee::BoundedSeconds(30), Guarantee::ReadMyWrites(),
      Guarantee::Monotonic(),    Guarantee::Eventual()};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.session.MinReadTimestamp(
        guarantees[i++ % 6], "key-1", fixture.clock.NowMicros()));
  }
}
BENCHMARK(BM_MinReadTimestamp);

// A full window of state.range(0) samples: every Record also evicts one.
void BM_MonitorRecordLatency(benchmark::State& state) {
  ManualClock clock(SecondsToMicroseconds(1000));
  Monitor::Options options;
  options.latency_window.max_samples = static_cast<size_t>(state.range(0));
  Monitor monitor(&clock, options);
  int64_t i = 0;
  for (; i < state.range(0); ++i) {
    monitor.RecordLatency("node-0", 1000 + i % 500);
  }
  for (auto _ : state) {
    clock.AdvanceMicros(100);
    monitor.RecordLatency("node-0", 1000 + (i++ % 500));
  }
}
BENCHMARK(BM_MonitorRecordLatency)->Arg(50)->Arg(4096);

void BM_MonitorPNodeLat(benchmark::State& state) {
  ManualClock clock(SecondsToMicroseconds(1000));
  Monitor monitor(&clock);
  for (int i = 0; i < state.range(0); ++i) {
    monitor.RecordLatency("node-0", 1000 + i % 500);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        monitor.PNodeLat("node-0", MillisecondsToMicroseconds(1)));
  }
}
BENCHMARK(BM_MonitorPNodeLat)->Arg(50)->Arg(4096);

void BM_EncodeDecodeGetReply(benchmark::State& state) {
  proto::GetReply reply;
  reply.found = true;
  reply.value.assign(100, 'v');
  reply.value_timestamp = Timestamp{123456789, 42};
  reply.high_timestamp = Timestamp{123456999, 7};
  const proto::Message message = reply;
  for (auto _ : state) {
    const std::string bytes = proto::EncodeMessage(message);
    benchmark::DoNotOptimize(proto::DecodeMessage(bytes));
  }
}
BENCHMARK(BM_EncodeDecodeGetReply);

void BM_EncodeDecodeSyncReply(benchmark::State& state) {
  proto::SyncReply reply;
  for (int i = 0; i < 100; ++i) {
    proto::ObjectVersion version;
    version.key = "user" + std::to_string(i);
    version.value.assign(100, 'v');
    version.timestamp = Timestamp{1000000 + i, 0};
    reply.versions.push_back(std::move(version));
  }
  reply.heartbeat = Timestamp{2000000, 0};
  const proto::Message message = reply;
  for (auto _ : state) {
    const std::string bytes = proto::EncodeMessage(message);
    benchmark::DoNotOptimize(proto::DecodeMessage(bytes));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_EncodeDecodeSyncReply);

}  // namespace

BENCHMARK_MAIN();
