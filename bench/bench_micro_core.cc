// Microbenchmarks of the client library's hot paths: target selection
// (Figure 8), minimum-acceptable-read-timestamp computation, monitor updates
// and estimates, and the wire codec with its CRC-32. These run on every Get,
// so their cost bounds the client-side overhead Pileus adds over a plain
// key-value client.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/core/monitor.h"
#include "src/core/selection.h"
#include "src/core/session.h"
#include "src/core/sla.h"
#include "src/proto/messages.h"
#include "src/util/crc32.h"
#include "src/workload/ycsb.h"
#include "src/workload/zipf.h"

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
    // What a point Get passes: the key's floors at the op's start.
    const MicrosecondCount now_us = fixture.clock.NowMicros();
    const MinReadTimestampFn min_read = [&fixture,
                                         now_us](const Guarantee& guarantee) {
      return fixture.session.MinReadTimestamp(guarantee, "key-1", now_us);
    };
    benchmark::DoNotOptimize(SelectTarget(fixture.sla, fixture.replicas,
                                          min_read, fixture.monitor, options,
                                          &fixture.rng));
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

// What the client does with each served reply: one RecordReply on a full
// window of state.range(0) samples (its latency sample evicts the oldest).
void BM_MonitorRecordReply(benchmark::State& state) {
  ManualClock clock(SecondsToMicroseconds(1000));
  Monitor::Options options;
  options.latency_window.max_samples = static_cast<size_t>(state.range(0));
  Monitor monitor(&clock, options);
  int64_t i = 0;
  for (; i < state.range(0); ++i) {
    monitor.RecordReply("node-0", 1000 + i % 500, Timestamp{i, 0}, 0);
  }
  for (auto _ : state) {
    clock.AdvanceMicros(100);
    monitor.RecordReply("node-0", 1000 + i % 500, Timestamp{i, 0}, i % 50);
    ++i;
  }
}
BENCHMARK(BM_MonitorRecordReply)->Arg(50)->Arg(4096);

// One e2ebench scan session: 400 scans of 50 consecutive YCSB keys (of
// 10000), each starting at a scrambled-zipfian key (theta 0.7), recorded
// into a fresh session. One iteration is the whole session, its teardown
// included.
void BM_SessionRecordScan(benchmark::State& state) {
  constexpr uint64_t kKeys = 10000;
  constexpr uint64_t kItems = 50;
  constexpr int kScans = 400;
  workload::ScrambledZipfianChooser chooser(kKeys, 0.7);
  Random rng(1);
  std::vector<proto::VersionList> scans(kScans);
  int64_t physical = 1;
  for (proto::VersionList& scan : scans) {
    const uint64_t start = std::min(chooser.Next(rng), kKeys - kItems);
    for (uint64_t k = start; k < start + kItems; ++k) {
      proto::ObjectVersion item;
      item.key = workload::YcsbWorkload::KeyForIndex(k);
      item.value.assign(100, 'v');
      item.timestamp = Timestamp{physical++, 0};
      scan.push_back(proto::MakeVersion(std::move(item)));
    }
  }
  for (auto _ : state) {
    Session session(ShoppingCartSla());
    for (const proto::VersionList& scan : scans) {
      session.RecordScan(scan);
    }
    benchmark::DoNotOptimize(session.tracked_get_keys());
  }
  state.SetItemsProcessed(state.iterations() * kScans * kItems);
}
BENCHMARK(BM_SessionRecordScan)->Unit(benchmark::kMicrosecond);

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

// A scan's reply: 50 items of 100 B values, about 6 KB on the wire. With
// the carry-less CRC-32 kernel, checksumming it (once to encode, once to
// decode) is a small share; the per-field appends and checks and the
// 50 values a decode allocates (into one block of items) are most of the
// cost.
void BM_EncodeDecodeRangeReply(benchmark::State& state) {
  proto::RangeReply reply;
  for (int i = 0; i < 50; ++i) {
    proto::ObjectVersion item;
    item.key = "user" + std::to_string(100000 + i);
    item.value.assign(100, 'v');
    item.timestamp = Timestamp{1000000 + i, 0};
    reply.items.push_back(proto::MakeVersion(std::move(item)));
  }
  reply.truncated = true;
  reply.high_timestamp = Timestamp{2000000, 0};
  const proto::Message message = reply;
  state.counters["frame_bytes"] =
      static_cast<double>(proto::EncodeMessage(message).size());
  for (auto _ : state) {
    const std::string bytes = proto::EncodeMessage(message);
    benchmark::DoNotOptimize(proto::DecodeMessage(bytes));
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_EncodeDecodeRangeReply);

// CRC-32 over a Get-sized frame, a 1 KiB WAL record, a scan reply and a
// checkpoint-sized buffer.
void BM_Crc32(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1024)->Arg(6144)->Arg(1 << 20);

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
