// Microbenchmarks of the storage substrate: tablet Put/Get, replication log
// scans, a storage node serving a 50-item scan, the heap a replicated
// version retains, and the workload generator.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include "src/common/clock.h"
#include "src/net/tcp.h"
#include "src/storage/storage_node.h"
#include "src/storage/tablet.h"
#include "src/workload/ycsb.h"
#include "src/workload/zipf.h"

namespace {

using namespace pileus;           // NOLINT
using namespace pileus::storage;  // NOLINT

std::unique_ptr<Tablet> MakePrimaryTablet(ManualClock* clock, int keys) {
  Tablet::Options options;
  options.is_primary = true;
  auto tablet = std::make_unique<Tablet>(options, clock);
  for (int i = 0; i < keys; ++i) {
    clock->AdvanceMicros(10);
    (void)tablet->HandlePut(workload::YcsbWorkload::KeyForIndex(i),
                            std::string(100, 'v'));
  }
  return tablet;
}

void BM_TabletPut(benchmark::State& state) {
  ManualClock clock(1);
  Tablet::Options options;
  options.is_primary = true;
  Tablet tablet(options, &clock);
  int64_t i = 0;
  const std::string value(100, 'v');
  for (auto _ : state) {
    clock.AdvanceMicros(1);
    benchmark::DoNotOptimize(
        tablet.HandlePut(workload::YcsbWorkload::KeyForIndex(i++ % 10000),
                         value));
  }
}
BENCHMARK(BM_TabletPut);

void BM_TabletGet(benchmark::State& state) {
  ManualClock clock(1);
  auto tablet = MakePrimaryTablet(&clock, 10000);
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tablet->HandleGet(workload::YcsbWorkload::KeyForIndex(i++ % 10000)));
  }
}
BENCHMARK(BM_TabletGet);

void BM_SyncScan(benchmark::State& state) {
  ManualClock clock(1);
  auto tablet = MakePrimaryTablet(&clock, 10000);
  // Scan the last `range(0)` updates, as a replication pull would.
  const int64_t lag = state.range(0);
  const Timestamp after{clock.NowMicros() - lag * 10, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tablet->HandleSync(after, 0));
  }
  state.SetItemsProcessed(state.iterations() * lag);
}
BENCHMARK(BM_SyncScan)->Arg(10)->Arg(100)->Arg(1000);

void BM_RangeScan(benchmark::State& state) {
  ManualClock clock(1);
  auto tablet = MakePrimaryTablet(&clock, 10000);
  const int64_t span = state.range(0);
  int64_t start = 0;
  for (auto _ : state) {
    const std::string begin =
        workload::YcsbWorkload::KeyForIndex(start % 9000);
    benchmark::DoNotOptimize(
        tablet->HandleRange(begin, "", static_cast<uint32_t>(span)));
    start += 37;
  }
  state.SetItemsProcessed(state.iterations() * span);
}
BENCHMARK(BM_RangeScan)->Arg(10)->Arg(100)->Arg(1000);

// A scan as a storage node serves it, the stage e2ebench's scan workload
// reports as storage.handle_us_p50.range: StorageNode::Handle of a
// RangeRequest with limit 50 over 10k keys of 100 B values, admission,
// routing and the reply's 50 items (shared versions, not copies) included.
void BM_NodeRange(benchmark::State& state) {
  ManualClock clock(1);
  StorageNode node("bench", "local", &clock);
  (void)node.AddTablet("t", MakePrimaryTablet(&clock, 10000));
  proto::Message request = proto::RangeRequest{};
  auto& range = std::get<proto::RangeRequest>(request);
  range.table = "t";
  range.limit = 50;
  int64_t start = 0;
  for (auto _ : state) {
    range.begin = workload::YcsbWorkload::KeyForIndex(start % 9000);
    benchmark::DoNotOptimize(node.Handle(request));
    start += 37;
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_NodeRange);

// The node's whole share of a scan over TCP: BM_NodeRange's Handle plus the
// reply's wire frame, which TcpServer encodes after Handle returns. Since
// the reply shares the store's versions, reading keys and values moved from
// the handler into the encoder; this pair of benches shows the sum.
void BM_NodeRangeFrame(benchmark::State& state) {
  ManualClock clock(1);
  StorageNode node("bench", "local", &clock);
  (void)node.AddTablet("t", MakePrimaryTablet(&clock, 10000));
  proto::Message request = proto::RangeRequest{};
  auto& range = std::get<proto::RangeRequest>(request);
  range.table = "t";
  range.limit = 50;
  int64_t start = 0;
  uint64_t request_id = 0;
  for (auto _ : state) {
    range.begin = workload::YcsbWorkload::KeyForIndex(start % 9000);
    const std::string frame =
        net::EncodeWireFrame(++request_id, node.Handle(request));
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
    start += 37;
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_NodeRangeFrame);

// Heap a secondary retains per replicated 1 KiB version: store chain, update
// log, key index and the version itself. Measured as the growth of glibc's
// allocated bytes (mallinfo2().uordblks) across range(0) single-version
// pulls of distinct keys into a fresh tablet, and reported as the
// heap_bytes_per_version counter.
void BM_ReplicatedHeapPerVersion(benchmark::State& state) {
  const int64_t versions = state.range(0);
  const std::string value(1024, 'v');
  ManualClock clock(1);
  double retained_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto tablet = std::make_unique<Tablet>(Tablet::Options{}, &clock);
    const size_t before = mallinfo2().uordblks;
    state.ResumeTiming();
    for (int64_t i = 0; i < versions; ++i) {
      proto::SyncReply reply;
      proto::ObjectVersion& version = reply.versions.emplace_back();
      version.key = workload::YcsbWorkload::KeyForIndex(i);
      version.value = value;
      version.timestamp = Timestamp{i + 1, 0};
      reply.heartbeat = version.timestamp;
      benchmark::DoNotOptimize(tablet->ApplySync(reply));
    }
    state.PauseTiming();
    retained_bytes += static_cast<double>(mallinfo2().uordblks - before);
    tablet.reset();
    state.ResumeTiming();
  }
  state.counters["heap_bytes_per_version"] =
      retained_bytes / static_cast<double>(state.iterations() * versions);
  state.SetItemsProcessed(state.iterations() * versions);
}
BENCHMARK(BM_ReplicatedHeapPerVersion)->Arg(10000);

void BM_ZipfianNext(benchmark::State& state) {
  workload::ScrambledZipfianChooser chooser(10000, 0.7);
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chooser.Next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_WorkloadNext(benchmark::State& state) {
  workload::WorkloadOptions options;
  workload::YcsbWorkload workload(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.Next());
  }
}
BENCHMARK(BM_WorkloadNext);

}  // namespace

BENCHMARK_MAIN();
