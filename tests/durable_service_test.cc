// Tests for DurableStorageService, the adapter that serves one durable
// tablet through a StorageNode: protocol dispatch onto journaled storage,
// fencing, group commit, and full restart cycles through the adapter.

#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/persist/durable_service.h"
#include "src/persist/wal.h"
#include "tests/numbered_key.h"

namespace pileus::persist {
namespace {

// The committer publishes its acked()/syncs() counters after invoking the
// acks that unblock Handle, so a reader racing the committer thread can
// briefly see a stale count. Poll up to a deadline before comparing.
uint64_t AwaitCounter(const std::function<uint64_t()>& value,
                      uint64_t at_least) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (value() < at_least && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return value();
}

class DurableServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/pileus_service_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    (void)::system(cmd.c_str());
  }

  std::unique_ptr<DurableTablet> OpenTablet() {
    DurableTablet::Options options;
    options.directory = dir_;
    options.tablet.is_primary = true;
    auto opened = DurableTablet::Open(options, &clock_);
    EXPECT_TRUE(opened.ok()) << opened.status();
    return std::move(opened).value();
  }

  ManualClock clock_{SecondsToMicroseconds(1000)};
  std::string dir_;
};

TEST_F(DurableServiceTest, PutGetProbeSyncDispatch) {
  auto tablet = OpenTablet();
  DurableStorageService service("t", tablet.get());

  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  put.value = "v";
  proto::Message put_reply = service.Handle(put);
  ASSERT_TRUE(std::holds_alternative<proto::PutReply>(put_reply));

  proto::GetRequest get;
  get.table = "t";
  get.key = "k";
  proto::Message get_reply = service.Handle(get);
  const auto* gr = std::get_if<proto::GetReply>(&get_reply);
  ASSERT_NE(gr, nullptr);
  EXPECT_TRUE(gr->found);
  EXPECT_EQ(gr->value, "v");
  EXPECT_TRUE(gr->served_by_primary);

  proto::ProbeRequest probe;
  probe.table = "t";
  proto::Message probe_reply = service.Handle(probe);
  const auto* pr = std::get_if<proto::ProbeReply>(&probe_reply);
  ASSERT_NE(pr, nullptr);
  EXPECT_TRUE(pr->is_primary);
  EXPECT_GT(pr->high_timestamp, Timestamp::Zero());

  proto::SyncRequest sync;
  sync.table = "t";
  proto::Message sync_reply = service.Handle(sync);
  const auto* sr = std::get_if<proto::SyncReply>(&sync_reply);
  ASSERT_NE(sr, nullptr);
  EXPECT_EQ(sr->versions.size(), 1u);
  EXPECT_EQ(service.requests_served(), 4u);
}

TEST_F(DurableServiceTest, WrongTableRejected) {
  auto tablet = OpenTablet();
  DurableStorageService service("t", tablet.get());
  proto::GetRequest get;
  get.table = "other";
  get.key = "k";
  proto::Message reply = service.Handle(get);
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kWrongNode);
}

TEST_F(DurableServiceTest, RangeDispatch) {
  auto tablet = OpenTablet();
  DurableStorageService service("t", tablet.get());
  for (const char* key : {"a", "b", "c"}) {
    proto::PutRequest put;
    put.table = "t";
    put.key = key;
    put.value = "v";
    clock_.AdvanceMicros(1);
    (void)service.Handle(put);
  }
  proto::RangeRequest range;
  range.table = "t";
  range.begin = "a";
  range.end = "c";
  proto::Message reply = service.Handle(range);
  const auto* rr = std::get_if<proto::RangeReply>(&reply);
  ASSERT_NE(rr, nullptr);
  EXPECT_EQ(rr->items.size(), 2u);
  EXPECT_TRUE(rr->served_by_primary);
}

// The adapter's node fences like any other: it accepts tablet-map
// installs, rejects writes once the map names another primary, and
// journals the installed config so a restart recovers it.
TEST_F(DurableServiceTest, MapInstallsFenceWritesAndAreJournaled) {
  const auto install = [](uint64_t version, const std::string& primary) {
    proto::TabletMapRequest request;
    request.table = "t";
    request.install = true;
    request.map.table = "t";
    request.map.version = version;
    tablets::TabletInfo entry;
    entry.range = KeyRange::All();
    entry.config.epoch = version;
    entry.config.primary = primary;
    entry.config.members = {"durable", "other"};
    request.map.tablets.push_back(entry);
    return request;
  };
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  put.value = "v";
  {
    auto tablet = OpenTablet();
    DurableStorageService service("t", tablet.get());
    proto::Message reply = service.Handle(install(1, "durable"));
    ASSERT_TRUE(std::holds_alternative<proto::TabletMapReply>(reply));
    EXPECT_TRUE(std::get<proto::TabletMapReply>(reply).accepted);
    EXPECT_TRUE(std::holds_alternative<proto::PutReply>(service.Handle(put)));

    reply = service.Handle(install(2, "other"));
    EXPECT_TRUE(std::get<proto::TabletMapReply>(reply).accepted);
    reply = service.Handle(put);
    const auto* err = std::get_if<proto::ErrorReply>(&reply);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, StatusCode::kNotPrimary);
    EXPECT_EQ(err->primary_hint, "other");
  }
  auto reopened = OpenTablet();
  ASSERT_TRUE(reopened->recovery_info().config.has_value());
  EXPECT_EQ(reopened->recovery_info().config->epoch, 2u);
  EXPECT_EQ(reopened->recovery_info().config->primary, "other");
}

TEST_F(DurableServiceTest, NonRequestRejected) {
  auto tablet = OpenTablet();
  DurableStorageService service("t", tablet.get());
  proto::Message reply = service.Handle(proto::Message(proto::GetReply{}));
  EXPECT_TRUE(std::holds_alternative<proto::ErrorReply>(reply));
}

// --- Group-commit durability ---
//
// The contract under test (StorageNode::HandleAsync, group_commit.h): with
// group commit on, a mutation is acked only after a batch fsync covers its
// WAL append. So a crash can lose writes that were appended but never acked —
// and must never lose a write whose client saw a reply.

TEST_F(DurableServiceTest, GroupCommitCrashLosesOnlyUnackedWrites) {
  const std::string wal_path = dir_ + "/wal.log";
  constexpr int kAcked = 24;
  constexpr int kUnacked = 8;
  uint64_t acked_bytes = 0;
  uint64_t final_bytes = 0;
  {
    auto tablet = OpenTablet();
    GroupCommitConfig config;
    config.enabled = true;
    // Phase 1 fills exactly one batch and the delay never fires, so one
    // sync covers phase 1 and nothing else: that pins exactly where the
    // durability frontier sits.
    config.max_batch = kAcked;
    config.max_delay_us = SecondsToMicroseconds(10);
    DurableStorageService service("t", tablet.get(), config);

    // Phase 1: writes the clients were told are durable.
    std::atomic<int> acked{0};
    for (int i = 0; i < kAcked; ++i) {
      clock_.AdvanceMicros(1);
      proto::PutRequest put;
      put.table = "t";
      put.key = NumberedKey("a", i);
      put.value = NumberedKey("av", i);
      service.HandleAsync(put, [&acked](proto::Message reply) {
        EXPECT_TRUE(std::holds_alternative<proto::PutReply>(reply));
        ++acked;
      });
    }
    ASSERT_EQ(AwaitCounter([&acked] { return acked.load(); }, kAcked),
              static_cast<uint64_t>(kAcked));
    acked_bytes = tablet->wal().bytes_written();

    // Phase 2: appended to the WAL (reached the kernel) but never covered
    // by a sync — the clients never hear back before the "crash".
    std::atomic<int> late_acks{0};
    for (int i = 0; i < kUnacked; ++i) {
      clock_.AdvanceMicros(1);
      proto::PutRequest put;
      put.table = "t";
      put.key = NumberedKey("u", i);
      put.value = NumberedKey("uv", i);
      service.HandleAsync(put, [&late_acks](proto::Message) { ++late_acks; });
    }
    final_bytes = tablet->wal().bytes_written();
    ASSERT_GT(final_bytes, acked_bytes);
    EXPECT_EQ(late_acks.load(), 0);
    // The 24 put acks; nothing from phase 2.
    GroupCommitter* committer = service.group_committer();
    EXPECT_EQ(AwaitCounter([committer] { return committer->acked(); }, kAcked),
              static_cast<uint64_t>(kAcked));
    // Reads see pending writes immediately: the in-memory tablet is ahead
    // of the durability frontier by design.
    proto::GetRequest get;
    get.table = "t";
    get.key = "u0";
    proto::Message reply = service.Handle(get);
    EXPECT_TRUE(std::get<proto::GetReply>(reply).found);
  }

  // Simulate crashes at every interesting point at or after the last
  // covering sync: the full tail survives, the tail is partially lost, the
  // tail is torn mid-record, the tail is gone entirely. Acked writes must
  // recover at every cut; unacked writes may or may not, but a recovered
  // one must be intact and recovery must be a prefix of the issue order.
  const uint64_t tail = final_bytes - acked_bytes;
  std::vector<uint64_t> cuts = {final_bytes, acked_bytes + 2 * tail / 3,
                                acked_bytes + tail / 3, acked_bytes + 1,
                                acked_bytes};
  uint64_t previous_cut = final_bytes + 1;
  for (const uint64_t cut : cuts) {
    if (cut >= previous_cut) {
      continue;  // Truncation points must strictly shrink.
    }
    previous_cut = cut;
    ASSERT_EQ(::truncate(wal_path.c_str(), static_cast<off_t>(cut)), 0);

    // Journal cross-check before replay: the surviving records are exactly
    // a prefix of the issue order — all acked writes, then zero or more
    // unacked ones, never a gap and never garbage.
    auto journal = WriteAheadLog::ReadVersions(wal_path);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_GE(journal.value().size(), static_cast<size_t>(kAcked));
    ASSERT_LE(journal.value().size(), static_cast<size_t>(kAcked + kUnacked));
    for (size_t i = 0; i < journal.value().size(); ++i) {
      const int n = static_cast<int>(i);
      const std::string expected_key =
          n < kAcked ? NumberedKey("a", n)
                     : NumberedKey("u", n - kAcked);
      EXPECT_EQ(journal.value()[i].key, expected_key) << "cut=" << cut;
    }

    auto reopened = OpenTablet();
    for (int i = 0; i < kAcked; ++i) {
      const proto::GetReply got = reopened->HandleGet(NumberedKey("a", i));
      EXPECT_TRUE(got.found) << "acked write a" << i << " lost at cut=" << cut;
      EXPECT_EQ(got.value, NumberedKey("av", i));
    }
    for (int i = 0; i < kUnacked; ++i) {
      const proto::GetReply got = reopened->HandleGet(NumberedKey("u", i));
      if (got.found) {
        EXPECT_EQ(got.value, NumberedKey("uv", i)) << "cut=" << cut;
      }
    }
    EXPECT_EQ(reopened->recovery_info().wal_versions, journal.value().size());
  }
  // The last cut removed the whole unacked tail: exactly the acked writes.
  EXPECT_EQ(previous_cut, acked_bytes);
}

TEST_F(DurableServiceTest, GroupCommitAmortizesSyncsAcrossAckedWrites) {
  auto tablet = OpenTablet();
  GroupCommitConfig config;
  config.enabled = true;
  config.max_batch = 16;
  config.max_delay_us = SecondsToMicroseconds(10);  // Batch-size-driven only.
  DurableStorageService service("t", tablet.get(), config);

  constexpr int kWrites = 48;
  std::atomic<int> acked{0};
  for (int i = 0; i < kWrites; ++i) {
    clock_.AdvanceMicros(1);
    proto::PutRequest put;
    put.table = "t";
    put.key = NumberedKey("k", i);
    put.value = NumberedKey("v", i);
    service.HandleAsync(put, [&acked](proto::Message reply) {
      EXPECT_TRUE(std::holds_alternative<proto::PutReply>(reply));
      ++acked;
    });
  }
  GroupCommitter* committer = service.group_committer();
  ASSERT_NE(committer, nullptr);
  committer->Stop();  // Syncs the last partial batch and releases its acks.
  ASSERT_EQ(acked.load(), kWrites);
  EXPECT_EQ(committer->acked(), static_cast<uint64_t>(kWrites));
  // With max_batch=16 the committer needs at most ceil(48/16) batch syncs
  // plus Stop's final one; it may batch even wider if it wakes late. The
  // point of the feature: syncs are a small fraction of acked writes.
  EXPECT_GE(committer->syncs(), 1u);
  EXPECT_LE(committer->syncs(), 4u);

  // WAL replay cross-check: every acked write journaled, in issue order.
  auto journal = WriteAheadLog::ReadVersions(dir_ + "/wal.log");
  ASSERT_TRUE(journal.ok()) << journal.status();
  ASSERT_EQ(journal.value().size(), static_cast<size_t>(kWrites));
  for (int i = 0; i < kWrites; ++i) {
    EXPECT_EQ(journal.value()[i].key, NumberedKey("k", i));
    EXPECT_EQ(journal.value()[i].value, NumberedKey("v", i));
  }
}

TEST_F(DurableServiceTest, SyncHandleBlocksUntilDurableUnderGroupCommit) {
  // The synchronous Handle path wraps HandleAsync: when it returns a
  // successful mutation reply, the covering sync has already happened, so a
  // crash immediately after can no longer lose the write.
  const std::string wal_path = dir_ + "/wal.log";
  {
    auto tablet = OpenTablet();
    GroupCommitConfig config;
    config.enabled = true;
    config.max_batch = 4;
    config.max_delay_us = 500;
    DurableStorageService service("t", tablet.get(), config);
    for (int i = 0; i < 6; ++i) {
      clock_.AdvanceMicros(1);
      proto::PutRequest put;
      put.table = "t";
      put.key = NumberedKey("k", i);
      put.value = "v";
      proto::Message reply = service.Handle(put);
      ASSERT_TRUE(std::holds_alternative<proto::PutReply>(reply));
    }
    GroupCommitter* committer = service.group_committer();
    EXPECT_GE(AwaitCounter([committer] { return committer->acked(); }, 6), 6u);
  }
  // No truncation needed: everything acked was synced, so the journal on
  // disk holds all six writes even though the WAL fd is long closed.
  auto reopened = OpenTablet();
  EXPECT_EQ(reopened->recovery_info().wal_versions, 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(reopened->HandleGet(NumberedKey("k", i)).found);
  }
}

}  // namespace
}  // namespace pileus::persist
