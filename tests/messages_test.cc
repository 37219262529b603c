// Tests for the storage protocol messages: round trips for every message
// type and rejection of malformed input.

#include <gtest/gtest.h>

#include "src/proto/messages.h"
#include "src/util/codec.h"
#include "src/util/crc32.h"

namespace pileus::proto {
namespace {

template <typename T>
T RoundTrip(const T& in) {
  const std::string bytes = EncodeMessage(Message(in));
  Result<Message> decoded = DecodeMessage(bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  const T* out = std::get_if<T>(&decoded.value());
  EXPECT_NE(out, nullptr) << "decoded to wrong alternative";
  return out != nullptr ? *out : T{};
}

TEST(MessagesTest, GetRequestRoundTrip) {
  GetRequest in;
  in.table = "orders";
  in.key = "user42";
  const GetRequest out = RoundTrip(in);
  EXPECT_EQ(out.table, "orders");
  EXPECT_EQ(out.key, "user42");
}

TEST(MessagesTest, GetReplyRoundTrip) {
  GetReply in;
  in.found = true;
  in.value = std::string("\x00\x01\xffx", 4);
  in.value_timestamp = Timestamp{123, 4};
  in.high_timestamp = Timestamp{456, 7};
  in.served_by_primary = true;
  const GetReply out = RoundTrip(in);
  EXPECT_TRUE(out.found);
  EXPECT_EQ(out.value, in.value);
  EXPECT_EQ(out.value_timestamp, in.value_timestamp);
  EXPECT_EQ(out.high_timestamp, in.high_timestamp);
  EXPECT_TRUE(out.served_by_primary);
}

TEST(MessagesTest, AdmissionContextRoundTrip) {
  // Wire v4: requests carry the tenant, remaining deadline, target-rank
  // utility, and strong-read flag; replies carry the server-measured
  // admission queue delay; rejections carry a retry_after hint.
  GetRequest get;
  get.table = "t";
  get.key = "k";
  get.tenant = "tenant-a";
  get.deadline_us = 250'000;
  get.utility_micros = 400'000;
  get.strong_read = true;
  const GetRequest get_out = RoundTrip(get);
  EXPECT_EQ(get_out.tenant, "tenant-a");
  EXPECT_EQ(get_out.deadline_us, 250'000);
  EXPECT_EQ(get_out.utility_micros, 400'000u);
  EXPECT_TRUE(get_out.strong_read);

  PutRequest put;
  put.table = "t";
  put.key = "k";
  put.tenant = "tenant-b";
  put.deadline_us = 1'000'000;
  const PutRequest put_out = RoundTrip(put);
  EXPECT_EQ(put_out.tenant, "tenant-b");
  EXPECT_EQ(put_out.deadline_us, 1'000'000);

  RangeRequest range;
  range.table = "t";
  range.tenant = "tenant-c";
  range.deadline_us = 42;
  range.utility_micros = 100'000;
  range.strong_read = false;
  const RangeRequest range_out = RoundTrip(range);
  EXPECT_EQ(range_out.tenant, "tenant-c");
  EXPECT_EQ(range_out.deadline_us, 42);
  EXPECT_EQ(range_out.utility_micros, 100'000u);
  EXPECT_FALSE(range_out.strong_read);

  GetReply get_reply;
  get_reply.found = true;
  get_reply.value = "v";
  get_reply.queue_delay_us = 7'500;
  EXPECT_EQ(RoundTrip(get_reply).queue_delay_us, 7'500);

  PutReply put_reply;
  put_reply.queue_delay_us = 123;
  EXPECT_EQ(RoundTrip(put_reply).queue_delay_us, 123);

  ErrorReply error;
  error.code = StatusCode::kOverloaded;
  error.message = "shed";
  error.retry_after_ms = 45;
  const ErrorReply error_out = RoundTrip(error);
  EXPECT_EQ(error_out.code, StatusCode::kOverloaded);
  EXPECT_EQ(error_out.retry_after_ms, 45u);
}

TEST(MessagesTest, DataPathClassification) {
  // Data-path requests pass through admission; control traffic (probes,
  // sync pulls, config installs, stats) must bypass it.
  EXPECT_TRUE(IsDataPathRequest(Message(GetRequest{})));
  EXPECT_TRUE(IsDataPathRequest(Message(PutRequest{})));
  EXPECT_TRUE(IsDataPathRequest(Message(RangeRequest{})));
  EXPECT_TRUE(IsDataPathRequest(Message(DeleteRequest{})));
  EXPECT_FALSE(IsDataPathRequest(Message(ProbeRequest{})));
  EXPECT_FALSE(IsDataPathRequest(Message(SyncRequest{})));
  EXPECT_FALSE(IsDataPathRequest(Message(StatsRequest{})));
}

TEST(MessagesTest, MakeOverloadedReplyCarriesHint) {
  const Message reply = MakeOverloadedReply(80);
  const ErrorReply* error = std::get_if<ErrorReply>(&reply);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, StatusCode::kOverloaded);
  EXPECT_EQ(error->retry_after_ms, 80u);
}

TEST(MessagesTest, GetReplyNotFoundRoundTrip) {
  GetReply in;
  in.found = false;
  in.high_timestamp = Timestamp{99, 0};
  const GetReply out = RoundTrip(in);
  EXPECT_FALSE(out.found);
  EXPECT_TRUE(out.value.empty());
}

TEST(MessagesTest, PutRequestReplyRoundTrip) {
  PutRequest req;
  req.table = "t";
  req.key = "k";
  req.value = std::string(1000, 'v');
  EXPECT_EQ(RoundTrip(req).value, req.value);

  PutReply reply;
  reply.timestamp = Timestamp{5, 1};
  reply.high_timestamp = Timestamp{6, 0};
  const PutReply out = RoundTrip(reply);
  EXPECT_EQ(out.timestamp, reply.timestamp);
  EXPECT_EQ(out.high_timestamp, reply.high_timestamp);
}

TEST(MessagesTest, ProbeRoundTrip) {
  ProbeRequest req;
  req.table = "t";
  EXPECT_EQ(RoundTrip(req).table, "t");

  ProbeReply reply;
  reply.high_timestamp = Timestamp{1234, 0};
  reply.is_primary = true;
  const ProbeReply out = RoundTrip(reply);
  EXPECT_EQ(out.high_timestamp, reply.high_timestamp);
  EXPECT_TRUE(out.is_primary);
}

TEST(MessagesTest, SyncRequestRoundTrip) {
  SyncRequest req;
  req.table = "t";
  req.after = Timestamp{777, 3};
  req.max_versions = 1000;
  const SyncRequest out = RoundTrip(req);
  EXPECT_EQ(out.after, req.after);
  EXPECT_EQ(out.max_versions, 1000u);
}

TEST(MessagesTest, SyncReplyRoundTrip) {
  SyncReply reply;
  for (int i = 0; i < 50; ++i) {
    ObjectVersion version;
    version.key = "key" + std::to_string(i);
    version.value = std::string(i, 'x');
    version.timestamp = Timestamp{1000 + i, static_cast<uint32_t>(i)};
    reply.versions.push_back(version);
  }
  reply.heartbeat = Timestamp{2000, 0};
  reply.has_more = true;
  const SyncReply out = RoundTrip(reply);
  ASSERT_EQ(out.versions.size(), 50u);
  EXPECT_EQ(out.versions[49], reply.versions[49]);
  EXPECT_EQ(out.heartbeat, reply.heartbeat);
  EXPECT_TRUE(out.has_more);
}

TEST(MessagesTest, EmptySyncReplyRoundTrip) {
  SyncReply reply;
  reply.heartbeat = Timestamp{1, 0};
  const SyncReply out = RoundTrip(reply);
  EXPECT_TRUE(out.versions.empty());
  EXPECT_FALSE(out.has_more);
}

TEST(MessagesTest, GetAtRoundTrip) {
  GetAtRequest req;
  req.table = "t";
  req.key = "k";
  req.snapshot = Timestamp{42, 0};
  EXPECT_EQ(RoundTrip(req).snapshot, req.snapshot);

  GetAtReply reply;
  reply.found = true;
  reply.value = "v";
  reply.value_timestamp = Timestamp{41, 0};
  reply.snapshot_available = false;
  const GetAtReply out = RoundTrip(reply);
  EXPECT_TRUE(out.found);
  EXPECT_FALSE(out.snapshot_available);
}

TEST(MessagesTest, CommitRoundTrip) {
  CommitRequest req;
  req.table = "t";
  req.snapshot = Timestamp{10, 0};
  req.read_keys = {"a", "b"};
  ObjectVersion w;
  w.key = "c";
  w.value = "v";
  req.writes.push_back(w);
  req.validate_reads = true;
  const CommitRequest out = RoundTrip(req);
  EXPECT_EQ(out.read_keys, req.read_keys);
  ASSERT_EQ(out.writes.size(), 1u);
  EXPECT_EQ(out.writes[0].key, "c");
  EXPECT_TRUE(out.validate_reads);

  CommitReply reply;
  reply.committed = false;
  reply.conflict_key = "c";
  const CommitReply out_reply = RoundTrip(reply);
  EXPECT_FALSE(out_reply.committed);
  EXPECT_EQ(out_reply.conflict_key, "c");
}

TEST(MessagesTest, RangeRoundTrip) {
  RangeRequest req;
  req.table = "t";
  req.begin = "a";
  req.end = "m";
  req.limit = 100;
  const RangeRequest out_req = RoundTrip(req);
  EXPECT_EQ(out_req.begin, "a");
  EXPECT_EQ(out_req.end, "m");
  EXPECT_EQ(out_req.limit, 100u);

  RangeReply reply;
  for (int i = 0; i < 3; ++i) {
    ObjectVersion v;
    v.key = "k" + std::to_string(i);
    v.value = "v";
    v.timestamp = Timestamp{100 + i, 0};
    reply.items.push_back(v);
  }
  reply.truncated = true;
  reply.high_timestamp = Timestamp{200, 0};
  reply.served_by_primary = true;
  const RangeReply out = RoundTrip(reply);
  ASSERT_EQ(out.items.size(), 3u);
  EXPECT_TRUE(out.truncated);
  EXPECT_EQ(out.high_timestamp, reply.high_timestamp);
  EXPECT_TRUE(out.served_by_primary);
}

TEST(MessagesTest, ErrorReplyRoundTrip) {
  ErrorReply err;
  err.code = StatusCode::kNotPrimary;
  err.message = "try the primary";
  err.config_epoch = 7;
  err.primary_hint = "US";
  const ErrorReply out = RoundTrip(err);
  EXPECT_EQ(out.code, StatusCode::kNotPrimary);
  EXPECT_EQ(out.message, "try the primary");
  EXPECT_EQ(out.config_epoch, 7u);
  EXPECT_EQ(out.primary_hint, "US");
}

TEST(MessagesTest, ConfigPiggybackRoundTrips) {
  // Every reply that can carry the Section 6.2 piggyback preserves it.
  GetReply get;
  get.config_epoch = 3;
  get.primary_hint = "India";
  EXPECT_EQ(RoundTrip(get).config_epoch, 3u);
  EXPECT_EQ(RoundTrip(get).primary_hint, "India");

  PutReply put;
  put.config_epoch = 4;
  put.primary_hint = "US";
  EXPECT_EQ(RoundTrip(put).config_epoch, 4u);
  EXPECT_EQ(RoundTrip(put).primary_hint, "US");

  ProbeReply probe;
  probe.config_epoch = 5;
  probe.primary_hint = "England";
  EXPECT_EQ(RoundTrip(probe).config_epoch, 5u);
  EXPECT_EQ(RoundTrip(probe).primary_hint, "England");

  SyncReply sync;
  sync.config_epoch = 6;
  sync.primary_hint = "US";
  EXPECT_EQ(RoundTrip(sync).config_epoch, 6u);
  EXPECT_EQ(RoundTrip(sync).primary_hint, "US");

  RangeReply range;
  range.config_epoch = 7;
  range.primary_hint = "India";
  EXPECT_EQ(RoundTrip(range).config_epoch, 7u);
  EXPECT_EQ(RoundTrip(range).primary_hint, "India");
}

TEST(MessagesTest, TabletMapLeaseAndDurableTimestampRoundTrip) {
  // Wire v7: failover installs maps, so the lease rides on the install and
  // the promotion-ranking durable tail on the reply (Section 6.2).
  TabletMapRequest req;
  req.table = "ycsb";
  req.install = true;
  req.map.table = "ycsb";
  req.map.version = 9;
  tablets::TabletInfo whole;
  whole.range = KeyRange::All();
  whole.config.epoch = 9;
  whole.config.primary = "US";
  whole.config.members = {"England", "US", "India"};
  whole.config.sync_members = {"India"};
  req.map.tablets = {whole};
  req.lease_duration_us = 1500000;
  const TabletMapRequest out_req = RoundTrip(req);
  EXPECT_TRUE(out_req.install);
  EXPECT_EQ(out_req.map, req.map);
  EXPECT_EQ(out_req.lease_duration_us, 1500000);

  TabletMapReply reply;
  reply.accepted = true;
  reply.durable_timestamp = Timestamp{880, 2};
  const TabletMapReply out = RoundTrip(reply);
  EXPECT_TRUE(out.accepted);
  EXPECT_EQ(out.durable_timestamp, reply.durable_timestamp);
}

TEST(MessagesTest, RetiredConfigTagRejected) {
  // Tag 19 carried the table-wide config install, retired in wire v7. A
  // well-formed frame (valid version and checksum) with that tag must still
  // fail to decode rather than alias another message.
  std::string bytes = EncodeMessage(Message(ProbeRequest{}));
  bytes.resize(bytes.size() - 4);  // Drop the CRC trailer.
  bytes[0] = '\x13';                // 19.
  Encoder trailer;
  trailer.PutFixed32(Crc32(bytes));
  bytes += trailer.buffer();
  const Result<Message> decoded = DecodeMessage(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(MessageTypeName(static_cast<MessageType>(19)), "Unknown");
}

TEST(MessagesTest, TypeOfMatchesAlternative) {
  EXPECT_EQ(TypeOf(Message(GetRequest{})), MessageType::kGetRequest);
  EXPECT_EQ(TypeOf(Message(SyncReply{})), MessageType::kSyncReply);
  EXPECT_EQ(TypeOf(Message(ErrorReply{})), MessageType::kErrorReply);
}

TEST(MessagesTest, MessageTypeNamesAreDistinct) {
  EXPECT_EQ(MessageTypeName(MessageType::kGetRequest), "GetRequest");
  EXPECT_EQ(MessageTypeName(MessageType::kCommitReply), "CommitReply");
}

// --- Malformed input ---

TEST(MessagesTest, EmptyBufferRejected) {
  EXPECT_FALSE(DecodeMessage("").ok());
}

TEST(MessagesTest, StatsRoundTrip) {
  StatsRequest request;
  request.format = "prometheus";
  EXPECT_EQ(RoundTrip(request).format, "prometheus");

  StatsReply reply;
  reply.text = "# TYPE x counter\nx 1\n";
  EXPECT_EQ(RoundTrip(reply).text, reply.text);
  EXPECT_EQ(TypeOf(Message(request)), MessageType::kStatsRequest);
  EXPECT_EQ(MessageTypeName(MessageType::kStatsReply), "StatsReply");
}

TEST(MessagesTest, UnknownTypeRejected) {
  std::string bytes = EncodeMessage(Message(GetRequest{}));
  bytes[0] = '\x7f';
  EXPECT_EQ(DecodeMessage(bytes).status().code(), StatusCode::kCorruption);
}

TEST(MessagesTest, WrongWireVersionRejected) {
  std::string bytes = EncodeMessage(Message(GetRequest{}));
  bytes[1] = '\x09';
  EXPECT_EQ(DecodeMessage(bytes).status().code(), StatusCode::kCorruption);
}

TEST(MessagesTest, TruncatedBodyRejected) {
  GetReply reply;
  reply.found = true;
  reply.value = "some value bytes";
  const std::string bytes = EncodeMessage(Message(reply));
  for (size_t cut = 2; cut < bytes.size(); cut += 3) {
    EXPECT_FALSE(DecodeMessage(bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(MessagesTest, TrailingBytesRejected) {
  std::string bytes = EncodeMessage(Message(ProbeRequest{}));
  bytes += "junk";
  EXPECT_EQ(DecodeMessage(bytes).status().code(), StatusCode::kCorruption);
}

TEST(MessagesTest, MonitorReportRoundTrip) {
  // Wire v5: the shared-monitoring control plane (DESIGN.md Section 12).
  MonitorReport in;
  in.reporter = "frontend-us";
  in.seq = 42;
  in.table = "orders";
  monitoring::NodeCondition cond;
  cond.node = "England";
  cond.sample_count = 17;
  cond.mean_latency_us = 1500;
  cond.p50_latency_us = 1200;
  cond.p95_latency_us = 4000;
  cond.p99_latency_us = 9000;
  cond.high_timestamp = Timestamp{123456, 7};
  cond.high_age_us = 2500;
  cond.p_up = 0.875;
  cond.queue_delay_us = 300;
  cond.overloaded = true;
  in.conditions.push_back(cond);
  monitoring::NodeCondition never_seen;
  never_seen.node = "China";
  never_seen.high_age_us = -1;  // Signed sentinel must survive the wire.
  in.conditions.push_back(never_seen);
  const MonitorReport out = RoundTrip(in);
  EXPECT_EQ(out.reporter, "frontend-us");
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.table, "orders");
  ASSERT_EQ(out.conditions.size(), 2u);
  EXPECT_EQ(out.conditions[0], cond);
  EXPECT_EQ(out.conditions[1].high_age_us, -1);
}

TEST(MessagesTest, DigestSubscribeRoundTrip) {
  DigestSubscribe in;
  in.table = "t";
  in.have_version = 9;
  const DigestSubscribe out = RoundTrip(in);
  EXPECT_EQ(out.table, "t");
  EXPECT_EQ(out.have_version, 9u);
}

TEST(MessagesTest, DigestPushRoundTrip) {
  DigestPush in;
  in.has_digest = true;
  in.digest.version = 12;
  in.digest.reports_merged = 3;
  monitoring::NodeCondition cond;
  cond.node = "n1";
  cond.sample_count = 5;
  cond.p50_latency_us = 700;
  cond.p95_latency_us = 1400;
  cond.p99_latency_us = 2100;
  cond.p_up = 0.5;
  in.digest.nodes.push_back(cond);
  const DigestPush out = RoundTrip(in);
  EXPECT_TRUE(out.has_digest);
  EXPECT_EQ(out.digest, in.digest);
}

TEST(MessagesTest, EmptyDigestPushRoundTrip) {
  DigestPush in;  // has_digest = false: "you are already current".
  const DigestPush out = RoundTrip(in);
  EXPECT_FALSE(out.has_digest);
  EXPECT_EQ(out.digest.version, 0u);
}

TEST(MessagesTest, MonitoringMessagesAreControlTraffic) {
  // Reports and digests must keep flowing while a node sheds load, exactly
  // like probes and sync pulls.
  EXPECT_FALSE(IsDataPathRequest(Message(MonitorReport{})));
  EXPECT_FALSE(IsDataPathRequest(Message(DigestSubscribe{})));
  EXPECT_FALSE(IsDataPathRequest(Message(DigestPush{})));
}

TEST(MessagesTest, TabletMapRequestRoundTrip) {
  // Wire v6: the dynamic-tablet map exchange (DESIGN.md Section 14).
  TabletMapRequest in;
  in.table = "orders";
  in.have_version = 7;
  in.install = true;
  in.map.table = "orders";
  in.map.version = 8;
  tablets::TabletInfo left;
  left.range = KeyRange{"", "m"};
  left.config.epoch = 3;
  left.config.primary = "alpha";
  left.config.members = {"alpha", "beta"};
  left.config.sync_members = {"beta"};
  left.size_bytes = 4096;
  left.ops_per_sec = 120;
  tablets::TabletInfo right;
  right.range = KeyRange{"m", ""};
  right.config.epoch = 5;
  right.config.primary = "beta";
  right.config.members = {"beta"};
  in.map.tablets = {left, right};
  in.split_key = "q";
  const TabletMapRequest out = RoundTrip(in);
  EXPECT_EQ(out.table, "orders");
  EXPECT_EQ(out.have_version, 7u);
  EXPECT_TRUE(out.install);
  EXPECT_EQ(out.map, in.map);
  EXPECT_EQ(out.split_key, "q");
}

TEST(MessagesTest, TabletMapReplyRoundTrip) {
  TabletMapReply in;
  in.accepted = true;
  in.has_map = true;
  in.map.table = "t";
  in.map.version = 12;
  tablets::TabletInfo whole;
  whole.range = KeyRange::All();
  whole.config.epoch = 1;
  whole.config.primary = "n1";
  whole.config.members = {"n1"};
  in.map.tablets = {whole};
  const TabletMapReply out = RoundTrip(in);
  EXPECT_TRUE(out.accepted);
  EXPECT_TRUE(out.has_map);
  EXPECT_EQ(out.map, in.map);
}

TEST(MessagesTest, ErrorReplyCarriesTabletHints) {
  // A kWrongTablet fence redirects the client: the owning primary and the
  // fencing node's map version ride on the error.
  ErrorReply in;
  in.code = StatusCode::kWrongTablet;
  in.message = "tablet moved";
  in.primary_hint = "gamma";
  in.map_version = 9;
  const ErrorReply out = RoundTrip(in);
  EXPECT_EQ(out.code, StatusCode::kWrongTablet);
  EXPECT_EQ(out.primary_hint, "gamma");
  EXPECT_EQ(out.map_version, 9u);
}

TEST(MessagesTest, RangedSyncRoundTrip) {
  // Wire v6: migration catch-up pulls ask for one tablet's range only.
  SyncRequest in;
  in.table = "t";
  in.after = Timestamp{100, 1};
  in.max_versions = 64;
  in.has_range = true;
  in.range_begin = "k100";
  in.range_end = "k200";
  const SyncRequest out = RoundTrip(in);
  EXPECT_TRUE(out.has_range);
  EXPECT_EQ(out.range_begin, "k100");
  EXPECT_EQ(out.range_end, "k200");
  EXPECT_EQ(out.max_versions, 64u);
}

TEST(MessagesTest, AbsurdConditionCountRejected) {
  // Hand-craft a MonitorReport claiming 2^40 conditions.
  std::string bytes;
  bytes.push_back(static_cast<char>(MessageType::kMonitorReport));
  bytes.push_back('\x06');  // Wire version (must be current: a stale
                            // version byte would trip the version check
                            // before the count guard this test is about).
  bytes.push_back('\x01');  // reporter = "r"
  bytes.push_back('r');
  bytes.push_back('\x01');  // seq = 1
  bytes.push_back('\x01');  // table = "t"
  bytes.push_back('t');
  for (int i = 0; i < 5; ++i) {
    bytes.push_back('\x80');
  }
  bytes.push_back('\x10');
  EXPECT_FALSE(DecodeMessage(bytes).ok());
}

TEST(MessagesTest, AbsurdSyncCountRejected) {
  // Hand-craft a SyncReply header claiming 2^40 versions.
  std::string bytes;
  bytes.push_back(static_cast<char>(MessageType::kSyncReply));
  bytes.push_back('\x06');  // Wire version (current, so the count guard —
                            // not the version check — does the rejecting).
  // Varint for 2^40.
  for (int i = 0; i < 5; ++i) {
    bytes.push_back('\x80');
  }
  bytes.push_back('\x10');
  EXPECT_FALSE(DecodeMessage(bytes).ok());
}

}  // namespace
}  // namespace pileus::proto
