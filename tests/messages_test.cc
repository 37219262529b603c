// Tests for the storage protocol messages: round trips for every message
// type and rejection of malformed input.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/common/clock.h"
#include "src/net/tcp.h"
#include "src/proto/messages.h"
#include "src/storage/storage_node.h"
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
    reply.items.push_back(MakeVersion(v));
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

TEST(MessagesTest, ErrorReplyWithRetiredCodeRejected) {
  // 2, 8 and 12 are the wire values of deleted status codes; like a value
  // above kMaxStatusCode, they must not decode into an unnamed StatusCode.
  for (const int code : {2, 8, 12, static_cast<int>(kMaxStatusCode) + 1}) {
    SCOPED_TRACE(code);
    ErrorReply err;
    err.code = static_cast<StatusCode>(code);
    const Result<Message> decoded = DecodeMessage(EncodeMessage(Message(err)));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
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
  // Tags 19 and 20 carried the table-wide config install, retired in wire
  // v7; tags 9 to 12 the snapshot-transaction extension's snapshot reads and
  // commits; tags 21 to 23 the fleet-monitoring aggregator's reports and
  // digests. A well-formed frame (valid version and checksum) with such a
  // tag must still fail to decode rather than alias another message.
  for (const uint8_t tag : {19, 20, 9, 10, 11, 12, 21, 22, 23}) {
    SCOPED_TRACE(static_cast<int>(tag));
    std::string bytes = EncodeMessage(Message(ProbeRequest{}));
    bytes.resize(bytes.size() - 4);  // Drop the CRC trailer.
    bytes[0] = static_cast<char>(tag);
    Encoder trailer;
    trailer.PutFixed32(Crc32(bytes));
    bytes += trailer.buffer();
    const Result<Message> decoded = DecodeMessage(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(MessageTypeName(static_cast<MessageType>(tag)), "Unknown");
  }
}

TEST(MessagesTest, TypeOfMatchesAlternative) {
  EXPECT_EQ(TypeOf(Message(GetRequest{})), MessageType::kGetRequest);
  EXPECT_EQ(TypeOf(Message(SyncReply{})), MessageType::kSyncReply);
  EXPECT_EQ(TypeOf(Message(ErrorReply{})), MessageType::kErrorReply);
}

TEST(MessagesTest, MessageTypeNamesAreDistinct) {
  EXPECT_EQ(MessageTypeName(MessageType::kGetRequest), "GetRequest");
  EXPECT_EQ(MessageTypeName(MessageType::kTabletMapReply), "TabletMapReply");
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

// Fixed messages whose wire frames are pinned byte for byte below. Keys,
// values, timestamps and flags vary per item; the timestamps need multi-byte
// varints, and some values hold bytes >= 0x80.
ObjectVersion GoldenItem(int i) {
  ObjectVersion v;
  v.key = "user" + std::to_string(100000 + i);
  for (int j = 0; j < 16; ++j) {
    v.value.push_back(static_cast<char>((i * 37 + j * 11) & 0xff));
  }
  v.timestamp = Timestamp{1'700'000'000'000'000 + i * 1'013,
                          static_cast<uint32_t>(i * 300)};
  v.is_tombstone = i % 17 == 5;
  return v;
}

RangeReply GoldenRangeReply() {
  RangeReply reply;
  for (int i = 0; i < 50; ++i) {
    reply.items.push_back(MakeVersion(GoldenItem(i)));
  }
  reply.truncated = true;
  reply.high_timestamp = Timestamp{1'700'000'000'100'000, 70'000};
  reply.served_by_primary = true;
  reply.config_epoch = 300;
  reply.primary_hint = "primary-eu";
  reply.queue_delay_us = 1'234;
  return reply;
}

SyncReply GoldenSyncReply() {
  SyncReply reply;
  for (int i = 50; i < 100; ++i) {
    reply.versions.push_back(GoldenItem(i));
  }
  reply.heartbeat = Timestamp{1'700'000'000'200'000, 9};
  reply.has_more = true;
  reply.config_epoch = 300;
  reply.primary_hint = "primary-eu";
  return reply;
}

std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char ch : bytes) {
    const auto byte = static_cast<unsigned char>(ch);
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xf]);
  }
  return hex;
}

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

// Whole wire frames (length, request id, message, CRC-32 trailer) of the
// golden messages, as written by wire version 7.
// 1996 bytes, CRC-32 of the whole frame 6baf7a96
constexpr const char* kGoldenRangeFrameV7 =
    "c807000007000000000000000f07320a7573657231303030303010000b16212c37424d58"
    "636e79848f9aa58080f2818389850600000a757365723130303030311025303b46515c67"
    "727d88939ea9b4bfcaea8ff28183898506ac02000a75736572313030303032104a55606b"
    "76818c97a2adb8c3ced9e4efd49ff28183898506d804000a75736572313030303033106f"
    "7a85909ba6b1bcc7d2dde8f3fe0914beaff281838985068407000a757365723130303030"
    "3410949faab5c0cbd6e1ecf7020d18232e39a8bff28183898506b009000a757365723130"
    "3030303510b9c4cfdae5f0fb06111c27323d48535e92cff28183898506dc0b010a757365"
    "7231303030303610dee9f4ff0a15202b36414c57626d7883fcdef28183898506880e000a"
    "7573657231303030303710030e19242f3a45505b66717c87929da8e6eef28183898506b4"
    "10000a757365723130303030381028333e49545f6a75808b96a1acb7c2cdd0fef2818389"
    "8506e012000a75736572313030303039104d58636e79848f9aa5b0bbc6d1dce7f2ba8ef3"
    "81838985068c15000a7573657231303030313010727d88939ea9b4bfcad5e0ebf6010c17"
    "a49ef38183898506b817000a757365723130303031311097a2adb8c3ced9e4effa05101b"
    "26313c8eaef38183898506e419000a7573657231303030313210bcc7d2dde8f3fe09141f"
    "2a35404b5661f8bdf38183898506901c000a7573657231303030313310e1ecf7020d1823"
    "2e39444f5a65707b86e2cdf38183898506bc1e000a757365723130303031341006111c27"
    "323d48535e69747f8a95a0abccddf38183898506e820000a75736572313030303135102b"
    "36414c57626d78838e99a4afbac5d0b6edf381838985069423000a757365723130303031"
    "3610505b66717c87929da8b3bec9d4dfeaf5a0fdf38183898506c025000a757365723130"
    "303031371075808b96a1acb7c2cdd8e3eef9040f1a8a8df48183898506ec27000a757365"
    "72313030303138109aa5b0bbc6d1dce7f2fd08131e29343ff49cf48183898506982a000a"
    "7573657231303030313910bfcad5e0ebf6010c17222d38434e5964deacf48183898506c4"
    "2c000a7573657231303030323010e4effa05101b26313c47525d68737e89c8bcf4818389"
    "8506f02e000a757365723130303032311009141f2a35404b56616c77828d98a3aeb2ccf4"
    "81838985069c31000a75736572313030303232102e39444f5a65707b86919ca7b2bdc8d3"
    "9cdcf48183898506c833010a7573657231303030323310535e69747f8a95a0abb6c1ccd7"
    "e2edf886ecf48183898506f435000a757365723130303032341078838e99a4afbac5d0db"
    "e6f1fc07121df0fbf48183898506a038000a75736572313030303235109da8b3bec9d4df"
    "eaf5000b16212c3742da8bf58183898506cc3a000a7573657231303030323610c2cdd8e3"
    "eef9040f1a25303b46515c67c49bf58183898506f83c000a7573657231303030323710e7"
    "f2fd08131e29343f4a55606b76818caeabf58183898506a43f000a757365723130303032"
    "38100c17222d38434e59646f7a85909ba6b198bbf58183898506d041000a757365723130"
    "3030323910313c47525d68737e89949faab5c0cbd682cbf58183898506fc43000a757365"
    "723130303033301056616c77828d98a3aeb9c4cfdae5f0fbecdaf58183898506a846000a"
    "75736572313030303331107b86919ca7b2bdc8d3dee9f4ff0a1520d6eaf58183898506d4"
    "48000a7573657231303030333210a0abb6c1ccd7e2edf8030e19242f3a45c0faf5818389"
    "8506804b000a7573657231303030333310c5d0dbe6f1fc07121d28333e49545f6aaa8af6"
    "8183898506ac4d000a7573657231303030333410eaf5000b16212c37424d58636e79848f"
    "949af68183898506d84f000a75736572313030303335100f1a25303b46515c67727d8893"
    "9ea9b4fea9f681838985068452000a7573657231303030333610343f4a55606b76818c97"
    "a2adb8c3ced9e8b9f68183898506b054000a757365723130303033371059646f7a85909b"
    "a6b1bcc7d2dde8f3fed2c9f68183898506dc56000a75736572313030303338107e89949f"
    "aab5c0cbd6e1ecf7020d1823bcd9f681838985068859000a7573657231303030333910a3"
    "aeb9c4cfdae5f0fb06111c27323d48a6e9f68183898506b45b010a757365723130303034"
    "3010c8d3dee9f4ff0a15202b36414c57626d90f9f68183898506e05d000a757365723130"
    "3030343110edf8030e19242f3a45505b66717c8792fa88f781838985068c60000a757365"
    "7231303030343210121d28333e49545f6a75808b96a1acb7e498f78183898506b862000a"
    "757365723130303034331037424d58636e79848f9aa5b0bbc6d1dccea8f78183898506e4"
    "64000a75736572313030303434105c67727d88939ea9b4bfcad5e0ebf601b8b8f7818389"
    "85069067000a7573657231303030343510818c97a2adb8c3ced9e4effa05101b26a2c8f7"
    "8183898506bc69000a7573657231303030343610a6b1bcc7d2dde8f3fe09141f2a35404b"
    "8cd8f78183898506e86b000a7573657231303030343710cbd6e1ecf7020d18232e39444f"
    "5a6570f6e7f78183898506946e000a7573657231303030343810f0fb06111c27323d4853"
    "5e69747f8a95e0f7f78183898506c070000a757365723130303034391015202b36414c57"
    "626d78838e99a4afbaca87f88183898506ec720001c09afe8183898506f0a20401ac020a"
    "7072696d6172792d6575d209b0c0eb69";
// 2037 bytes, CRC-32 of the whole frame 0932b727
constexpr const char* kGoldenSyncFrameV7 =
    "f107000008000000000000000807320a75736572313030303530103a45505b66717c8792"
    "9da8b3bec9d4dfb497f881838985069875000a75736572313030303531105f6a75808b96"
    "a1acb7c2cdd8e3eef9049ea7f88183898506c477000a7573657231303030353210848f9a"
    "a5b0bbc6d1dce7f2fd08131e2988b7f88183898506f079000a7573657231303030353310"
    "a9b4bfcad5e0ebf6010c17222d38434ef2c6f881838985069c7c000a7573657231303030"
    "353410ced9e4effa05101b26313c47525d6873dcd6f88183898506c87e000a7573657231"
    "303030353510f3fe09141f2a35404b56616c77828d98c6e6f88183898506f48001000a75"
    "7365723130303035361018232e39444f5a65707b86919ca7b2bdb0f6f88183898506a083"
    "01010a75736572313030303537103d48535e69747f8a95a0abb6c1ccd7e29a86f9818389"
    "8506cc8501000a7573657231303030353810626d78838e99a4afbac5d0dbe6f1fc078496"
    "f98183898506f88701000a757365723130303035391087929da8b3bec9d4dfeaf5000b16"
    "212ceea5f98183898506a48a01000a7573657231303030363010acb7c2cdd8e3eef9040f"
    "1a25303b4651d8b5f98183898506d08c01000a7573657231303030363110d1dce7f2fd08"
    "131e29343f4a55606b76c2c5f98183898506fc8e01000a7573657231303030363210f601"
    "0c17222d38434e59646f7a85909bacd5f98183898506a89101000a757365723130303036"
    "33101b26313c47525d68737e89949faab5c096e5f98183898506d49301000a7573657231"
    "303030363410404b56616c77828d98a3aeb9c4cfdae580f5f98183898506809601000a75"
    "7365723130303036351065707b86919ca7b2bdc8d3dee9f4ff0aea84fa8183898506ac98"
    "01000a75736572313030303636108a95a0abb6c1ccd7e2edf8030e19242fd494fa818389"
    "8506d89a01000a7573657231303030363710afbac5d0dbe6f1fc07121d28333e4954bea4"
    "fa8183898506849d01000a7573657231303030363810d4dfeaf5000b16212c37424d5863"
    "6e79a8b4fa8183898506b09f01000a7573657231303030363910f9040f1a25303b46515c"
    "67727d88939e92c4fa8183898506dca101000a75736572313030303730101e29343f4a55"
    "606b76818c97a2adb8c3fcd3fa818389850688a401000a7573657231303030373110434e"
    "59646f7a85909ba6b1bcc7d2dde8e6e3fa8183898506b4a601000a757365723130303037"
    "321068737e89949faab5c0cbd6e1ecf7020dd0f3fa8183898506e0a801000a7573657231"
    "3030303733108d98a3aeb9c4cfdae5f0fb06111c2732ba83fb81838985068cab01010a75"
    "73657231303030373410b2bdc8d3dee9f4ff0a15202b36414c57a493fb8183898506b8ad"
    "01000a7573657231303030373510d7e2edf8030e19242f3a45505b66717c8ea3fb818389"
    "8506e4af01000a7573657231303030373610fc07121d28333e49545f6a75808b96a1f8b2"
    "fb818389850690b201000a7573657231303030373710212c37424d58636e79848f9aa5b0"
    "bbc6e2c2fb8183898506bcb401000a757365723130303037381046515c67727d88939ea9"
    "b4bfcad5e0ebccd2fb8183898506e8b601000a75736572313030303739106b76818c97a2"
    "adb8c3ced9e4effa0510b6e2fb818389850694b901000a7573657231303030383010909b"
    "a6b1bcc7d2dde8f3fe09141f2a35a0f2fb8183898506c0bb01000a757365723130303038"
    "3110b5c0cbd6e1ecf7020d18232e39444f5a8a82fc8183898506ecbd01000a7573657231"
    "303030383210dae5f0fb06111c27323d48535e69747ff491fc818389850698c001000a75"
    "73657231303030383310ff0a15202b36414c57626d78838e99a4dea1fc8183898506c4c2"
    "01000a7573657231303030383410242f3a45505b66717c87929da8b3bec9c8b1fc818389"
    "8506f0c401000a757365723130303038351049545f6a75808b96a1acb7c2cdd8e3eeb2c1"
    "fc81838985069cc701000a75736572313030303836106e79848f9aa5b0bbc6d1dce7f2fd"
    "08139cd1fc8183898506c8c901000a7573657231303030383710939ea9b4bfcad5e0ebf6"
    "010c17222d3886e1fc8183898506f4cb01000a7573657231303030383810b8c3ced9e4ef"
    "fa05101b26313c47525df0f0fc8183898506a0ce01000a7573657231303030383910dde8"
    "f3fe09141f2a35404b56616c7782da80fd8183898506ccd001000a757365723130303039"
    "3010020d18232e39444f5a65707b86919ca7c490fd8183898506f8d201010a7573657231"
    "30303039311027323d48535e69747f8a95a0abb6c1ccaea0fd8183898506a4d501000a75"
    "736572313030303932104c57626d78838e99a4afbac5d0dbe6f198b0fd8183898506d0d7"
    "01000a7573657231303030393310717c87929da8b3bec9d4dfeaf5000b1682c0fd818389"
    "8506fcd901000a757365723130303039341096a1acb7c2cdd8e3eef9040f1a25303beccf"
    "fd8183898506a8dc01000a7573657231303030393510bbc6d1dce7f2fd08131e29343f4a"
    "5560d6dffd8183898506d4de01000a7573657231303030393610e0ebf6010c17222d3843"
    "4e59646f7a85c0effd818389850680e101000a757365723130303039371005101b26313c"
    "47525d68737e89949faaaafffd8183898506ace301000a75736572313030303938102a35"
    "404b56616c77828d98a3aeb9c4cf948ffe8183898506d8e501000a757365723130303039"
    "39104f5a65707b86919ca7b2bdc8d3dee9f4fe9efe818389850684e8010080b58a828389"
    "85060901ac020a7072696d6172792d6575d1a43af6";

// A frame's message starts after the 4-byte length and 8-byte request id
// with its type byte, then the wire-version byte; it ends with its CRC-32.
constexpr size_t kFrameVersionByte = 13;
constexpr size_t kFrameHeaderBytes = 12;
constexpr size_t kCrcBytes = 4;

// Version 8 retired fields of the tablet-map messages only, so the golden
// messages' bytes are the version-7 ones with the version byte set to 8 and
// the CRC-32 trailer recomputed. Derived here rather than re-pinned, so the
// body bytes stay checked against what version 7 wrote.
std::string RebasedTo8(const std::string& v7_frame) {
  std::string frame = v7_frame;
  frame[kFrameVersionByte] = 8;
  const std::string_view message = std::string_view(frame).substr(
      kFrameHeaderBytes, frame.size() - kFrameHeaderBytes - kCrcBytes);
  Encoder trailer;
  trailer.PutFixed32(Crc32(message));
  frame.replace(frame.size() - kCrcBytes, kCrcBytes, trailer.buffer());
  return frame;
}

// The wire format is frozen at version 8: any change to the field codec, the
// CRC or the frame layout moves these bytes and must bump kWireVersion.
TEST(MessagesTest, WireFramesMatchPinnedBytes) {
  const std::string range_v7 = FromHex(kGoldenRangeFrameV7);
  const std::string sync_v7 = FromHex(kGoldenSyncFrameV7);
  // The pinned constants are whole, intact version-7 frames.
  for (const std::string& v7 : {range_v7, sync_v7}) {
    ASSERT_EQ(v7[kFrameVersionByte], 7);
    const std::string_view message(v7.data() + kFrameHeaderBytes,
                                   v7.size() - kFrameHeaderBytes - kCrcBytes);
    Encoder trailer;
    trailer.PutFixed32(Crc32(message));
    ASSERT_EQ(v7.substr(v7.size() - kCrcBytes), trailer.buffer());
  }
  const std::string range_encoded =
      net::EncodeWireFrame(7, Message(GoldenRangeReply()));
  const std::string sync_encoded =
      net::EncodeWireFrame(8, Message(GoldenSyncReply()));
  // Only the version byte and the trailer may differ from version 7.
  for (const auto& [encoded, v7] :
       {std::pair{range_encoded, range_v7}, std::pair{sync_encoded, sync_v7}}) {
    ASSERT_EQ(encoded.size(), v7.size());
    EXPECT_EQ(ToHex(encoded.substr(0, kFrameVersionByte)),
              ToHex(v7.substr(0, kFrameVersionByte)));
    EXPECT_EQ(ToHex(encoded.substr(kFrameVersionByte + 1,
                                   encoded.size() - kFrameVersionByte - 1 -
                                       kCrcBytes)),
              ToHex(v7.substr(kFrameVersionByte + 1,
                              v7.size() - kFrameVersionByte - 1 - kCrcBytes)));
  }
  EXPECT_EQ(ToHex(range_encoded), ToHex(RebasedTo8(range_v7)));
  EXPECT_EQ(ToHex(sync_encoded), ToHex(RebasedTo8(sync_v7)));

  // And the pinned bytes decode to the same messages.
  const std::string range_frame = RebasedTo8(range_v7);
  Result<Message> range =
      DecodeMessage(std::string_view(range_frame).substr(12));
  ASSERT_TRUE(range.ok()) << range.status();
  const RangeReply want_range = GoldenRangeReply();
  const auto& got_range = std::get<RangeReply>(range.value());
  EXPECT_EQ(got_range.items, want_range.items);
  EXPECT_TRUE(got_range.truncated);
  EXPECT_EQ(got_range.high_timestamp, want_range.high_timestamp);
  EXPECT_TRUE(got_range.served_by_primary);
  EXPECT_EQ(got_range.config_epoch, want_range.config_epoch);
  EXPECT_EQ(got_range.primary_hint, want_range.primary_hint);
  EXPECT_EQ(got_range.queue_delay_us, want_range.queue_delay_us);

  const std::string sync_frame = RebasedTo8(sync_v7);
  Result<Message> sync = DecodeMessage(std::string_view(sync_frame).substr(12));
  ASSERT_TRUE(sync.ok()) << sync.status();
  const SyncReply want_sync = GoldenSyncReply();
  const auto& got_sync = std::get<SyncReply>(sync.value());
  EXPECT_EQ(got_sync.versions, want_sync.versions);
  EXPECT_EQ(got_sync.heartbeat, want_sync.heartbeat);
  EXPECT_TRUE(got_sync.has_more);
  EXPECT_EQ(got_sync.config_epoch, want_sync.config_epoch);
  EXPECT_EQ(got_sync.primary_hint, want_sync.primary_hint);
}

// A frame from a version-7 peer is refused, not decoded with the fields
// version 8 retired.
TEST(MessagesTest, Version7FrameRejected) {
  const std::string v7 = FromHex(kGoldenRangeFrameV7);
  const Result<Message> decoded =
      DecodeMessage(std::string_view(v7).substr(kFrameHeaderBytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// A node's scan reply shares its store's versions; on the wire it must be
// indistinguishable from a reply that owns copies of the same data.
TEST(MessagesTest, NodeBuiltRangeReplyEncodesLikeAHandBuiltOne) {
  ManualClock clock(1'700'000'000'000'000);
  storage::StorageNode node("node", "site", &clock);
  storage::Tablet::Options primary;
  primary.is_primary = true;
  ASSERT_TRUE(node.AddTablet("t", primary).ok());

  RangeReply hand_built;
  for (int i = 0; i < 50; ++i) {
    ObjectVersion item = GoldenItem(i);
    PutRequest put;
    put.table = "t";
    put.key = item.key;
    put.value = item.value;
    clock.AdvanceMicros(1'013);
    const Message put_reply = node.Handle(put);
    ASSERT_TRUE(std::holds_alternative<PutReply>(put_reply));
    item.timestamp = std::get<PutReply>(put_reply).timestamp;
    item.is_tombstone = false;
    hand_built.items.push_back(MakeVersion(std::move(item)));
  }
  RangeRequest request;
  request.table = "t";
  request.limit = 40;
  const Message reply = node.Handle(request);
  ASSERT_TRUE(std::holds_alternative<RangeReply>(reply));
  const RangeReply& node_built = std::get<RangeReply>(reply);

  hand_built.items.resize(40);
  hand_built.truncated = true;
  hand_built.high_timestamp = node_built.high_timestamp;
  hand_built.served_by_primary = true;
  EXPECT_EQ(node_built.items, hand_built.items);
  EXPECT_EQ(net::EncodeWireFrame(7, reply),
            net::EncodeWireFrame(7, Message(hand_built)));
}

TEST(MessagesTest, TruncatedBodyRejected) {
  GetReply reply;
  reply.found = true;
  reply.value = "some value bytes";
  for (const Message& message :
       {Message(reply), Message(GoldenRangeReply()),
        Message(GoldenSyncReply())}) {
    const std::string bytes = EncodeMessage(message);
    const size_t body_size = bytes.size() - 4;
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      // Cut as it stands: the trailer no longer matches.
      EXPECT_FALSE(DecodeMessage(bytes.substr(0, cut)).ok())
          << "cut at " << cut;
      if (cut < body_size) {
        // The cut body under a valid trailer: the field decoders themselves
        // must notice that it ends early.
        Encoder resealed;
        resealed.PutFixed32(Crc32(std::string_view(bytes).substr(0, cut)));
        EXPECT_FALSE(
            DecodeMessage(bytes.substr(0, cut) + resealed.buffer()).ok())
            << "resealed cut at " << cut;
      }
    }
  }
}

TEST(MessagesTest, TrailingBytesRejected) {
  std::string bytes = EncodeMessage(Message(ProbeRequest{}));
  bytes += "junk";
  EXPECT_EQ(DecodeMessage(bytes).status().code(), StatusCode::kCorruption);
}

TEST(MessagesTest, TabletMapRequestRoundTrip) {
  // Wire v6: the tablet map exchange.
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
  tablets::TabletInfo right;
  right.range = KeyRange{"m", ""};
  right.config.epoch = 5;
  right.config.primary = "beta";
  right.config.members = {"beta"};
  in.map.tablets = {left, right};
  const TabletMapRequest out = RoundTrip(in);
  EXPECT_EQ(out.table, "orders");
  EXPECT_EQ(out.have_version, 7u);
  EXPECT_TRUE(out.install);
  EXPECT_EQ(out.map, in.map);
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

TEST(MessagesTest, AbsurdSyncCountRejected) {
  // Frames that claim 2^40 entries. The type and version bytes come from a
  // real frame and the trailer is valid, so the decoder's count guard, not
  // the checksum or the version check, is what must reject them.
  const std::pair<Message, std::string_view> cases[] = {
      {Message(SyncReply{}), "sync reply version count too big"},
      {Message(RangeReply{}), "range reply count too big"},
  };
  for (const auto& [message, guard] : cases) {
    SCOPED_TRACE(guard);
    std::string bytes = EncodeMessage(message).substr(0, 2);
    // Varint for 2^40.
    for (int i = 0; i < 5; ++i) {
      bytes.push_back('\x80');
    }
    bytes.push_back('\x10');
    Encoder trailer;
    trailer.PutFixed32(Crc32(bytes));
    bytes += trailer.buffer();
    const Result<Message> decoded = DecodeMessage(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(decoded.status().message(), guard);
  }
}

}  // namespace
}  // namespace pileus::proto
