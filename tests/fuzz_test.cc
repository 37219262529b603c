// Deterministic fuzzing of the decode paths: the wire codec, the message
// decoder, the multiplexed FrameParser, and WAL replay must never crash or
// read out of bounds on adversarial input - a storage node's parser is
// directly reachable from the network.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/net/tcp.h"
#include "src/persist/wal.h"
#include "src/proto/messages.h"
#include "src/sim/fault_injector.h"
#include "src/util/codec.h"

namespace pileus {
namespace {

std::string RandomBytes(Random& rng, size_t max_len) {
  const size_t len = rng.NextUint64(max_len + 1);
  std::string out(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    out[i] = static_cast<char>(rng.NextUint64(256));
  }
  return out;
}

TEST(FuzzTest, DecodeMessageNeverCrashesOnRandomBytes) {
  Random rng(0xF00D);
  int decoded_ok = 0;
  for (int i = 0; i < 50000; ++i) {
    const std::string bytes = RandomBytes(rng, 128);
    Result<proto::Message> result = proto::DecodeMessage(bytes);
    decoded_ok += result.ok() ? 1 : 0;
  }
  // Random bytes essentially never form a valid message.
  EXPECT_LT(decoded_ok, 50);
}

TEST(FuzzTest, DecodeMessageSurvivesMutatedValidMessages) {
  Random rng(0xBEEF);
  // Seed corpus: one of each message type with non-trivial contents.
  std::vector<std::string> corpus;
  {
    proto::GetRequest get;
    get.table = "table";
    get.key = "some-key";
    corpus.push_back(proto::EncodeMessage(get));
    proto::GetReply reply;
    reply.found = true;
    reply.value = std::string(64, 'v');
    reply.value_timestamp = Timestamp{123456, 3};
    reply.high_timestamp = Timestamp{123999, 0};
    corpus.push_back(proto::EncodeMessage(reply));
    proto::SyncReply sync;
    for (int i = 0; i < 5; ++i) {
      proto::ObjectVersion v;
      v.key = "k" + std::to_string(i);
      v.value = "vv";
      v.timestamp = Timestamp{100 + i, 0};
      sync.versions.push_back(v);
    }
    sync.heartbeat = Timestamp{200, 0};
    corpus.push_back(proto::EncodeMessage(sync));
    proto::PutRequest put;
    put.table = "t";
    put.key = "c";
    put.value = "val";
    corpus.push_back(proto::EncodeMessage(put));
  }

  for (int round = 0; round < 20000; ++round) {
    std::string bytes = corpus[rng.NextUint64(corpus.size())];
    // Apply 1-4 random mutations: byte flips, truncations, extensions.
    const int mutations = 1 + static_cast<int>(rng.NextUint64(4));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.NextUint64(3)) {
        case 0:
          if (!bytes.empty()) {
            bytes[rng.NextUint64(bytes.size())] =
                static_cast<char>(rng.NextUint64(256));
          }
          break;
        case 1:
          bytes.resize(rng.NextUint64(bytes.size() + 1));
          break;
        case 2:
          bytes += RandomBytes(rng, 8);
          break;
      }
    }
    Result<proto::Message> result = proto::DecodeMessage(bytes);
    if (result.ok()) {
      // Whatever decoded must re-encode without crashing.
      (void)proto::EncodeMessage(result.value());
    }
  }
}

TEST(FuzzTest, ByteFlippedFramesFailWithCleanStatus) {
  // The fault injector's corruption model: 1-3 flipped bytes anywhere in an
  // otherwise valid frame. The wire CRC must reject every such frame with a
  // clean Status - no crash, no hang, and (with this seed) no false accept.
  Random rng(0x51AB);
  std::vector<std::string> corpus;
  {
    proto::PutRequest put;
    put.table = "t";
    put.key = "key";
    put.value = std::string(300, 'x');
    corpus.push_back(proto::EncodeMessage(put));
    proto::GetReply reply;
    reply.found = true;
    reply.value = std::string(64, 'v');
    reply.value_timestamp = Timestamp{77, 1};
    corpus.push_back(proto::EncodeMessage(reply));
    proto::ErrorReply err;
    err.code = StatusCode::kUnavailable;
    err.message = "node down";
    corpus.push_back(proto::EncodeMessage(err));
    proto::SyncReply sync;
    for (int i = 0; i < 8; ++i) {
      proto::ObjectVersion v;
      v.key = "k" + std::to_string(i);
      v.value = std::string(16, 'd');
      v.timestamp = Timestamp{500 + i, 0};
      sync.versions.push_back(v);
    }
    corpus.push_back(proto::EncodeMessage(sync));
  }
  int accepted = 0;
  for (int round = 0; round < 20000; ++round) {
    const std::string& original = corpus[rng.NextUint64(corpus.size())];
    std::string frame = original;
    sim::FaultInjector::CorruptFrame(frame, rng);
    if (frame == original) {
      continue;  // Multiple flips on one byte can cancel out (rare).
    }
    Result<proto::Message> result = proto::DecodeMessage(frame);
    if (result.ok()) {
      ++accepted;
    } else {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
  EXPECT_EQ(accepted, 0);
}

TEST(FuzzTest, DecoderPrimitivesNeverOverread) {
  Random rng(0xCAFE);
  for (int i = 0; i < 20000; ++i) {
    const std::string bytes = RandomBytes(rng, 32);
    Decoder dec(bytes);
    // Drain the buffer with a random sequence of typed reads.
    while (!dec.AtEnd()) {
      bool progressed = false;
      switch (rng.NextUint64(6)) {
        case 0: {
          uint8_t v;
          progressed = dec.GetUint8(&v).ok();
          break;
        }
        case 1: {
          uint32_t v;
          progressed = dec.GetFixed32(&v).ok();
          break;
        }
        case 2: {
          uint64_t v;
          progressed = dec.GetVarint64(&v).ok();
          break;
        }
        case 3: {
          std::string s;
          progressed = dec.GetLengthPrefixedString(&s).ok();
          break;
        }
        case 4: {
          Timestamp ts;
          progressed = dec.GetTimestamp(&ts).ok();
          break;
        }
        case 5: {
          double d;
          progressed = dec.GetDouble(&d).ok();
          break;
        }
      }
      if (!progressed) {
        break;  // An error consumed nothing further; stop this round.
      }
    }
  }
}

// --- FrameParser: the multiplexed transport's stream reassembler ---

// A valid pipelined batch: `count` wire frames back to back, as they would
// sit in one TCP segment after writev coalescing.
std::string PipelinedBatch(Random& rng, int count,
                           std::vector<uint64_t>* ids) {
  std::string batch;
  for (int i = 0; i < count; ++i) {
    const uint64_t id = rng.NextUint64();
    if (ids != nullptr) {
      ids->push_back(id);
    }
    proto::GetRequest request;
    request.table = "t";
    request.key = "key" + std::to_string(i) +
                  std::string(rng.NextUint64(40), 'k');
    batch += net::EncodeWireFrame(id, request);
  }
  return batch;
}

TEST(FuzzTest, FrameParserReassemblesArbitraryFragmentation) {
  // Any split of the byte stream - mid length prefix, mid request id, mid
  // payload, several frames per chunk - must reassemble to exactly the sent
  // frames, ids intact and in order.
  Random rng(0xF7A6);
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint64_t> ids;
    const std::string batch =
        PipelinedBatch(rng, 1 + static_cast<int>(rng.NextUint64(6)), &ids);
    net::FrameParser parser;
    // (request id, message bytes): a frame's view ends at the next Feed.
    std::vector<std::pair<uint64_t, std::string>> frames;
    size_t offset = 0;
    while (offset < batch.size()) {
      const size_t chunk = 1 + rng.NextUint64(9);
      const size_t len = std::min(chunk, batch.size() - offset);
      parser.Feed(std::string_view(batch).substr(offset, len));
      offset += len;
      std::optional<net::FrameParser::Frame> frame;
      while (parser.Next(&frame).ok() && frame.has_value()) {
        frames.emplace_back(frame->request_id, frame->message_bytes);
        frame.reset();
      }
    }
    ASSERT_EQ(frames.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(frames[i].first, ids[i]);
      EXPECT_TRUE(proto::DecodeMessage(frames[i].second).ok());
    }
    EXPECT_EQ(parser.buffered_bytes(), 0u);
  }
}

TEST(FuzzTest, FrameParserRejectsAbsurdLengthsStickily) {
  Random rng(0xABCD);
  for (int round = 0; round < 200; ++round) {
    net::FrameParser parser(64 * 1024);  // Small cap to hit fast.
    // A length prefix far past the cap (sometimes the 4-byte maximum).
    const uint32_t absurd =
        rng.NextBool(0.3) ? 0xFFFFFFFFu
                          : 64 * 1024 + 9 + static_cast<uint32_t>(
                                                rng.NextUint64(1 << 20));
    std::string prefix(4, '\0');
    prefix[0] = static_cast<char>(absurd & 0xFF);
    prefix[1] = static_cast<char>((absurd >> 8) & 0xFF);
    prefix[2] = static_cast<char>((absurd >> 16) & 0xFF);
    prefix[3] = static_cast<char>((absurd >> 24) & 0xFF);
    parser.Feed(prefix);
    std::optional<net::FrameParser::Frame> frame;
    EXPECT_EQ(parser.Next(&frame).code(), StatusCode::kCorruption);
    // Sticky: feeding perfectly valid frames afterwards cannot resync a
    // stream whose framing is lost.
    parser.Feed(PipelinedBatch(rng, 1, nullptr));
    EXPECT_EQ(parser.Next(&frame).code(), StatusCode::kCorruption);
    // A new connection resets cleanly.
    parser.Reset();
    parser.Feed(PipelinedBatch(rng, 1, nullptr));
    EXPECT_TRUE(parser.Next(&frame).ok());
    EXPECT_TRUE(frame.has_value());
  }
}

TEST(FuzzTest, FrameParserSurvivesMutatedAndTruncatedBatches) {
  // Byte flips and truncations of valid pipelined batches: every outcome is
  // acceptable except a crash, a hang, or unbounded buffering - frames out
  // (whose payloads may then fail DecodeMessage cleanly), a sticky
  // kCorruption, or "need more bytes" on a truncated tail.
  Random rng(0x7EAD);
  for (int round = 0; round < 4000; ++round) {
    std::string batch = PipelinedBatch(
        rng, 1 + static_cast<int>(rng.NextUint64(5)), nullptr);
    const int mutations = 1 + static_cast<int>(rng.NextUint64(4));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.NextUint64(3)) {
        case 0:  // Byte flip (length prefixes included).
          batch[rng.NextUint64(batch.size())] =
              static_cast<char>(rng.NextUint64(256));
          break;
        case 1:  // Truncate: a pipelined batch cut mid-frame.
          batch.resize(rng.NextUint64(batch.size() + 1));
          break;
        case 2:  // Garbage tail.
          batch += RandomBytes(rng, 16);
          break;
      }
      if (batch.empty()) {
        break;
      }
    }
    net::FrameParser parser(1 << 20);
    size_t offset = 0;
    bool corrupt = false;
    while (offset < batch.size() && !corrupt) {
      const size_t len =
          std::min<size_t>(1 + rng.NextUint64(64), batch.size() - offset);
      parser.Feed(std::string_view(batch).substr(offset, len));
      offset += len;
      std::optional<net::FrameParser::Frame> frame;
      Status status;
      while ((status = parser.Next(&frame)).ok() && frame.has_value()) {
        (void)proto::DecodeMessage(frame->message_bytes);
        frame.reset();
      }
      if (!status.ok()) {
        EXPECT_EQ(status.code(), StatusCode::kCorruption);
        corrupt = true;  // Sticky by contract; connection would tear down.
      }
    }
    // Whatever happened, the parser never buffered more than it was fed.
    EXPECT_LE(parser.buffered_bytes(), batch.size());
  }
}

TEST(FuzzTest, LiveServerSurvivesRawSocketGarbage) {
  // Adversarial peers against a real listening TcpServer: random bytes,
  // absurd length prefixes, and valid-but-truncated pipelined batches, each
  // followed by an abrupt close. The server must tear those connections
  // down cleanly and keep serving well-formed clients throughout.
  net::TcpServer server;
  ASSERT_TRUE(server
                  .Start(0,
                         [](const proto::Message&) {
                           return proto::Message(proto::PutReply{});
                         })
                  .ok());
  Random rng(0x5AFE);
  for (int round = 0; round < 60; ++round) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    struct sockaddr_in addr;
    memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    std::string payload;
    switch (rng.NextUint64(3)) {
      case 0:  // Pure garbage.
        payload = RandomBytes(rng, 256);
        break;
      case 1: {  // Absurd length prefix, then garbage.
        payload = std::string("\xff\xff\xff\xff", 4) + RandomBytes(rng, 64);
        break;
      }
      case 2: {  // Valid batch cut mid-frame: the server waits, we hang up.
        std::string batch = PipelinedBatch(rng, 3, nullptr);
        payload = batch.substr(0, 1 + rng.NextUint64(batch.size()));
        break;
      }
    }
    if (!payload.empty()) {
      (void)!::write(fd, payload.data(), payload.size());
    }
    ::close(fd);

    if (round % 10 == 0) {
      // The server is still alive and correct for a real client.
      net::TcpChannel channel(server.port());
      Result<proto::Message> reply =
          channel.Call(proto::PutRequest{}, SecondsToMicroseconds(5));
      ASSERT_TRUE(reply.ok()) << "round " << round << ": " << reply.status();
    }
  }
  net::TcpChannel channel(server.port());
  EXPECT_TRUE(channel.Call(proto::PutRequest{}, SecondsToMicroseconds(5))
                  .ok());
}

TEST(FuzzTest, WalReplaySurvivesGarbageFiles) {
  char tmpl[] = "/tmp/pileus_fuzz_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string path = dir + "/wal.log";

  Random rng(0xD00D);
  for (int round = 0; round < 200; ++round) {
    const std::string contents = RandomBytes(rng, 512);
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::write(fd, contents.data(), contents.size()),
              static_cast<ssize_t>(contents.size()));
    ::close(fd);
    // Must terminate with either a clean result (possibly torn tail) or a
    // corruption error - never crash or hang.
    (void)persist::WriteAheadLog::Replay(path, nullptr, nullptr);
  }
  const std::string cmd = "rm -rf '" + dir + "'";
  (void)::system(cmd.c_str());
}

}  // namespace
}  // namespace pileus
