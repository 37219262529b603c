// Tests for the TCP transport: framed request/reply over real loopback
// sockets.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/net/tcp.h"
#include "src/storage/storage_node.h"
#include "src/telemetry/metrics.h"
#include "tests/numbered_key.h"

namespace pileus::net {
namespace {

proto::Message Echo(const proto::Message& request) {
  if (const auto* get = std::get_if<proto::GetRequest>(&request)) {
    proto::GetReply reply;
    reply.found = true;
    reply.value = "echo:" + get->key;
    return reply;
  }
  if (std::holds_alternative<proto::PutRequest>(request)) {
    return proto::PutReply{};
  }
  proto::ErrorReply err;
  err.code = StatusCode::kInvalidArgument;
  return err;
}

TEST(TcpTest, StartStopLifecycle) {
  TcpServer server;
  ASSERT_TRUE(server.Start(0, Echo).ok());
  EXPECT_GT(server.port(), 0);
  server.Stop();
  server.Stop();  // Idempotent.
}

TEST(TcpTest, CallRoundTrip) {
  TcpServer server;
  ASSERT_TRUE(server.Start(0, Echo).ok());
  TcpChannel channel(server.port());

  proto::GetRequest request;
  request.table = "t";
  request.key = "hello";
  Result<proto::Message> reply =
      channel.Call(request, SecondsToMicroseconds(5));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(std::get<proto::GetReply>(reply.value()).value, "echo:hello");
  EXPECT_EQ(server.requests_handled(), 1u);
}

TEST(TcpTest, ManySequentialCallsOnOneConnection) {
  TcpServer server;
  ASSERT_TRUE(server.Start(0, Echo).ok());
  TcpChannel channel(server.port());
  for (int i = 0; i < 200; ++i) {
    proto::GetRequest request;
    request.key = NumberedKey("k", i);
    Result<proto::Message> reply =
        channel.Call(request, SecondsToMicroseconds(5));
    ASSERT_TRUE(reply.ok()) << i;
    EXPECT_EQ(std::get<proto::GetReply>(reply.value()).value,
              NumberedKey("echo:k", i));
  }
  EXPECT_EQ(server.requests_handled(), 200u);
}

TEST(TcpTest, ConcurrentClients) {
  TcpServer server;
  ASSERT_TRUE(server.Start(0, Echo).ok());
  constexpr int kThreads = 8;
  constexpr int kCallsEach = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TcpChannel channel(server.port());
      for (int i = 0; i < kCallsEach; ++i) {
        proto::GetRequest request;
        request.key = std::to_string(t) + ":" + std::to_string(i);
        Result<proto::Message> reply =
            channel.Call(request, SecondsToMicroseconds(5));
        if (!reply.ok() ||
            std::get<proto::GetReply>(reply.value()).value !=
                "echo:" + request.key) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_handled(),
            static_cast<uint64_t>(kThreads * kCallsEach));
}

TEST(TcpTest, ConnectToClosedPortFails) {
  // Grab an ephemeral port, then close it.
  uint16_t dead_port;
  {
    TcpServer server;
    ASSERT_TRUE(server.Start(0, Echo).ok());
    dead_port = server.port();
  }
  TcpChannel channel(dead_port);
  Result<proto::Message> reply =
      channel.Call(proto::GetRequest{}, MillisecondsToMicroseconds(500));
  ASSERT_FALSE(reply.ok());
  // Connection refused is a fast, clean kUnavailable - never a timeout and
  // never a crash.
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
}

TEST(TcpTest, ServerKilledMidStreamThenRestartedOnSamePort) {
  auto server = std::make_unique<TcpServer>();
  ASSERT_TRUE(server->Start(0, Echo).ok());
  const uint16_t port = server->port();
  TcpChannel channel(port);

  proto::GetRequest request;
  request.table = "t";
  request.key = "before";
  ASSERT_TRUE(channel.Call(request, SecondsToMicroseconds(5)).ok());

  // Kill the server: the channel is left holding a dead socket mid-stream.
  server->Stop();
  server.reset();
  request.key = "down";
  Result<proto::Message> down =
      channel.Call(request, SecondsToMicroseconds(2));
  ASSERT_FALSE(down.ok());
  // The dead socket surfaces as kUnavailable (reset/refused), distinct from
  // kTimeout: the caller can safely retry because the frame never landed.
  EXPECT_EQ(down.status().code(), StatusCode::kUnavailable);

  // Restart on the same port: the same channel object reconnects lazily and
  // the next call goes through without any explicit reset.
  TcpServer revived;
  ASSERT_TRUE(revived.Start(port, Echo).ok());
  request.key = "after";
  Result<proto::Message> after =
      channel.Call(request, SecondsToMicroseconds(5));
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(std::get<proto::GetReply>(after.value()).value, "echo:after");
}

TEST(TcpTest, LargeValuesCrossIntact) {
  TcpServer server;
  std::string received;
  ASSERT_TRUE(server
                  .Start(0,
                         [&](const proto::Message& request) {
                           received =
                               std::get<proto::PutRequest>(request).value;
                           return proto::Message(proto::PutReply{});
                         })
                  .ok());
  TcpChannel channel(server.port());

  proto::PutRequest put;
  put.table = "t";
  put.key = "big";
  put.value.resize(4 * 1024 * 1024);
  for (size_t i = 0; i < put.value.size(); ++i) {
    put.value[i] = static_cast<char>(i * 2654435761u);
  }
  Result<proto::Message> reply = channel.Call(put, SecondsToMicroseconds(10));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(received, put.value);
}

TEST(TcpTest, SlowHandlerHitsClientDeadline) {
  TcpServer server;
  ASSERT_TRUE(server
                  .Start(0,
                         [](const proto::Message&) {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(300));
                           return proto::Message(proto::PutReply{});
                         })
                  .ok());
  TcpChannel channel(server.port());
  Result<proto::Message> reply =
      channel.Call(proto::PutRequest{}, MillisecondsToMicroseconds(50));
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
}

TEST(TcpTest, SynchronousCallTimeoutLeavesNoStaleReply) {
  // A synchronous Call waits out its own deadline. When it expires the call
  // must come back kTimeout with nothing left in flight, and the late reply
  // — released just ahead of the next call's reply; the late reply dies
  // with the closed connection — must never be handed to the next caller.
  struct Parked {
    std::mutex mu;
    std::function<void(proto::Message)> done;
  };
  auto parked = std::make_shared<Parked>();
  std::atomic<int> requests_seen{0};
  TcpServer server;
  ASSERT_TRUE(server
                  .StartAsync(0,
                              [parked, &requests_seen](
                                  const proto::Message& request,
                                  std::function<void(proto::Message)> done) {
                                std::lock_guard<std::mutex> lock(parked->mu);
                                if (requests_seen.fetch_add(1) == 0) {
                                  parked->done = std::move(done);
                                  return;
                                }
                                if (parked->done != nullptr) {
                                  proto::GetReply late;
                                  late.value = "too-late";
                                  parked->done(late);
                                  parked->done = nullptr;
                                }
                                done(Echo(request));
                              })
                  .ok());
  TcpChannel channel(server.port());

  proto::GetRequest first;
  first.key = "first";
  const MicrosecondCount start = RealClock::Instance()->NowMicros();
  Result<proto::Message> timed_out =
      channel.Call(first, MillisecondsToMicroseconds(50));
  EXPECT_EQ(timed_out.status().code(), StatusCode::kTimeout);
  EXPECT_GE(RealClock::Instance()->NowMicros() - start,
            MillisecondsToMicroseconds(50));
  EXPECT_EQ(channel.in_flight(), 0u);

  proto::GetRequest second;
  second.key = "second";
  Result<proto::Message> reply =
      channel.Call(second, SecondsToMicroseconds(5));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(std::get<proto::GetReply>(reply.value()).value, "echo:second");
  EXPECT_EQ(channel.in_flight(), 0u);
  EXPECT_EQ(requests_seen.load(), 2);
}

TEST(TcpTest, ArtificialDelayEmulatesWan) {
  TcpServer server;
  ASSERT_TRUE(server.Start(0, Echo).ok());
  TcpChannel channel(server.port(), MillisecondsToMicroseconds(20));
  const MicrosecondCount start = RealClock::Instance()->NowMicros();
  ASSERT_TRUE(channel.Call(proto::GetRequest{}, 0).ok());
  EXPECT_GE(RealClock::Instance()->NowMicros() - start,
            MillisecondsToMicroseconds(40));
}

TEST(TcpTest, FrameParserGivesBackABigFramesBuffer) {
  // One big frame must not pin its buffer for the life of the connection:
  // the Next that finds the stream drained (every reader drains) gives it
  // back, once the frame's view has ended.
  proto::PutRequest put;
  put.key = "big";
  put.value.assign(10 * 1024 * 1024, 'x');
  FrameParser parser;
  parser.Feed(EncodeWireFrame(7, put));
  std::optional<FrameParser::Frame> frame;
  ASSERT_TRUE(parser.Next(&frame).ok());
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->request_id, 7u);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  ASSERT_TRUE(parser.Next(&frame).ok());
  EXPECT_FALSE(frame.has_value());
  EXPECT_LE(parser.buffer_capacity(), 64u * 1024);
}

// A 50-item scan reply of about 6 KB, the frame the parser carries most.
proto::RangeReply ScanReply(int salt) {
  proto::RangeReply reply;
  for (int i = 0; i < 50; ++i) {
    proto::ObjectVersion item;
    item.key = NumberedKey("user", 100000 + salt * 100 + i);
    item.value.assign(100, static_cast<char>('a' + (salt + i) % 26));
    item.timestamp = Timestamp{1'000'000 + i, static_cast<uint32_t>(salt)};
    reply.items.push_back(proto::MakeVersion(std::move(item)));
  }
  reply.truncated = true;
  reply.high_timestamp = Timestamp{2'000'000, 0};
  return reply;
}

TEST(TcpTest, FrameParserViewOfAFrameSplitAcrossManyFeeds) {
  const proto::Message message = ScanReply(1);
  const std::string wire = EncodeWireFrame(41, message);
  FrameParser parser;
  std::optional<FrameParser::Frame> frame;
  // Odd-sized pieces: the length prefix, the id and the body all split.
  for (size_t offset = 0; offset < wire.size(); offset += 7) {
    ASSERT_TRUE(parser.Next(&frame).ok());
    ASSERT_FALSE(frame.has_value()) << "early frame at " << offset;
    parser.Feed(std::string_view(wire).substr(offset, 7));
  }
  ASSERT_TRUE(parser.Next(&frame).ok());
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->request_id, 41u);
  EXPECT_EQ(frame->message_bytes, proto::EncodeMessage(message));
  Result<proto::Message> decoded = proto::DecodeMessage(frame->message_bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(std::get<proto::RangeReply>(decoded.value()).items,
            std::get<proto::RangeReply>(message).items);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(TcpTest, FrameParserViewsOfFramesDeliveredInOneFeed) {
  // Over 64 KB of frames, so Next compacts the buffer between views.
  std::vector<proto::Message> messages;
  std::string wire;
  for (int i = 0; i < 20; ++i) {
    messages.push_back(ScanReply(i));
    wire += EncodeWireFrame(100 + i, messages.back());
  }
  proto::GetRequest small;
  small.key = "after the scans";
  messages.push_back(small);
  wire += EncodeWireFrame(120, small);

  FrameParser parser;
  parser.Feed(wire);
  for (size_t i = 0; i < messages.size(); ++i) {
    std::optional<FrameParser::Frame> frame;
    ASSERT_TRUE(parser.Next(&frame).ok());
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_EQ(frame->request_id, 100 + i);
    // Each view is read before the next Next, as every reader does.
    EXPECT_EQ(frame->message_bytes, proto::EncodeMessage(messages[i]))
        << "frame " << i;
    EXPECT_TRUE(proto::DecodeMessage(frame->message_bytes).ok());
  }
  std::optional<FrameParser::Frame> frame;
  ASSERT_TRUE(parser.Next(&frame).ok());
  EXPECT_FALSE(frame.has_value());
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

// The receive path writes into the parser's own buffer: PrepareAppend hands
// out room, CommitAppend adds what was written. The buffer settles at the
// frames' size and is reused frame after frame; a frame split across
// receives still parses; a big frame's buffer is given back; corruption
// stays sticky.
TEST(TcpTest, FrameParserAppendRegionReceivesInPlace) {
  const auto receive = [](FrameParser& parser, std::string_view bytes) {
    const std::span<char> room = parser.PrepareAppend(bytes.size());
    ASSERT_GE(room.size(), bytes.size());
    std::memcpy(room.data(), bytes.data(), bytes.size());
    parser.CommitAppend(bytes.size());
  };
  FrameParser parser;
  std::optional<FrameParser::Frame> frame;
  const proto::Message message = ScanReply(1);
  const std::string wire = EncodeWireFrame(200, message);
  size_t settled = 0;
  for (int i = 0; i < 5; ++i) {
    receive(parser, wire);
    ASSERT_TRUE(parser.Next(&frame).ok());
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->request_id, 200u);
    EXPECT_EQ(frame->message_bytes, proto::EncodeMessage(message));
    EXPECT_EQ(parser.buffered_bytes(), 0u);
    if (i == 0) {
      settled = parser.buffer_capacity();
      EXPECT_GE(settled, wire.size());
    }
    EXPECT_EQ(parser.buffer_capacity(), settled) << "frame " << i;
  }

  receive(parser, std::string_view(wire).substr(0, 5));
  ASSERT_TRUE(parser.Next(&frame).ok());
  EXPECT_FALSE(frame.has_value());
  receive(parser, std::string_view(wire).substr(5));
  ASSERT_TRUE(parser.Next(&frame).ok());
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->request_id, 200u);

  proto::PutRequest put;
  put.key = "big";
  put.value.assign(200 * 1024, 'x');
  const std::string big = EncodeWireFrame(301, put);
  for (size_t offset = 0; offset < big.size(); offset += 4096) {
    receive(parser, std::string_view(big).substr(offset, 4096));
  }
  ASSERT_TRUE(parser.Next(&frame).ok());
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->request_id, 301u);
  EXPECT_GT(parser.buffer_capacity(), 64u * 1024);
  ASSERT_TRUE(parser.Next(&frame).ok());
  EXPECT_FALSE(frame.has_value());
  EXPECT_LE(parser.buffer_capacity(), 64u * 1024);

  // A length prefix below the request id's 8 bytes is corruption, and it
  // stays: later bytes are dropped and every Next repeats the error.
  receive(parser, std::string_view("\x03\0\0\0abc", 7));
  EXPECT_EQ(parser.Next(&frame).code(), StatusCode::kCorruption);
  receive(parser, EncodeWireFrame(302, put));
  EXPECT_EQ(parser.Next(&frame).code(), StatusCode::kCorruption);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

// --- Pipelining: the multiplexing guarantees CallAsync documents ---

// Collects async completions and lets the test thread block until N arrived.
struct CompletionLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::string, Result<proto::Message>>> done;

  void Record(std::string tag, Result<proto::Message> reply) {
    std::lock_guard<std::mutex> lock(mu);
    done.emplace_back(std::move(tag), std::move(reply));
    cv.notify_all();
  }
  bool WaitFor(size_t n, MicrosecondCount budget_us) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::microseconds(budget_us),
                       [&] { return done.size() >= n; });
  }
};

TEST(TcpPipelineTest, OutOfOrderRepliesMapToTheRightRequest) {
  // The server parks every request and, once all four are in, answers them
  // in REVERSE arrival order. Only the request-id multiplexing can route
  // each reply to its caller; position on the wire says the opposite.
  constexpr int kCalls = 4;
  struct Parked {
    std::mutex mu;
    std::vector<std::pair<std::string, std::function<void(proto::Message)>>>
        waiting;
  };
  auto parked = std::make_shared<Parked>();
  TcpServer server;
  ASSERT_TRUE(server
                  .StartAsync(0,
                              [parked](const proto::Message& request,
                                       std::function<void(proto::Message)>
                                           done) {
                                const auto& get =
                                    std::get<proto::GetRequest>(request);
                                std::lock_guard<std::mutex> lock(parked->mu);
                                parked->waiting.emplace_back(get.key,
                                                             std::move(done));
                                if (parked->waiting.size() == kCalls) {
                                  for (int i = kCalls - 1; i >= 0; --i) {
                                    proto::GetReply reply;
                                    reply.found = true;
                                    reply.value =
                                        "echo:" + parked->waiting[i].first;
                                    parked->waiting[i].second(reply);
                                  }
                                }
                              })
                  .ok());
  TcpChannel channel(server.port());
  CompletionLog log;
  for (int i = 0; i < kCalls; ++i) {
    proto::GetRequest request;
    request.key = NumberedKey("k", i);
    channel.CallAsync(request, SecondsToMicroseconds(10),
                      [&log, key = request.key](Result<proto::Message> reply) {
                        log.Record(key, std::move(reply));
                      });
  }
  ASSERT_TRUE(log.WaitFor(kCalls, SecondsToMicroseconds(15)));
  // Every caller got the reply for ITS OWN key...
  for (const auto& [key, reply] : log.done) {
    ASSERT_TRUE(reply.ok()) << key << ": " << reply.status();
    EXPECT_EQ(std::get<proto::GetReply>(reply.value()).value, "echo:" + key);
  }
  // ...and the completions genuinely arrived out of issue order.
  EXPECT_EQ(log.done.front().first, NumberedKey("k", kCalls - 1));
  EXPECT_EQ(log.done.back().first, "k0");
}

TEST(TcpPipelineTest, ByteAndFrameCountersSeeBothEndsOfEveryCall) {
  // Client and server share this process, so every frame is counted once
  // where it is sent and once where it is received, whichever path carried
  // it: synchronous Calls, pipelined CallAsyncs and the server's replies.
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Default();
  telemetry::Counter* const frames_sent =
      registry.GetCounter("pileus_net_frames_sent_total");
  telemetry::Counter* const frames_received =
      registry.GetCounter("pileus_net_frames_received_total");
  telemetry::Counter* const bytes_sent =
      registry.GetCounter("pileus_net_bytes_sent_total");
  telemetry::Counter* const bytes_received =
      registry.GetCounter("pileus_net_bytes_received_total");
  const uint64_t frames_sent_before = frames_sent->Value();
  const uint64_t frames_received_before = frames_received->Value();
  const uint64_t bytes_sent_before = bytes_sent->Value();
  const uint64_t bytes_received_before = bytes_received->Value();

  TcpServer server;
  ASSERT_TRUE(server.Start(0, Echo).ok());
  TcpChannel channel(server.port());
  proto::GetRequest request;
  request.table = "t";
  request.key = "k";
  constexpr int kSyncCalls = 20;
  constexpr int kAsyncCalls = 30;
  for (int i = 0; i < kSyncCalls; ++i) {
    ASSERT_TRUE(channel.Call(request, SecondsToMicroseconds(5)).ok()) << i;
  }
  CompletionLog log;
  for (int i = 0; i < kAsyncCalls; ++i) {
    channel.CallAsync(request, SecondsToMicroseconds(10),
                      [&log](Result<proto::Message> reply) {
                        log.Record("", std::move(reply));
                      });
  }
  ASSERT_TRUE(log.WaitFor(kAsyncCalls, SecondsToMicroseconds(15)));
  for (const auto& [tag, reply] : log.done) {
    ASSERT_TRUE(reply.ok()) << reply.status();
  }

  // A server counts a reply once its send returns, which may be after the
  // caller has read it: wait for the counters to settle.
  const uint64_t frames = 2 * (kSyncCalls + kAsyncCalls);
  const auto settled = [&] {
    return frames_sent->Value() - frames_sent_before >= frames &&
           frames_received->Value() - frames_received_before >= frames &&
           bytes_sent->Value() - bytes_sent_before ==
               bytes_received->Value() - bytes_received_before;
  };
  const MicrosecondCount deadline =
      RealClock::Instance()->NowMicros() + SecondsToMicroseconds(5);
  while (!settled() && RealClock::Instance()->NowMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(frames_sent->Value() - frames_sent_before, frames);
  EXPECT_EQ(frames_received->Value() - frames_received_before, frames);
  // Every call moved one request frame and one reply frame, each of a fixed
  // size, and the bytes counted on both ends agree.
  const uint64_t bytes_per_call =
      EncodeWireFrame(0, request).size() +
      EncodeWireFrame(0, Echo(request)).size();
  EXPECT_EQ(bytes_sent->Value() - bytes_sent_before,
            (kSyncCalls + kAsyncCalls) * bytes_per_call);
  EXPECT_EQ(bytes_received->Value() - bytes_received_before,
            (kSyncCalls + kAsyncCalls) * bytes_per_call);
}

TEST(TcpPipelineTest, DisconnectFailsInFlightCallsFast) {
  // A server that parks requests forever; stopping it must fail every
  // in-flight call promptly with kUnavailable - no waiting out the 10 s
  // deadline, no dropped callbacks.
  struct Parked {
    std::mutex mu;
    std::vector<std::function<void(proto::Message)>> waiting;
  };
  auto parked = std::make_shared<Parked>();
  TcpServer server;
  ASSERT_TRUE(server
                  .StartAsync(0,
                              [parked](const proto::Message&,
                                       std::function<void(proto::Message)>
                                           done) {
                                std::lock_guard<std::mutex> lock(parked->mu);
                                parked->waiting.push_back(std::move(done));
                              })
                  .ok());
  TcpChannel channel(server.port());
  constexpr int kCalls = 3;
  CompletionLog log;
  for (int i = 0; i < kCalls; ++i) {
    channel.CallAsync(proto::GetRequest{}, SecondsToMicroseconds(10),
                      [&log](Result<proto::Message> reply) {
                        log.Record("", std::move(reply));
                      });
  }
  // Wait until the server has parked all three, so the frames are known to
  // be past the client's send queue.
  for (int i = 0; i < 1000; ++i) {
    {
      std::lock_guard<std::mutex> lock(parked->mu);
      if (parked->waiting.size() == kCalls) {
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(channel.in_flight(), static_cast<size_t>(kCalls));

  const MicrosecondCount stop_start = RealClock::Instance()->NowMicros();
  server.Stop();
  ASSERT_TRUE(log.WaitFor(kCalls, SecondsToMicroseconds(5)));
  const MicrosecondCount elapsed =
      RealClock::Instance()->NowMicros() - stop_start;
  for (const auto& [tag, reply] : log.done) {
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_LT(elapsed, SecondsToMicroseconds(5));
  EXPECT_EQ(channel.in_flight(), 0u);
}

TEST(TcpPipelineTest, LateReplyAfterTimeoutIsDiscarded) {
  // A reply that arrives after the caller's deadline must be dropped
  // silently: the timed-out call completed exactly once (kTimeout), the
  // connection stays up, and the next call reuses it without desync.
  struct Parked {
    std::mutex mu;
    std::function<void(proto::Message)> done;
  };
  auto parked = std::make_shared<Parked>();
  std::atomic<int> requests_seen{0};
  TcpServer server;
  ASSERT_TRUE(
      server
          .StartAsync(0,
                      [parked, &requests_seen](
                          const proto::Message& request,
                          std::function<void(proto::Message)> done) {
                        if (requests_seen.fetch_add(1) == 0) {
                          std::lock_guard<std::mutex> lock(parked->mu);
                          parked->done = std::move(done);  // Hold the first.
                          return;
                        }
                        done(Echo(request));
                      })
          .ok());
  TcpChannel channel(server.port());
  CompletionLog log;
  channel.CallAsync(proto::GetRequest{}, MillisecondsToMicroseconds(100),
                    [&log](Result<proto::Message> reply) {
                      log.Record("first", std::move(reply));
                    });
  ASSERT_TRUE(log.WaitFor(1, SecondsToMicroseconds(5)));
  EXPECT_EQ(log.done[0].second.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(channel.in_flight(), 0u);

  // Now release the parked reply: it lands with a request id nobody is
  // waiting on and must be discarded, not crash or complete anyone twice.
  {
    std::lock_guard<std::mutex> lock(parked->mu);
    ASSERT_TRUE(parked->done != nullptr);
    proto::GetReply late;
    late.value = "too-late";
    parked->done(late);
  }
  // Same connection still healthy for the next exchange.
  proto::GetRequest request;
  request.key = "fresh";
  Result<proto::Message> reply =
      channel.Call(request, SecondsToMicroseconds(5));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(std::get<proto::GetReply>(reply.value()).value, "echo:fresh");
  EXPECT_EQ(log.done.size(), 1u);  // The timed-out call never fired again.
}

TEST(TcpPipelineTest, WriteToAStoppedServerFailsWithoutSigpipe) {
  // The channel's loop is kept busy, so it cannot see the stopped server
  // close the connection. The first CallAsync after the stop writes into
  // the closed connection and draws a reset; the second write then fails
  // with EPIPE. That must come back as kUnavailable for every call, not as
  // a SIGPIPE that kills the process.
  TcpServer server;
  ASSERT_TRUE(server.Start(0, Echo).ok());
  EventLoop loop;
  ASSERT_TRUE(loop.Start().ok());
  TcpChannel channel(server.port(), 0, &loop);
  CompletionLog log;
  channel.CallAsync(proto::GetRequest{}, SecondsToMicroseconds(10),
                    [&log](Result<proto::Message> reply) {
                      log.Record("connect", std::move(reply));
                    });
  ASSERT_TRUE(log.WaitFor(1, SecondsToMicroseconds(5)));
  ASSERT_TRUE(log.done[0].second.ok()) << log.done[0].second.status();

  std::promise<void> busy;
  loop.RunInLoop([&busy] {
    busy.set_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  });
  busy.get_future().wait();
  server.Stop();
  for (const char* tag : {"first", "second"}) {
    channel.CallAsync(proto::GetRequest{}, SecondsToMicroseconds(10),
                      [&log, tag](Result<proto::Message> reply) {
                        log.Record(tag, std::move(reply));
                      });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(log.WaitFor(3, SecondsToMicroseconds(5)));
  for (size_t i = 1; i < log.done.size(); ++i) {
    EXPECT_EQ(log.done[i].second.status().code(), StatusCode::kUnavailable)
        << log.done[i].first;
  }
  EXPECT_EQ(channel.in_flight(), 0u);
  loop.Stop();
}

TEST(TcpPipelineTest, PipelinedWritesToStorageNodeApplyInOrder) {
  // Session guarantees ride on write order: frames pipelined on one
  // connection must be parsed and applied in send order, so the last Put
  // wins and timestamps ascend with issue order.
  storage::StorageNode node("n", "s", RealClock::Instance());
  storage::Tablet::Options options;
  options.is_primary = true;
  ASSERT_TRUE(node.AddTablet("t", options).ok());
  TcpServer server;
  ASSERT_TRUE(server
                  .Start(0,
                         [&](const proto::Message& request) {
                           return node.Handle(request);
                         })
                  .ok());
  TcpChannel channel(server.port());

  constexpr int kWrites = 100;
  CompletionLog log;
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  for (int i = 0; i < kWrites; ++i) {
    put.value = NumberedKey("v", i);
    channel.CallAsync(put, SecondsToMicroseconds(10),
                      [&log, tag = put.value](Result<proto::Message> reply) {
                        log.Record(tag, std::move(reply));
                      });
  }
  ASSERT_TRUE(log.WaitFor(kWrites, SecondsToMicroseconds(15)));
  Timestamp previous = Timestamp::Zero();
  // Completions arrive in server apply order here (the sync handler replies
  // in place), so the acked timestamps must strictly ascend.
  for (const auto& [tag, reply] : log.done) {
    ASSERT_TRUE(reply.ok()) << tag << ": " << reply.status();
    const Timestamp ts = std::get<proto::PutReply>(reply.value()).timestamp;
    EXPECT_GT(ts, previous) << tag;
    previous = ts;
  }

  proto::GetRequest get;
  get.table = "t";
  get.key = "k";
  Result<proto::Message> got = channel.Call(get, SecondsToMicroseconds(5));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::get<proto::GetReply>(got.value()).value,
            NumberedKey("v", kWrites - 1));
}

TEST(TcpTest, ScansShareVersionsThatConcurrentWritesReplace) {
  // A scan reply holds the store's own versions and the server encodes it
  // after the node lock is released, while writes keep replacing those
  // versions in the store. Every reply must still carry whole, correctly
  // keyed items (TSan checks the sharing).
  storage::StorageNode node("n", "s", RealClock::Instance());
  storage::Tablet::Options options;
  options.is_primary = true;
  ASSERT_TRUE(node.AddTablet("t", options).ok());
  constexpr int kKeys = 20;
  const auto write = [&node](int key, int round) {
    proto::PutRequest put;
    put.table = "t";
    put.key = NumberedKey("k", 100 + key);
    put.value = put.key + ":" + std::to_string(round);
    put.value.resize(100, '.');
    return std::holds_alternative<proto::PutReply>(node.Handle(put));
  };
  for (int key = 0; key < kKeys; ++key) {
    ASSERT_TRUE(write(key, 0));
  }
  TcpServer server;
  ASSERT_TRUE(server
                  .Start(0,
                         [&](const proto::Message& request) {
                           return node.Handle(request);
                         })
                  .ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int round = 1; !stop.load(); ++round) {
      for (int key = 0; key < kKeys; ++key) {
        (void)write(key, round);
      }
    }
  });
  TcpChannel channel(server.port());
  proto::RangeRequest scan;
  scan.table = "t";
  for (int i = 0; i < 200; ++i) {
    Result<proto::Message> reply = channel.Call(scan, SecondsToMicroseconds(5));
    ASSERT_TRUE(reply.ok()) << reply.status();
    const auto& range = std::get<proto::RangeReply>(reply.value());
    ASSERT_EQ(range.items.size(), static_cast<size_t>(kKeys));
    for (const proto::VersionPtr& item : range.items) {
      EXPECT_EQ(item->value.size(), 100u);
      EXPECT_EQ(item->value.rfind(item->key + ":", 0), 0u) << item->value;
    }
  }
  stop.store(true);
  writer.join();
}

TEST(TcpTest, ServesRealStorageNode) {
  ManualClock clock(1000);
  storage::StorageNode node("n", "s", &clock);
  storage::Tablet::Options options;
  options.is_primary = true;
  ASSERT_TRUE(node.AddTablet("t", options).ok());

  TcpServer server;
  ASSERT_TRUE(server
                  .Start(0,
                         [&](const proto::Message& request) {
                           return node.Handle(request);
                         })
                  .ok());
  TcpChannel channel(server.port());

  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  put.value = "v";
  Result<proto::Message> put_reply =
      channel.Call(put, SecondsToMicroseconds(5));
  ASSERT_TRUE(put_reply.ok());
  const Timestamp ts = std::get<proto::PutReply>(put_reply.value()).timestamp;
  EXPECT_GT(ts, Timestamp::Zero());

  proto::GetRequest get;
  get.table = "t";
  get.key = "k";
  Result<proto::Message> get_reply =
      channel.Call(get, SecondsToMicroseconds(5));
  ASSERT_TRUE(get_reply.ok());
  const auto& reply = std::get<proto::GetReply>(get_reply.value());
  EXPECT_TRUE(reply.found);
  EXPECT_EQ(reply.value, "v");
  EXPECT_EQ(reply.value_timestamp, ts);
}

}  // namespace
}  // namespace pileus::net
