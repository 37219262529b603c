// TCP transport: an epoll-based multiplexed server and a pipelining Channel.
//
// Wire format per frame: 4-byte little-endian length, then an 8-byte
// little-endian request id, then the encoded proto::Message. The request id
// is the multiplexing key: a client may have many requests in flight on one
// connection and replies may complete in any order; each reply frame echoes
// the id of the request it answers.
//
// Execution model (DESIGN.md "Async transport & group commit"):
//  - TcpServer runs a small EventLoopPool; the listener and every accepted
//    connection live on loop threads with nonblocking sockets.
//  - Parse, handle, and reply are decoupled: frames are parsed on the loop
//    thread, handed to the handler, and replies are appended to a
//    per-connection write queue flushed with one gathered sendmsg so
//    pipelined replies coalesce into single syscalls. An AsyncHandler may
//    complete on another thread entirely (WAL group commit acks ride this
//    path).
//  - TcpChannel::CallAsync sends without blocking on one multiplexed
//    connection and invokes a completion callback on a shared client event
//    loop, with a loop timer for its deadline. The synchronous Channel::Call
//    never touches the loop: the calling thread takes a connection of its
//    own, writes the frame and reads the reply itself.

#ifndef PILEUS_SRC_NET_TCP_H_
#define PILEUS_SRC_NET_TCP_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/channel.h"
#include "src/net/event_loop.h"
#include "src/net/socket_util.h"

namespace pileus::net {

// Frames whose length prefix exceeds this are rejected as corruption.
inline constexpr size_t kMaxFrameBytes = 64 * 1024 * 1024;

// Server-side handler that may complete asynchronously: call `done` exactly
// once with the reply, from any thread. The storage group-commit path holds
// `done` until the WAL batch is synced.
using AsyncHandler = std::function<void(
    const proto::Message&, std::function<void(proto::Message)>)>;

// --- Multiplexed frame codec ---

// Builds a complete on-wire frame: 4-byte LE length + id + encoded message.
std::string EncodeWireFrame(uint64_t request_id, const proto::Message& message);

// Incremental parser for the multiplexed stream. Feed bytes as they arrive
// (partial reads, split length prefixes — any fragmentation is fine), or
// receive them straight into the parser's buffer with PrepareAppend and
// CommitAppend; Next() yields complete frames in order, as views into the
// parser's buffer, so a frame is decoded where it was received, without a
// copy. Corruption (an absurd or runt length) is sticky: the stream cannot be
// resynchronized and the connection must be torn down.
class FrameParser {
 public:
  struct Frame {
    uint64_t request_id = 0;
    // The encoded proto::Message, inside the parser's buffer: valid until the
    // next Feed, Next or Reset.
    std::string_view message_bytes;
  };

  explicit FrameParser(size_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  void Feed(std::string_view bytes);

  // The free room at the end of the buffer, at least `min_bytes` of it, for
  // a read (recv) to fill in place; CommitAppend(n) then adds the first n
  // bytes written there to the stream. The buffer grows only when the room
  // is short of `min_bytes`, so it settles at the size of the frames the
  // stream carries. Ends the last frame's view, like Feed. After a
  // corruption the room is still valid, but what is committed is dropped.
  std::span<char> PrepareAppend(size_t min_bytes);
  void CommitAppend(size_t bytes);

  // Fills `out` with the next complete frame, or nullopt when more bytes are
  // needed. Returns kCorruption (sticky) on an invalid length prefix.
  // Invalidates the previous frame's view.
  Status Next(std::optional<Frame>* out);

  // Discards buffered bytes and clears a sticky failure (new connection, or
  // a connection going idle). Gives back a buffer a big frame grew.
  void Reset();

  size_t buffered_bytes() const { return size_ - consumed_; }
  // Bytes the parser keeps allocated (tests: a consumed big frame's buffer
  // is given back by the next Feed or Next).
  size_t buffer_capacity() const { return capacity_; }

 private:
  // Drops the bytes of frames already handed out. Runs at the start of Feed,
  // PrepareAppend and Next, the calls that end the last frame's view.
  void Compact();

  size_t max_frame_;
  // buffer_[consumed_, size_) holds the bytes not yet handed out as frames;
  // buffer_ has room for capacity_ bytes, not initialized past size_.
  std::unique_ptr<char[]> buffer_;
  size_t capacity_ = 0;
  size_t size_ = 0;
  size_t consumed_ = 0;
  Status failed_ = Status::Ok();
};

// --- Server ---

class TcpServer {
 public:
  struct Options {
    // Reactor threads; connections are spread across them round-robin.
    int loop_threads = 2;
  };

  // A peer that stops draining replies past this many queued bytes is cut
  // off (prevents unbounded buffering under pipelined load).
  static constexpr size_t kMaxWriteQueueBytes = 256 * 1024 * 1024;

  TcpServer() = default;
  ~TcpServer() { Stop(); }

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds 127.0.0.1:port (0 = ephemeral) and serves `handler` on the event
  // loops (the synchronous handler runs inline on a loop thread).
  Status Start(uint16_t port, Handler handler);
  Status Start(uint16_t port, Handler handler, Options options);
  // Same, but the handler may defer its reply (group commit, slow work).
  Status StartAsync(uint16_t port, AsyncHandler handler);
  Status StartAsync(uint16_t port, AsyncHandler handler, Options options);

  // Stops the loops, closes all connections, joins all threads. Replies still
  // pending in async handlers are dropped. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  uint64_t requests_handled() const {
    return requests_handled_.load(std::memory_order_relaxed);
  }

  // The server's reactor pool; valid between Start and Stop. Lets an
  // in-process client share the server's loop threads (single-threaded
  // deterministic tests, benches on small machines).
  EventLoopPool* loop_pool() { return loops_.get(); }

 private:
  struct Connection;

  void OnAcceptable();
  void AdoptConnection(UniqueFd fd);
  void RemoveConnection(uint64_t key);

  AsyncHandler handler_;
  Options options_;
  std::shared_ptr<EventLoopPool> loops_;  // Shared with connections so late
                                          // completions can no-op safely.
  UniqueFd listen_fd_;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> requests_handled_{0};
  std::atomic<uint64_t> next_connection_key_{1};

  std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> connections_;
};

// --- Client ---

// Channel to one TCP server. CallAsync pipelines on one multiplexed
// connection: any number of calls may be in flight; replies are matched to
// callers by request id and may complete out of order; on disconnect every
// in-flight call fails fast with kUnavailable. A synchronous Call runs its
// whole round trip on the calling thread, over a connection it holds alone
// for that call, so it is not ordered behind async calls in flight.
// Connections are established lazily and re-established after errors. An
// optional artificial one-way delay emulates WAN latency over loopback for
// the examples (applied on the synchronous path).
class TcpChannel : public Channel {
 public:
  using AsyncCallback = std::function<void(Result<proto::Message>)>;

  // `loop` pins the channel's async connection to a specific event loop
  // instead of the shared client pool; it must outlive the channel (and stay
  // running for async completions to fire). Call works from any thread,
  // that loop's own included.
  explicit TcpChannel(uint16_t port,
                      MicrosecondCount artificial_one_way_delay_us = 0,
                      EventLoop* loop = nullptr);
  ~TcpChannel() override;

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  // Synchronous call on an idle connection of the channel, or a new one
  // when every connection is busy; the idle list keeps as many connections
  // as callers were ever concurrent. A timed-out call closes its connection.
  // On kUnavailable every idle connection is closed too, and the call is
  // retried once on a fresh connection while deadline budget remains (a
  // server restart mid-stream recovers transparently).
  Result<proto::Message> Call(const proto::Message& request,
                              MicrosecondCount timeout_us) override;

  // Pipelined send: returns immediately; `callback` runs exactly once — with
  // the reply, kTimeout at the deadline (the connection stays up; a late
  // reply is discarded), kUnavailable if the connection drops first, or
  // kCorruption if the reply stream desynchronizes. The callback is invoked
  // on a shared client event-loop thread (or inline on connect failure) and
  // must not block.
  void CallAsync(const proto::Message& request, MicrosecondCount timeout_us,
                 AsyncCallback callback);

  // Async calls currently awaiting replies (tests / backpressure
  // heuristics).
  size_t in_flight() const;

 private:
  struct State;

  std::shared_ptr<State> state_;
  const MicrosecondCount artificial_delay_us_;
};

}  // namespace pileus::net

#endif  // PILEUS_SRC_NET_TCP_H_
