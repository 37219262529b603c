#include "src/net/tcp.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/telemetry/metrics.h"

namespace pileus::net {

namespace {

// Per-event read budget: keep parsing latency bounded on a loop thread; the
// level-triggered epoll re-fires if more bytes are waiting.
constexpr int kMaxReadsPerEvent = 16;
constexpr size_t kReadChunk = 64 * 1024;
// Least room a read asks the parser for: a connection's buffer starts at this
// size and doubles only while the frames it carries outgrow it.
constexpr size_t kMinReadRoom = 1024;
constexpr int kMaxIov = 64;
constexpr MicrosecondCount kDefaultConnectTimeoutUs = 5 * 1000 * 1000;

// Process-wide TCP transport counters, summed over every channel and server
// in the process; writev_calls vs frames_sent exposes the reply-coalescing
// factor.
struct TcpMetrics {
  telemetry::Counter* connects;
  telemetry::Counter* reconnects;
  telemetry::Counter* connect_errors;
  telemetry::Counter* call_errors;
  telemetry::Counter* server_requests;
  telemetry::Counter* bytes_sent;
  telemetry::Counter* bytes_received;
  telemetry::Counter* frames_sent;
  telemetry::Counter* frames_received;
  telemetry::Counter* writev_calls;

  TcpMetrics() {
    telemetry::MetricsRegistry& registry =
        telemetry::MetricsRegistry::Default();
    connects = registry.GetCounter("pileus_net_tcp_connects_total");
    reconnects = registry.GetCounter("pileus_net_tcp_reconnects_total");
    connect_errors = registry.GetCounter("pileus_net_tcp_connect_errors_total");
    call_errors = registry.GetCounter("pileus_net_tcp_call_errors_total");
    server_requests =
        registry.GetCounter("pileus_net_tcp_server_requests_total");
    bytes_sent = registry.GetCounter("pileus_net_bytes_sent_total");
    bytes_received = registry.GetCounter("pileus_net_bytes_received_total");
    frames_sent = registry.GetCounter("pileus_net_frames_sent_total");
    frames_received = registry.GetCounter("pileus_net_frames_received_total");
    writev_calls = registry.GetCounter("pileus_net_tcp_writev_calls_total");
  }
};

TcpMetrics& Tcp() {
  static TcpMetrics* metrics = new TcpMetrics();
  return *metrics;
}

Status Errno(const char* what) {
  return Status(StatusCode::kUnavailable,
                std::string(what) + ": " + strerror(errno));
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

void AppendLe32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

void AppendLe64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

proto::Message DecodeErrorReply(const Status& status) {
  proto::ErrorReply err;
  err.code = status.code();
  err.message = status.message();
  return err;
}

// Reads until EAGAIN (bounded), straight into the parser's buffer. Returns
// false when the connection is dead (EOF or a hard error).
bool DrainSocketInto(int fd, FrameParser* parser) {
  for (int i = 0; i < kMaxReadsPerEvent; ++i) {
    const std::span<char> room = parser->PrepareAppend(kMinReadRoom);
    const ssize_t n = ::recv(fd, room.data(), room.size(), 0);
    if (n > 0) {
      Tcp().bytes_received->Increment(static_cast<uint64_t>(n));
      parser->CommitAppend(static_cast<size_t>(n));
      if (static_cast<size_t>(n) < room.size()) {
        return true;  // Socket drained.
      }
      continue;
    }
    if (n == 0) {
      return false;  // Peer closed.
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;
    }
    if (errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;  // Budget spent; epoll re-fires (level-triggered).
}

// Writes as much of the frame deque as the socket accepts, coalescing queued
// frames into single gathered writes. `*head` tracks the partially-written
// prefix of out->front(). Returns kOk with *blocked=true on EAGAIN.
Status WritevQueue(int fd, std::deque<std::string>* out, size_t* head,
                   size_t* queued_bytes, bool* blocked) {
  *blocked = false;
  while (!out->empty()) {
    struct iovec iov[kMaxIov];
    int iovcnt = 0;
    size_t skip = *head;
    for (const std::string& frame : *out) {
      if (iovcnt == kMaxIov) {
        break;
      }
      iov[iovcnt].iov_base = const_cast<char*>(frame.data()) + skip;
      iov[iovcnt].iov_len = frame.size() - skip;
      ++iovcnt;
      skip = 0;
    }
    // MSG_NOSIGNAL: a peer that closed must surface as EPIPE, not kill the
    // process with SIGPIPE.
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        *blocked = true;
        return Status::Ok();
      }
      return Errno("sendmsg");
    }
    Tcp().writev_calls->Increment();
    Tcp().bytes_sent->Increment(static_cast<uint64_t>(n));
    size_t remaining = static_cast<size_t>(n);
    while (remaining > 0 && !out->empty()) {
      const size_t left = out->front().size() - *head;
      if (remaining >= left) {
        remaining -= left;
        if (queued_bytes != nullptr) {
          *queued_bytes -= out->front().size();
        }
        out->pop_front();
        *head = 0;
        Tcp().frames_sent->Increment();
      } else {
        *head += remaining;
        remaining = 0;
      }
    }
  }
  return Status::Ok();
}

}  // namespace

// --- Codec ---

std::string EncodeWireFrame(uint64_t request_id,
                            const proto::Message& message) {
  // One buffer: a length placeholder and the id (inside the string's own
  // small buffer), the message appended in place after them, AppendMessage
  // allocating once for all of it, then the length patched in.
  std::string frame;
  AppendLe32(&frame, 0);
  AppendLe64(&frame, request_id);
  proto::AppendMessage(message, &frame);
  const auto length = static_cast<uint32_t>(frame.size() - 4);
  for (int i = 0; i < 4; ++i) {
    frame[i] = static_cast<char>(length >> (8 * i));
  }
  return frame;
}

void FrameParser::Reset() {
  // Give back a buffer one big frame grew, or a connection that once carried
  // one keeps its size for good.
  if (capacity_ > kReadChunk) {
    buffer_.reset();
    capacity_ = 0;
  }
  size_ = 0;
  consumed_ = 0;
  failed_ = Status::Ok();
}

void FrameParser::Compact() {
  if (consumed_ == 0) {
    return;
  }
  if (consumed_ == size_) {
    Reset();  // Only reached with no sticky failure to clear.
  } else if (consumed_ > kReadChunk && consumed_ * 2 >= size_) {
    std::memmove(buffer_.get(), buffer_.get() + consumed_, size_ - consumed_);
    size_ -= consumed_;
    consumed_ = 0;
  }
}

std::span<char> FrameParser::PrepareAppend(size_t min_bytes) {
  if (!failed_.ok()) {
    size_ = 0;  // Whatever arrives is dropped; keep only the room.
    consumed_ = 0;
  }
  Compact();
  if (capacity_ - size_ < min_bytes) {
    const size_t live = size_ - consumed_;
    if (capacity_ - live >= min_bytes) {
      // Enough room once the handed-out bytes before the live ones go.
      std::memmove(buffer_.get(), buffer_.get() + consumed_, live);
    } else {
      const size_t capacity = std::max(live + min_bytes, 2 * capacity_);
      auto grown = std::make_unique_for_overwrite<char[]>(capacity);
      if (live > 0) {
        std::memcpy(grown.get(), buffer_.get() + consumed_, live);
      }
      buffer_ = std::move(grown);
      capacity_ = capacity;
    }
    size_ = live;
    consumed_ = 0;
  }
  return std::span<char>(buffer_.get() + size_, capacity_ - size_);
}

void FrameParser::CommitAppend(size_t bytes) {
  if (failed_.ok()) {
    size_ += bytes;
  }
}

void FrameParser::Feed(std::string_view bytes) {
  if (!failed_.ok()) {
    return;  // Stream already unrecoverable; drop everything.
  }
  if (bytes.empty()) {
    return;
  }
  std::memcpy(PrepareAppend(bytes.size()).data(), bytes.data(), bytes.size());
  CommitAppend(bytes.size());
}

Status FrameParser::Next(std::optional<Frame>* out) {
  out->reset();
  if (!failed_.ok()) {
    return failed_;
  }
  Compact();
  const size_t avail = size_ - consumed_;
  if (avail < 4) {
    return Status::Ok();
  }
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.get() + consumed_);
  const uint32_t len = static_cast<uint32_t>(p[0]) |
                       (static_cast<uint32_t>(p[1]) << 8) |
                       (static_cast<uint32_t>(p[2]) << 16) |
                       (static_cast<uint32_t>(p[3]) << 24);
  if (len > max_frame_) {
    failed_ = Status(StatusCode::kCorruption, "frame exceeds max size");
    return failed_;
  }
  if (len < 8) {
    failed_ = Status(StatusCode::kCorruption, "frame shorter than request id");
    return failed_;
  }
  if (avail < 4 + static_cast<size_t>(len)) {
    return Status::Ok();
  }
  Frame frame;
  uint64_t id = 0;
  for (int i = 0; i < 8; ++i) {
    id |= static_cast<uint64_t>(p[4 + i]) << (8 * i);
  }
  frame.request_id = id;
  frame.message_bytes = std::string_view(
      buffer_.get() + consumed_ + 12, static_cast<size_t>(len) - 8);
  consumed_ += 4 + static_cast<size_t>(len);
  *out = frame;
  return Status::Ok();
}

// --- Server ---

struct TcpServer::Connection
    : std::enable_shared_from_this<TcpServer::Connection> {
  Connection(TcpServer* owner, std::shared_ptr<EventLoopPool> loop_pool,
             EventLoop* event_loop, uint64_t conn_key, UniqueFd sock)
      : server(owner),
        pool(std::move(loop_pool)),
        loop(event_loop),
        key(conn_key),
        fd(std::move(sock)) {}

  TcpServer* const server;  // Valid while the loops run; Stop() joins first.
  // Keeps the loop object alive so a reply completing after Stop() can
  // no-op against the (stopped) loop instead of touching freed memory.
  const std::shared_ptr<EventLoopPool> pool;
  EventLoop* const loop;
  const uint64_t key;

  std::mutex mu;
  UniqueFd fd;
  bool closed = false;
  FrameParser parser;
  std::deque<std::string> out;  // Encoded reply frames awaiting write.
  size_t out_head = 0;
  size_t out_bytes = 0;
  bool want_write = false;
  bool flush_scheduled = false;

  void OnEvent(uint32_t events) {
    // Each request is decoded from the parser's view before the next Next.
    std::vector<std::pair<uint64_t, Result<proto::Message>>> requests;
    bool tear = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (closed || !fd.valid()) {
        return;
      }
      if (events & (EPOLLERR | EPOLLHUP)) {
        tear = true;
      }
      if (!tear && (events & EPOLLOUT)) {
        tear = !FlushLocked().ok();
      }
      if (!tear && (events & EPOLLIN)) {
        const bool alive = DrainSocketInto(fd.get(), &parser);
        while (true) {
          std::optional<FrameParser::Frame> frame;
          if (!parser.Next(&frame).ok()) {
            // Desynchronized stream: serve what parsed cleanly, then cut the
            // connection (the peer cannot be answered reliably anymore).
            tear = true;
            break;
          }
          if (!frame.has_value()) {
            break;
          }
          requests.emplace_back(frame->request_id,
                                proto::DecodeMessage(frame->message_bytes));
        }
        if (!alive) {
          tear = true;
        }
      }
    }
    for (auto& [request_id, request] : requests) {
      const uint64_t id = request_id;
      Tcp().frames_received->Increment();
      Tcp().server_requests->Increment();
      server->requests_handled_.fetch_add(1, std::memory_order_relaxed);
      if (!request.ok()) {
        SendReply(id, DecodeErrorReply(request.status()));
        continue;
      }
      auto self = shared_from_this();
      server->handler_(request.value(), [self, id](proto::Message reply) {
        self->SendReply(id, reply);
      });
    }
    if (tear) {
      Teardown();
    }
  }

  // Thread-safe: called inline by synchronous handlers on the loop thread
  // and by async completions (group commit) from arbitrary threads. Replies
  // are queued and flushed from the loop thread, so replies enqueued while
  // one event batch is being handled coalesce into a single writev.
  void SendReply(uint64_t request_id, const proto::Message& reply) {
    enum class After { kNone, kTear, kSchedule };
    After after = After::kNone;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (closed || !fd.valid()) {
        return;  // Connection gone; the reply is dropped.
      }
      out.push_back(EncodeWireFrame(request_id, reply));
      out_bytes += out.back().size();
      if (out_bytes > kMaxWriteQueueBytes) {
        after = After::kTear;  // Peer stopped draining; cut it off.
      } else if (!flush_scheduled) {
        flush_scheduled = true;
        after = After::kSchedule;
      }
    }
    if (after == After::kTear) {
      Teardown();
    } else if (after == After::kSchedule) {
      auto self = shared_from_this();
      loop->RunInLoop([self] { self->FlushFromLoop(); });
    }
  }

  void FlushFromLoop() {
    bool tear = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      flush_scheduled = false;
      if (closed || !fd.valid()) {
        return;
      }
      tear = !FlushLocked().ok();
    }
    if (tear) {
      Teardown();
    }
  }

  Status FlushLocked() {
    bool blocked = false;
    const Status status =
        WritevQueue(fd.get(), &out, &out_head, &out_bytes, &blocked);
    if (!status.ok()) {
      return status;
    }
    if (blocked && !want_write) {
      want_write = true;
      (void)loop->ModifyFd(fd.get(), EPOLLIN | EPOLLOUT);
    } else if (!blocked && want_write) {
      want_write = false;
      (void)loop->ModifyFd(fd.get(), EPOLLIN);
    }
    return Status::Ok();
  }

  // Adds the socket to the loop's epoll set. Runs on the loop thread; a
  // connection closed before its registration ran is left alone.
  void RegisterFromLoop() {
    Status status;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (closed || !fd.valid()) {
        return;
      }
      auto self = shared_from_this();
      status = loop->RegisterFd(
          fd.get(), EPOLLIN, [self](uint32_t events) { self->OnEvent(events); });
    }
    if (!status.ok()) {
      PILEUS_LOG(kWarning) << "failed to register connection: " << status;
      Teardown();
    }
  }

  // Closes the socket and schedules removal from the server map. Safe from
  // any thread; the map removal runs on the loop thread, where the server is
  // guaranteed alive (Stop() joins the loops before the server dies).
  void Teardown() {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (closed) {
        return;
      }
      closed = true;
      if (fd.valid()) {
        loop->UnregisterFd(fd.get());
        fd.Reset();
      }
      out.clear();
      out_bytes = 0;
    }
    auto self = shared_from_this();
    loop->RunInLoop([self] { self->server->RemoveConnection(self->key); });
  }
};

Status TcpServer::Start(uint16_t port, Handler handler) {
  return Start(port, std::move(handler), Options{});
}

Status TcpServer::Start(uint16_t port, Handler handler, Options options) {
  auto sync = std::make_shared<Handler>(std::move(handler));
  return StartAsync(
      port,
      [sync](const proto::Message& request,
             std::function<void(proto::Message)> done) {
        done((*sync)(request));
      },
      options);
}

Status TcpServer::StartAsync(uint16_t port, AsyncHandler handler) {
  return StartAsync(port, std::move(handler), Options{});
}

Status TcpServer::StartAsync(uint16_t port, AsyncHandler handler,
                             Options options) {
  if (started_.load(std::memory_order_acquire)) {
    return Status(StatusCode::kInvalidArgument, "server already started");
  }
  handler_ = std::move(handler);
  options_ = options;
  if (options_.loop_threads < 1) {
    options_.loop_threads = 1;
  }
  uint16_t bound = 0;
  Result<UniqueFd> listen_fd = ListenTcp(port, &bound);
  if (!listen_fd.ok()) {
    return listen_fd.status();
  }
  listen_fd_ = std::move(listen_fd).value();
  SetNonBlocking(listen_fd_.get());
  port_ = bound;
  loops_ = std::make_shared<EventLoopPool>(options_.loop_threads);
  Status status = loops_->Start();
  if (status.ok()) {
    status = loops_->loop(0)->RegisterFd(listen_fd_.get(), EPOLLIN,
                                         [this](uint32_t) { OnAcceptable(); });
  }
  if (!status.ok()) {
    loops_->Stop();
    loops_.reset();
    listen_fd_.Reset();
    return status;
  }
  stopping_.store(false, std::memory_order_release);
  started_.store(true, std::memory_order_release);
  return Status::Ok();
}

void TcpServer::Stop() {
  if (!started_.exchange(false)) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  if (loops_ != nullptr) {
    loops_->loop(0)->UnregisterFd(listen_fd_.get());
    // Close every connection first so an async reply arriving during
    // shutdown drops at the closed check instead of queueing loop work.
    std::vector<std::shared_ptr<Connection>> connections;
    {
      std::lock_guard<std::mutex> lock(mu_);
      connections.reserve(connections_.size());
      for (auto& [key, conn] : connections_) {
        connections.push_back(conn);
      }
      connections_.clear();
    }
    for (auto& conn : connections) {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->closed = true;
      if (conn->fd.valid()) {
        conn->loop->UnregisterFd(conn->fd.get());
        conn->fd.Reset();
      }
      conn->out.clear();
      conn->out_bytes = 0;
    }
    loops_->Stop();
    loops_.reset();  // Lingering connections keep the pool alive if needed.
  }
  listen_fd_.Reset();
}

void TcpServer::OnAcceptable() {
  while (true) {
    const int raw = ::accept4(listen_fd_.get(), nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (raw < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // EAGAIN or a transient error; epoll re-fires on new clients.
    }
    AdoptConnection(UniqueFd(raw));
  }
}

void TcpServer::AdoptConnection(UniqueFd fd) {
  const int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  EventLoop* loop = loops_->Next();
  const uint64_t key =
      next_connection_key_.fetch_add(1, std::memory_order_relaxed);
  auto conn =
      std::make_shared<Connection>(this, loops_, loop, key, std::move(fd));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      return;  // Connection (and socket) dropped.
    }
    connections_[key] = conn;
  }
  // The connection's own loop thread registers the socket, so registration,
  // dispatch and the close in Teardown are ordered on one thread (a Stop or
  // a reply on another thread closes under the connection's lock, which
  // registration holds too).
  loop->RunInLoop([conn] { conn->RegisterFromLoop(); });
}

void TcpServer::RemoveConnection(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  connections_.erase(key);
}

// --- Client ---

struct TcpChannel::State : std::enable_shared_from_this<TcpChannel::State> {
  State(uint16_t server_port, EventLoop* pinned_loop)
      : port(server_port),
        loop(pinned_loop != nullptr ? pinned_loop
                                    : SharedClientLoops().Next()) {}

  using Completion = std::pair<AsyncCallback, Result<proto::Message>>;

  const uint16_t port;
  // From the shared client pool (never destroyed) or caller-pinned, in which
  // case the caller keeps it alive past the channel.
  EventLoop* const loop;
  std::atomic<uint64_t> next_id{1};

  std::mutex mu;
  // The multiplexed connection CallAsync pipelines on, driven by `loop`.
  UniqueFd fd;
  bool closed = false;  // Channel destroyed.
  bool ever_connected = false;
  FrameParser parser{kMaxFrameBytes};
  std::unordered_map<uint64_t, AsyncCallback> pending;
  std::deque<std::string> out;
  size_t out_head = 0;
  bool want_write = false;
  // A connection for synchronous calls, with the parser its replies are
  // received into: the parser stays with the connection, so its buffer is
  // allocated once, not once per call.
  struct SyncConnection {
    UniqueFd fd;
    FrameParser parser{kMaxFrameBytes};
  };
  // Connections no synchronous Call is using. A Call owns one for its whole
  // round trip, so the list holds the peak number of concurrent callers.
  std::vector<SyncConnection> idle;

  // Opens a connection, counted in the transport metrics; `reconnect` marks
  // one that replaces a connection that failed.
  Result<UniqueFd> Connect(MicrosecondCount timeout_us, bool reconnect) {
    Result<UniqueFd> conn = ConnectTcp(
        port, timeout_us > 0 ? timeout_us : kDefaultConnectTimeoutUs);
    if (!conn.ok()) {
      Tcp().connect_errors->Increment();
      return conn;
    }
    Tcp().connects->Increment();
    if (reconnect) {
      Tcp().reconnects->Increment();
    }
    return conn;
  }

  Status EnsureConnectedLocked(MicrosecondCount timeout_us) {
    if (fd.valid()) {
      return Status::Ok();
    }
    Result<UniqueFd> conn = Connect(timeout_us, ever_connected);
    if (!conn.ok()) {
      return conn.status();
    }
    UniqueFd sock = std::move(conn).value();
    SetNonBlocking(sock.get());
    ever_connected = true;
    parser.Reset();
    out.clear();
    out_head = 0;
    want_write = false;
    auto self = shared_from_this();
    const Status status = loop->RegisterFd(
        sock.get(), EPOLLIN, [self](uint32_t events) { self->OnEvent(events); });
    if (!status.ok()) {
      return status;
    }
    fd = std::move(sock);
    return Status::Ok();
  }

  Status FlushLocked() {
    bool blocked = false;
    const Status status =
        WritevQueue(fd.get(), &out, &out_head, nullptr, &blocked);
    if (!status.ok()) {
      return status;
    }
    if (blocked && !want_write) {
      want_write = true;
      (void)loop->ModifyFd(fd.get(), EPOLLIN | EPOLLOUT);
    } else if (!blocked && want_write) {
      want_write = false;
      (void)loop->ModifyFd(fd.get(), EPOLLIN);
    }
    return Status::Ok();
  }

  // Drops the connection and moves every in-flight call into `done` with
  // `status` — the fail-fast contract: pipelined callers learn about a dead
  // connection immediately instead of serially timing out.
  void FailAllLocked(const Status& status,
                     std::vector<Completion>* done) {
    if (fd.valid()) {
      loop->UnregisterFd(fd.get());
      fd.Reset();
    }
    out.clear();
    out_head = 0;
    want_write = false;
    parser.Reset();
    for (auto& [id, callback] : pending) {
      Tcp().call_errors->Increment();
      done->emplace_back(std::move(callback), Result<proto::Message>(status));
    }
    pending.clear();
  }

  void OnEvent(uint32_t events) {
    std::vector<Completion> done;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (closed || !fd.valid()) {
        // Stale dispatch for an fd already torn down.
      } else if (events & (EPOLLERR | EPOLLHUP)) {
        FailAllLocked(Status(StatusCode::kUnavailable, "connection reset"),
                      &done);
      } else {
        if (events & EPOLLOUT) {
          const Status status = FlushLocked();
          if (!status.ok()) {
            FailAllLocked(
                Status(StatusCode::kUnavailable, status.message()), &done);
          }
        }
        if (fd.valid() && (events & EPOLLIN)) {
          const bool alive = DrainSocketInto(fd.get(), &parser);
          while (fd.valid()) {
            std::optional<FrameParser::Frame> frame;
            const Status status = parser.Next(&frame);
            if (!status.ok()) {
              // Reply stream desynchronized: every in-flight call gets the
              // corruption status (a reply cannot be attributed safely).
              FailAllLocked(status, &done);
              break;
            }
            if (!frame.has_value()) {
              break;
            }
            Tcp().frames_received->Increment();
            auto it = pending.find(frame->request_id);
            if (it == pending.end()) {
              // Reply to a call that already timed out; discard, keep going.
              PILEUS_LOG(kDebug)
                  << "discarding stale reply id " << frame->request_id;
              continue;
            }
            done.emplace_back(std::move(it->second),
                              proto::DecodeMessage(frame->message_bytes));
            pending.erase(it);
          }
          if (!alive && fd.valid()) {
            FailAllLocked(
                Status(StatusCode::kUnavailable, "connection closed by peer"),
                &done);
          }
        }
      }
    }
    for (auto& [callback, result] : done) {
      callback(std::move(result));
    }
  }

  void HandleTimeout(uint64_t id) {
    AsyncCallback callback;
    {
      std::lock_guard<std::mutex> lock(mu);
      auto it = pending.find(id);
      if (it == pending.end()) {
        return;  // Completed (or failed) before the deadline.
      }
      callback = std::move(it->second);
      pending.erase(it);
    }
    // The connection stays up: one slow request must not sink the other
    // calls pipelined behind it. The eventual reply is discarded by id.
    Tcp().call_errors->Increment();
    callback(Result<proto::Message>(
        Status(StatusCode::kTimeout, "call deadline exceeded")));
  }

  // One synchronous round trip on a connection of the caller's own, idle or
  // new: the calling thread writes the frame and reads the reply. Only a
  // clean reply returns the connection to the idle list, so a late reply to
  // a timed-out call dies with its closed connection.
  Result<proto::Message> RoundTrip(const std::string& frame, uint64_t id,
                                   MicrosecondCount deadline_us,
                                   bool reconnect) {
    SyncConnection conn;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!idle.empty()) {
        conn = std::move(idle.back());
        idle.pop_back();
      }
    }
    if (!conn.fd.valid()) {
      const MicrosecondCount left =
          deadline_us > 0
              ? std::max<MicrosecondCount>(
                    1, deadline_us - RealClock::Instance()->NowMicros())
              : 0;
      Result<UniqueFd> opened = Connect(left, reconnect);
      if (!opened.ok()) {
        return opened.status();
      }
      conn.fd = std::move(opened).value();
    }
    PILEUS_RETURN_IF_ERROR(
        WriteFull(conn.fd.get(), frame.data(), frame.size(), deadline_us));
    Tcp().bytes_sent->Increment(frame.size());
    Tcp().frames_sent->Increment();
    // An idle connection's parser is empty: only a clean reply that left no
    // byte behind returned it to the list.
    FrameParser& reply_parser = conn.parser;
    std::optional<FrameParser::Frame> reply;
    while (true) {
      PILEUS_RETURN_IF_ERROR(reply_parser.Next(&reply));
      if (reply.has_value()) {
        break;
      }
      PILEUS_RETURN_IF_ERROR(WaitReady(conn.fd.get(), POLLIN, deadline_us));
      const std::span<char> room = reply_parser.PrepareAppend(kMinReadRoom);
      const ssize_t n =
          ::recv(conn.fd.get(), room.data(), room.size(), MSG_DONTWAIT);
      if (n > 0) {
        Tcp().bytes_received->Increment(static_cast<uint64_t>(n));
        reply_parser.CommitAppend(static_cast<size_t>(n));
      } else if (n == 0) {
        return Status(StatusCode::kUnavailable, "connection closed by peer");
      } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        return Errno("recv");
      }
    }
    Tcp().frames_received->Increment();
    if (reply->request_id != id || reply_parser.buffered_bytes() != 0) {
      return Status(StatusCode::kCorruption, "reply does not match the call");
    }
    Result<proto::Message> message = proto::DecodeMessage(reply->message_bytes);
    if (message.ok()) {
      // An idle connection keeps a buffer of at most 64 KiB: a big reply's
      // goes now, not at the connection's next call.
      reply_parser.Reset();
      std::lock_guard<std::mutex> lock(mu);
      idle.push_back(std::move(conn));
    }
    return message;
  }

  // Closes every idle connection: they share the fate of one that failed.
  void DropIdle() {
    std::lock_guard<std::mutex> lock(mu);
    idle.clear();
  }

  size_t InFlight() {
    std::lock_guard<std::mutex> lock(mu);
    return pending.size();
  }
};

TcpChannel::TcpChannel(uint16_t port,
                       MicrosecondCount artificial_one_way_delay_us,
                       EventLoop* loop)
    : state_(std::make_shared<State>(port, loop)),
      artificial_delay_us_(artificial_one_way_delay_us) {}

TcpChannel::~TcpChannel() {
  std::vector<State::Completion> done;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->closed = true;
    state_->idle.clear();
    state_->FailAllLocked(
        Status(StatusCode::kCancelled, "channel destroyed"), &done);
  }
  for (auto& [callback, result] : done) {
    callback(std::move(result));
  }
}

size_t TcpChannel::in_flight() const { return state_->InFlight(); }

void TcpChannel::CallAsync(const proto::Message& request,
                           MicrosecondCount timeout_us,
                           AsyncCallback callback) {
  State* const state = state_.get();
  std::vector<State::Completion> done;
  uint64_t sent_id = 0;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->closed) {
      done.emplace_back(
          std::move(callback),
          Result<proto::Message>(
              Status(StatusCode::kCancelled, "channel destroyed")));
    } else {
      Status status = state->EnsureConnectedLocked(timeout_us);
      if (!status.ok()) {
        Tcp().call_errors->Increment();
        done.emplace_back(std::move(callback),
                          Result<proto::Message>(status));
      } else {
        const uint64_t id =
            state->next_id.fetch_add(1, std::memory_order_relaxed);
        state->pending.emplace(id, std::move(callback));
        state->out.push_back(EncodeWireFrame(id, request));
        status = state->FlushLocked();
        if (!status.ok()) {
          state->FailAllLocked(
              Status(StatusCode::kUnavailable, status.message()), &done);
        } else {
          sent_id = id;
        }
      }
    }
  }
  for (auto& [cb, result] : done) {
    cb(std::move(result));
  }
  if (sent_id != 0 && timeout_us > 0) {
    state->loop->RunAfter(timeout_us, [shared = state_, sent_id] {
      shared->HandleTimeout(sent_id);
    });
  }
}

Result<proto::Message> TcpChannel::Call(const proto::Message& request,
                                        MicrosecondCount timeout_us) {
  if (artificial_delay_us_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(artificial_delay_us_));
  }
  const MicrosecondCount deadline_us =
      timeout_us > 0 ? RealClock::Instance()->NowMicros() + timeout_us : 0;
  const uint64_t id = state_->next_id.fetch_add(1, std::memory_order_relaxed);
  const std::string frame = EncodeWireFrame(id, request);
  Result<proto::Message> result =
      state_->RoundTrip(frame, id, deadline_us, /*reconnect=*/false);
  // One retry: a server restart leaves dead sockets whose first use fails
  // kUnavailable; the frame never reached the new server, so a resend on a fresh connection is safe. Timeouts are
  // not resent: after silence the request may still be live.
  if (!result.ok() && result.status().code() == StatusCode::kUnavailable) {
    state_->DropIdle();
    if (deadline_us == 0 || RealClock::Instance()->NowMicros() < deadline_us) {
      Tcp().call_errors->Increment();
      result = state_->RoundTrip(frame, id, deadline_us, /*reconnect=*/true);
    }
  }
  if (!result.ok()) {
    Tcp().call_errors->Increment();
  } else if (artificial_delay_us_ > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(artificial_delay_us_));
  }
  return result;
}

}  // namespace pileus::net
