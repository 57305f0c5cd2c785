#include "net/epoll_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

namespace scalewall::net {

namespace {

// Parses "ip:port" (or "localhost:port") into a sockaddr_in.
bool ParseAddress(const std::string& address, sockaddr_in* out) {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos) return false;
  std::string host = address.substr(0, colon);
  const std::string port_str = address.substr(colon + 1);
  if (host == "localhost" || host.empty()) host = "127.0.0.1";
  char* end = nullptr;
  const long port = strtol(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port < 0 || port > 65535) return false;
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<uint16_t>(port));
  return inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1;
}

}  // namespace

EpollTransport::EpollTransport(obs::MetricsRegistry* metrics,
                               EpollTransportOptions options)
    : options_(options), stats_(metrics, "epoll") {}

EpollTransport::~EpollTransport() { Stop(); }

void EpollTransport::SetHandler(Handler handler) {
  handler_ = std::move(handler);
}

bool EpollTransport::Start() {
  if (started_) return true;
  if (!loop_.Start()) return false;
  workers_stop_ = false;
  for (int i = 0; i < options_.handler_threads; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  started_ = true;
  return true;
}

void EpollTransport::Stop() {
  if (!started_) return;
  // Tear down routing state on the loop thread, synchronously: after
  // this block no callback can fire, so joining is race-free.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  loop_.Post([&] {
    // Queues first: completing a pending call pumps its peer's queue,
    // which must find it empty or teardown would dispatch new calls.
    for (auto& [name, peer] : peers_) {
      while (!peer.queue.empty()) {
        QueuedCall call = std::move(peer.queue.front());
        peer.queue.pop_front();
        call.done(Status::Unavailable("transport stopped"));
      }
    }
    std::vector<uint64_t> correlations;
    correlations.reserve(pending_.size());
    for (const auto& [corr, call] : pending_) correlations.push_back(corr);
    for (uint64_t corr : correlations) {
      CompleteCall(corr, Status::Unavailable("transport stopped"));
    }
    std::vector<uint64_t> conn_ids;
    conn_ids.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) conn_ids.push_back(id);
    for (uint64_t id : conn_ids) {
      CloseConnection(id, Status::Unavailable("transport stopped"));
    }
    if (listen_fd_ >= 0) {
      loop_.RemoveFd(listen_fd_);
      close(listen_fd_);
      listen_fd_ = -1;
    }
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    workers_stop_ = true;
    jobs_cv_.notify_all();
  }
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  jobs_.clear();
  loop_.Stop();
  started_ = false;
}

Status EpollTransport::Listen(const std::string& address) {
  if (!started_) return Status::FailedPrecondition("transport not started");
  sockaddr_in addr;
  if (!ParseAddress(address, &addr)) {
    return Status::InvalidArgument("bad listen address: " + address);
  }
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return Status::Unavailable("bind failed: " + address + ": " +
                               std::strerror(errno));
  }
  if (listen(fd, 128) != 0) {
    close(fd);
    return Status::Internal("listen failed: " + std::string(strerror(errno)));
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  listen_port_ = ntohs(bound.sin_port);

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool added = false;
  loop_.Post([&] {
    listen_fd_ = fd;
    added = loop_.AddFd(fd, EPOLLIN, [this](uint32_t) {
      while (true) {
        const int cfd = accept4(listen_fd_, nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (cfd < 0) break;  // EAGAIN or transient error: wait for edge
        const int nd = 1;
        setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &nd, sizeof(nd));
        ++stats_.accepts;
        auto conn = std::make_unique<Connection>();
        conn->id = next_conn_id_++;
        conn->fd = cfd;
        conn->outbound = false;
        conn->connected = true;
        const uint64_t id = conn->id;
        conns_[id] = std::move(conn);
        loop_.AddFd(cfd, EPOLLIN, [this, id](uint32_t events) {
          if (events & (EPOLLERR | EPOLLHUP)) {
            CloseConnection(id, Status::Unavailable("peer hung up"));
            return;
          }
          if (events & EPOLLOUT) OnWritable(id);
          if (events & EPOLLIN) OnReadable(id);
        });
      }
    });
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  if (!added) {
    close(fd);
    return Status::Internal("epoll registration of listen fd failed");
  }
  return Status::Ok();
}

void EpollTransport::MapPeer(const std::string& name,
                             const std::string& address) {
  std::lock_guard<std::mutex> lock(peer_map_mu_);
  peer_addresses_[name] = address;
}

Result<Message> EpollTransport::Call(const std::string& peer, Message request,
                                     const CallOptions& options) {
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<Result<Message>> result;
  };
  auto sync = std::make_shared<Sync>();
  CallAsync(peer, std::move(request), options, [sync](Result<Message> r) {
    std::lock_guard<std::mutex> lock(sync->mu);
    sync->result = std::move(r);
    sync->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(sync->mu);
  sync->cv.wait(lock, [&] { return sync->result.has_value(); });
  return std::move(*sync->result);
}

void EpollTransport::CallAsync(const std::string& peer, Message request,
                               const CallOptions& options,
                               std::function<void(Result<Message>)> done) {
  if (!started_) {
    done(Status::FailedPrecondition("transport not started"));
    return;
  }
  const int64_t timeout = options.timeout > 0 ? options.timeout
                                              : options_.default_timeout_micros;
  loop_.RunInLoop([this, peer, request = std::move(request), timeout,
                   done = std::move(done)]() mutable {
    StartOrQueue(peer, std::move(request), timeout, std::move(done));
  });
}

void EpollTransport::StartOrQueue(const std::string& peer, Message request,
                                  int64_t timeout_micros,
                                  std::function<void(Result<Message>)> done) {
  PeerState& state = peers_[peer];
  if (state.inflight >= options_.max_inflight_per_peer) {
    if (static_cast<int>(state.queue.size()) >= options_.max_queued_per_peer) {
      ++stats_.rejected;
      done(Status::ResourceExhausted("in-flight window and queue full for " +
                                     peer));
      return;
    }
    state.queue.push_back(
        QueuedCall{std::move(request), timeout_micros, std::move(done)});
    UpdateQueueGauge();
    return;
  }
  DispatchCall(peer, std::move(request), timeout_micros, std::move(done));
}

void EpollTransport::DispatchCall(const std::string& peer, Message request,
                                  int64_t timeout_micros,
                                  std::function<void(Result<Message>)> done) {
  Connection* conn = GetPeerConnection(peer);
  if (conn == nullptr) {
    ++stats_.errors;
    done(Status::Unavailable("cannot connect to " + peer));
    return;
  }
  const uint64_t correlation = next_correlation_++;
  PendingCall call;
  call.peer = peer;
  call.conn_id = conn->id;
  call.done = std::move(done);
  call.start_micros = EventLoop::NowMicros();
  call.timer = loop_.ScheduleAfter(timeout_micros, [this, correlation] {
    ++stats_.timeouts;
    CompleteCall(correlation,
                 Status::DeadlineExceeded("call timed out on the wire"));
  });
  pending_[correlation] = std::move(call);
  ++peers_[peer].inflight;
  ++total_inflight_;
  stats_.inflight.Set(total_inflight_);

  std::string bytes = EncodeFrame(request.type, correlation, request.payload);
  ++stats_.frames_out;
  stats_.bytes_out += static_cast<int64_t>(bytes.size());
  SendBytes(conn, std::move(bytes));
}

void EpollTransport::CompleteCall(uint64_t correlation,
                                  Result<Message> result) {
  auto it = pending_.find(correlation);
  if (it == pending_.end()) return;  // late response after timeout/teardown
  PendingCall call = std::move(it->second);
  pending_.erase(it);
  loop_.CancelTimer(call.timer);
  auto peer_it = peers_.find(call.peer);
  if (peer_it != peers_.end()) {
    --peer_it->second.inflight;
  }
  --total_inflight_;
  stats_.inflight.Set(total_inflight_);
  if (result.ok()) {
    stats_.rtt_ms.Add(
        static_cast<double>(EventLoop::NowMicros() - call.start_micros) /
        1000.0);
  }
  call.done(std::move(result));
  PumpPeerQueue(call.peer);
}

void EpollTransport::PumpPeerQueue(const std::string& peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  PeerState& state = it->second;
  while (!state.queue.empty() &&
         state.inflight < options_.max_inflight_per_peer) {
    QueuedCall next = std::move(state.queue.front());
    state.queue.pop_front();
    DispatchCall(peer, std::move(next.request), next.timeout_micros,
                 std::move(next.done));
  }
  UpdateQueueGauge();
}

EpollTransport::Connection* EpollTransport::GetPeerConnection(
    const std::string& peer) {
  PeerState& state = peers_[peer];
  // Drop pool slots whose connections died.
  std::vector<uint64_t> live;
  live.reserve(state.conns.size());
  for (uint64_t id : state.conns) {
    if (conns_.count(id) != 0) live.push_back(id);
  }
  state.conns = std::move(live);
  if (static_cast<int>(state.conns.size()) < options_.connections_per_peer) {
    Connection* fresh = ConnectTo(peer);
    if (fresh != nullptr) state.conns.push_back(fresh->id);
  }
  if (state.conns.empty()) return nullptr;
  state.next_conn = (state.next_conn + 1) % state.conns.size();
  return conns_[state.conns[state.next_conn]].get();
}

EpollTransport::Connection* EpollTransport::ConnectTo(const std::string& peer) {
  std::string address;
  {
    std::lock_guard<std::mutex> lock(peer_map_mu_);
    auto it = peer_addresses_.find(peer);
    address = it != peer_addresses_.end() ? it->second : peer;
  }
  sockaddr_in addr;
  if (!ParseAddress(address, &addr)) return nullptr;
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  const int nd = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nd, sizeof(nd));
  const int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    return nullptr;
  }
  ++stats_.connects;
  auto conn = std::make_unique<Connection>();
  conn->id = next_conn_id_++;
  conn->fd = fd;
  conn->outbound = true;
  conn->peer = peer;
  conn->connected = (rc == 0);
  const uint64_t id = conn->id;
  Connection* raw = conn.get();
  conns_[id] = std::move(conn);
  if (!raw->connected) {
    // Handshake completion is an EPOLLOUT edge; guard it with a timer.
    raw->connect_timer =
        loop_.ScheduleAfter(options_.connect_timeout_micros, [this, id] {
          ++stats_.timeouts;
          CloseConnection(id, Status::Unavailable("connect timed out"));
        });
  }
  loop_.AddFd(fd, EPOLLIN | EPOLLOUT, [this, id](uint32_t events) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    if (events & (EPOLLERR | EPOLLHUP)) {
      CloseConnection(id, Status::Unavailable("connection failed"));
      return;
    }
    if (!it->second->connected) {
      OnConnectWritable(id);
      if (conns_.count(id) == 0) return;  // SO_ERROR closed it
    }
    if (events & EPOLLOUT) OnWritable(id);
    if (events & EPOLLIN) OnReadable(id);
  });
  return raw;
}

void EpollTransport::OnConnectWritable(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  int err = 0;
  socklen_t len = sizeof(err);
  getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len);
  if (err != 0) {
    CloseConnection(conn_id, Status::Unavailable(
                                 "connect failed: " + std::string(strerror(err))));
    return;
  }
  conn->connected = true;
  if (conn->connect_timer != 0) {
    loop_.CancelTimer(conn->connect_timer);
    conn->connect_timer = 0;
  }
  FlushWrites(conn);
}

void EpollTransport::OnReadable(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      stats_.bytes_in += n;
      conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn_id, Status::Unavailable("connection closed by peer"));
    return;
  }
  Frame frame;
  while (true) {
    auto again = conns_.find(conn_id);
    if (again == conns_.end()) return;  // torn down mid-loop
    conn = again->second.get();
    if (!conn->decoder.Next(&frame)) break;
    ++stats_.frames_in;
    if (conn->outbound) {
      HandleResponseFrame(std::move(frame));
    } else {
      HandleInboundFrame(conn_id, std::move(frame));
    }
  }
  if (!conn->decoder.ok()) {
    // The byte stream lost frame alignment; nothing after this point
    // can be trusted.
    ++stats_.errors;
    CloseConnection(conn_id,
                    Status::Internal("wire garbage: " + conn->decoder.error()));
  }
}

void EpollTransport::HandleResponseFrame(Frame frame) {
  if (frame.type == FrameType::kError) {
    WireReader r(frame.payload);
    Status status = DecodeStatus(r);
    ++stats_.handler_errors;
    CompleteCall(frame.correlation, std::move(status));
    return;
  }
  CompleteCall(frame.correlation, Message{frame.type, std::move(frame.payload)});
}

void EpollTransport::HandleInboundFrame(uint64_t conn_id, Frame frame) {
  if (frame.type == FrameType::kPing) {
    RespondTo(conn_id, FrameType::kPong, frame.correlation, "");
    return;
  }
  if (!handler_) {
    WireWriter w;
    EncodeStatus(w, Status::Unimplemented("no handler at this endpoint"));
    RespondTo(conn_id, FrameType::kError, frame.correlation,
              std::move(w).str());
    return;
  }
  if (options_.handler_threads > 0) {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.push_back(Job{conn_id, std::move(frame)});
    jobs_cv_.notify_one();
    return;
  }
  RunHandlerJob(conn_id, std::move(frame));
}

// Runs the handler for one inbound frame and writes the response. On
// the loop thread when handler_threads == 0, on a worker otherwise (the
// write is then marshalled back onto the loop).
void EpollTransport::RunHandlerJob(uint64_t conn_id, Frame frame) {
  Result<Message> response =
      handler_(Message{frame.type, std::move(frame.payload)}, CallSideband{});
  FrameType type;
  std::string payload;
  if (response.ok()) {
    type = response->type;
    payload = std::move(response->payload);
  } else {
    ++stats_.handler_errors;
    type = FrameType::kError;
    WireWriter w;
    EncodeStatus(w, response.status());
    payload = std::move(w).str();
  }
  const uint64_t correlation = frame.correlation;
  if (loop_.InLoopThread()) {
    RespondTo(conn_id, type, correlation, payload);
  } else {
    loop_.Post([this, conn_id, type, correlation,
                payload = std::move(payload)] {
      RespondTo(conn_id, type, correlation, payload);
    });
  }
}

void EpollTransport::WorkerMain() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      jobs_cv_.wait(lock, [&] { return workers_stop_ || !jobs_.empty(); });
      if (workers_stop_) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    RunHandlerJob(job.conn_id, std::move(job.frame));
  }
}

void EpollTransport::RespondTo(uint64_t conn_id, FrameType type,
                               uint64_t correlation, std::string_view payload) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // client went away; drop the response
  std::string bytes = EncodeFrame(type, correlation, payload);
  ++stats_.frames_out;
  stats_.bytes_out += static_cast<int64_t>(bytes.size());
  SendBytes(it->second.get(), std::move(bytes));
}

void EpollTransport::SendBytes(Connection* conn, std::string bytes) {
  if (conn->write_buf.empty()) {
    conn->write_buf = std::move(bytes);
    conn->write_off = 0;
  } else {
    conn->write_buf.append(bytes);
  }
  if (conn->connected) FlushWrites(conn);
}

void EpollTransport::FlushWrites(Connection* conn) {
  while (conn->write_off < conn->write_buf.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-write fails this send with
    // EPIPE instead of killing the process with SIGPIPE.
    const ssize_t n =
        send(conn->fd, conn->write_buf.data() + conn->write_off,
             conn->write_buf.size() - conn->write_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->write_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        loop_.ModFd(conn->fd, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn->id, Status::Unavailable("write failed"));
    return;
  }
  conn->write_buf.clear();
  conn->write_off = 0;
  if (conn->want_write) {
    conn->want_write = false;
    loop_.ModFd(conn->fd, EPOLLIN);
  }
}

void EpollTransport::OnWritable(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  if (it->second->connected) FlushWrites(it->second.get());
}

void EpollTransport::CloseConnection(uint64_t conn_id, const Status& reason) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  std::unique_ptr<Connection> conn = std::move(it->second);
  conns_.erase(it);
  if (conn->connect_timer != 0) loop_.CancelTimer(conn->connect_timer);
  loop_.RemoveFd(conn->fd);
  close(conn->fd);
  if (!conn->outbound) return;
  // Fail every call that was awaiting a response on this connection.
  std::vector<uint64_t> dead;
  for (const auto& [corr, call] : pending_) {
    if (call.conn_id == conn_id) dead.push_back(corr);
  }
  for (uint64_t corr : dead) {
    ++stats_.errors;
    CompleteCall(corr, reason);
  }
  // Remaining queued calls retry through PumpPeerQueue on a fresh
  // connection the next time one dispatches.
  PumpPeerQueue(conn->peer);
}

void EpollTransport::UpdateQueueGauge() {
  int64_t queued = 0;
  for (const auto& [name, peer] : peers_) {
    queued += static_cast<int64_t>(peer.queue.size());
  }
  stats_.queue_depth.Set(static_cast<double>(queued));
}

}  // namespace scalewall::net
