#include "net/http_admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace scalewall::net {

namespace {

constexpr size_t kMaxRequestBytes = 16 * 1024;

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

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

std::string RenderResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                    StatusText(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "; charset=utf-8\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

}  // namespace

HttpAdminServer::HttpAdminServer(EventLoop* loop) : loop_(loop) {}

HttpAdminServer::~HttpAdminServer() { Stop(); }

void HttpAdminServer::AddRoute(std::string path, HttpRoute route) {
  routes_[std::move(path)] = std::move(route);
}

Status HttpAdminServer::Listen(const std::string& address) {
  if (loop_ == nullptr || !loop_->running()) {
    return Status::FailedPrecondition("admin server needs a running loop");
  }
  if (listen_fd_ >= 0) return Status::FailedPrecondition("already listening");
  sockaddr_in addr;
  if (!ParseAddress(address, &addr)) {
    return Status::InvalidArgument("bad admin listen address: " + address);
  }
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return Status::Unavailable("admin bind failed: " + address + ": " +
                               std::strerror(errno));
  }
  if (listen(fd, 64) != 0) {
    close(fd);
    return Status::Unavailable("admin listen failed: " + address);
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  // AddFd is loop-thread-only; block until registration is done so a
  // caller may curl the port as soon as Listen returns.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool added = false;
  loop_->Post([&] {
    listen_fd_ = fd;
    added = loop_->AddFd(fd, EPOLLIN, [this](uint32_t) { OnAccept(); });
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  if (!added) {
    close(fd);
    listen_fd_ = -1;
    return Status::Internal("admin AddFd failed");
  }
  return Status::Ok();
}

void HttpAdminServer::Stop() {
  if (loop_ == nullptr || listen_fd_ < 0) return;
  if (!loop_->running()) {
    // Loop already stopped: it deregistered our fds on exit; just close.
    close(listen_fd_);
    listen_fd_ = -1;
    for (auto& [fd, conn] : clients_) close(fd);
    clients_.clear();
    return;
  }
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  loop_->RunInLoop([&] {
    if (listen_fd_ >= 0) {
      loop_->RemoveFd(listen_fd_);
      close(listen_fd_);
      listen_fd_ = -1;
    }
    for (auto& [fd, conn] : clients_) {
      loop_->RemoveFd(fd);
      close(fd);
    }
    clients_.clear();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
}

int64_t HttpAdminServer::requests_served() const {
  return requests_.load(std::memory_order_relaxed);
}

void HttpAdminServer::OnAccept() {
  while (true) {
    const int cfd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) break;  // EAGAIN or transient error: wait for next edge
    const int nd = 1;
    setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &nd, sizeof(nd));
    auto conn = std::make_unique<ClientConn>();
    conn->fd = cfd;
    if (!loop_->AddFd(cfd, EPOLLIN | EPOLLOUT,
                      [this, cfd](uint32_t ev) { OnClientEvent(cfd, ev); })) {
      close(cfd);
      continue;
    }
    clients_[cfd] = std::move(conn);
  }
}

void HttpAdminServer::OnClientEvent(int fd, uint32_t events) {
  auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  ClientConn* conn = it->second.get();
  if (events & (EPOLLERR | EPOLLHUP)) {
    CloseClient(fd);
    return;
  }
  if (events & EPOLLIN) {
    char buf[4096];
    while (true) {
      const ssize_t n = read(fd, buf, sizeof(buf));
      if (n > 0) {
        conn->in.append(buf, static_cast<size_t>(n));
        if (conn->in.size() > kMaxRequestBytes) {
          CloseClient(fd);
          return;
        }
        continue;
      }
      if (n == 0) {  // peer closed; respond if we have a full head
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseClient(fd);
      return;
    }
    MaybeRespond(conn);
    if (clients_.find(fd) == clients_.end()) return;  // closed above
  }
  if ((events & EPOLLOUT) && conn->responded) FlushClient(conn);
}

void HttpAdminServer::MaybeRespond(ClientConn* conn) {
  if (conn->responded) return;
  // One request per connection: respond as soon as the header block (or
  // at minimum the request line) is complete.
  if (conn->in.find("\r\n\r\n") == std::string::npos &&
      conn->in.find("\n\n") == std::string::npos) {
    return;
  }
  conn->out = RenderResponse(Dispatch(conn->in));
  conn->responded = true;
  requests_.fetch_add(1, std::memory_order_relaxed);
  FlushClient(conn);
}

void HttpAdminServer::FlushClient(ClientConn* conn) {
  const int fd = conn->fd;
  while (conn->out_off < conn->out.size()) {
    // MSG_NOSIGNAL: a client that reset the connection fails this send
    // with EPIPE/ECONNRESET instead of killing the process with SIGPIPE.
    const ssize_t n = send(fd, conn->out.data() + conn->out_off,
                           conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // EPOLLOUT edge will resume the flush
    }
    CloseClient(fd);
    return;
  }
  CloseClient(fd);  // HTTP/1.0: response complete = connection done
}

void HttpAdminServer::CloseClient(int fd) {
  auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  loop_->RemoveFd(fd);
  close(fd);
  clients_.erase(it);
}

HttpResponse HttpAdminServer::Dispatch(const std::string& request_head) const {
  // Request line: METHOD SP PATH SP VERSION.
  const size_t eol = request_head.find_first_of("\r\n");
  const std::string line = request_head.substr(0, eol);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 == std::string::npos ? sp1 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return {400, "text/plain", "malformed request line\n"};
  }
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    return {400, "text/plain", "only GET is supported\n"};
  }
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  auto it = routes_.find(path);
  if (it == routes_.end()) {
    std::string known = "unknown path " + path + "\nknown paths:\n";
    for (const auto& [p, route] : routes_) known += "  " + p + "\n";
    return {404, "text/plain", std::move(known)};
  }
  return it->second();
}

}  // namespace scalewall::net
