#include "http/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "http/net.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ifgen {
namespace http {

namespace internal {

bool SendAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace internal

namespace {

using internal::SendAll;

/// Terminal early-error send for requests rejected before their bytes were
/// fully read (oversized headers/bodies): a plain close() with unread input
/// makes the kernel send RST, which discards the response before the client
/// reads it. Half-close the write side instead and drain (bounded by the
/// socket's recv timeout and a byte cap) until the client finishes sending,
/// so the status line actually arrives.
void SendErrorAndDrain(int fd, std::string_view response) {
  SendAll(fd, response);
  ::shutdown(fd, SHUT_WR);
  char sink[4096];
  size_t drained = 0;
  while (drained < (64u << 20)) {
    ssize_t n = ::recv(fd, sink, sizeof sink, 0);
    if (n <= 0) break;  // EOF, reset, or SO_RCVTIMEO expiry
    drained += static_cast<size_t>(n);
  }
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Status";
  }
}

}  // namespace

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < s.size()) {
      auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        if (h >= 'A' && h <= 'F') return h - 'A' + 10;
        return -1;
      };
      int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
      } else {
        out.push_back(c);
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string HttpRequest::QueryParam(const std::string& key,
                                    const std::string& dflt) const {
  auto it = query.find(key);
  return it != query.end() ? it->second : dflt;
}

int64_t HttpRequest::QueryInt(const std::string& key, int64_t dflt) const {
  auto it = query.find(key);
  if (it == query.end()) return dflt;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') return dflt;
  return v;
}

bool HttpStream::Write(std::string_view data) {
  if (!alive()) return false;
  ok_ = SendAll(fd_, data);
  return ok_;
}

Status HttpServer::Start(Options opts, Handler handler) {
  if (started_) return Status::Invalid("HttpServer already started");
  opts_ = std::move(opts);
  handler_ = std::move(handler);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Invalid("bad listen host '" + opts_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(StrFormat("bind(%s:%d) failed: %s", opts_.host.c_str(),
                                      opts_.port, std::strerror(errno)));
  }
  if (::listen(listen_fd_, std::max(1, opts_.listen_backlog)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  started_ = true;
  stopping_.store(false);
  IFGEN_LOG_C(Info, "http") << "listening on " << opts_.host << ":" << port_;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const size_t n = std::max<size_t>(1, opts_.num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void HttpServer::Stop() {
  if (!started_) return;
  stopping_.store(true);
  // Closing the listen socket fails the blocking accept() and ends the loop.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : pending_) ::close(fd);
  pending_.clear();
  listen_fd_ = -1;
  started_ = false;
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;  // transient
      // Persistent failure (EMFILE/ENFILE under fd exhaustion): back off
      // instead of spinning the accept thread at 100% CPU.
      IFGEN_LOG_C(Warning, "http")
          << "accept() failed: " << std::strerror(errno) << "; backing off";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    timeval tv{};
    tv.tv_sec = opts_.recv_timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>((opts_.recv_timeout_ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    timeval stv{};
    stv.tv_sec = opts_.send_timeout_ms / 1000;
    stv.tv_usec = static_cast<suseconds_t>((opts_.send_timeout_ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &stv, sizeof stv);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    // Admission: a full accept queue answers 503 (retryable per the API
    // error contract) and closes without touching the worker pool.
    bool queue_full = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_full = pending_.size() >= opts_.max_queued_connections;
      if (!queue_full) pending_.push_back(fd);
    }
    if (queue_full) {
      const std::string body =
          "{\"code\":\"Unavailable\",\"message\":\"server accept queue is "
          "full\",\"retryable\":true}";
      IFGEN_LOG_C(Warning, "http") << "rejecting connection (503): accept queue full at "
                                   << opts_.max_queued_connections;
      SendAll(fd, StrFormat("HTTP/1.1 503 %s\r\n", ReasonPhrase(503)) +
                      "Content-Type: application/json\r\nRetry-After: 1\r\n"
                      "Connection: close\r\n" +
                      StrFormat("Content-Length: %zu\r\n\r\n", body.size()) +
                      body);
      ::close(fd);
      continue;
    }
    cv_.notify_one();
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_.load() || !pending_.empty(); });
      if (stopping_.load()) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

void HttpServer::HandleConnection(int fd) {
  // Read until the end of the header block. The terminator search resumes
  // just before the previous buffer end (it may straddle a recv boundary)
  // instead of rescanning from 0 — a byte-trickling client would otherwise
  // buy O(n^2) scanning work per connection.
  std::string buf;
  size_t header_end = std::string::npos;
  char chunk[4096];
  while (header_end == std::string::npos) {
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return;  // timeout/disconnect before a full request
    const size_t scan_from = buf.size() < 3 ? 0 : buf.size() - 3;
    buf.append(chunk, static_cast<size_t>(n));
    header_end = buf.find("\r\n\r\n", scan_from);
    if (buf.size() > opts_.max_body_bytes + 16384) {
      // Tell the client why instead of silently dropping the connection.
      IFGEN_LOG_C(Warning, "http")
          << "rejecting request: header block exceeds "
          << (opts_.max_body_bytes + 16384) << " bytes (431)";
      SendErrorAndDrain(fd,
                        "HTTP/1.1 431 Request Header Fields Too Large\r\n"
                        "Connection: close\r\n\r\n");
      return;
    }
  }

  HttpRequest req;
  {
    std::string_view head(buf.data(), header_end);
    size_t line_end = head.find("\r\n");
    std::string_view request_line =
        line_end == std::string_view::npos ? head : head.substr(0, line_end);
    size_t sp1 = request_line.find(' ');
    size_t sp2 = request_line.rfind(' ');
    if (sp1 == std::string_view::npos || sp2 <= sp1) {
      IFGEN_LOG_C(Warning, "http") << "rejecting malformed request line (400)";
      SendAll(fd, "HTTP/1.1 400 Bad Request\r\nConnection: close\r\n\r\n");
      return;
    }
    req.method = ToUpper(request_line.substr(0, sp1));
    std::string target(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
    size_t qpos = target.find('?');
    req.path = UrlDecode(qpos == std::string::npos ? target : target.substr(0, qpos));
    if (qpos != std::string::npos) {
      for (const std::string& kv : Split(target.substr(qpos + 1), '&')) {
        size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          req.query[UrlDecode(kv)] = "";
        } else {
          req.query[UrlDecode(kv.substr(0, eq))] = UrlDecode(kv.substr(eq + 1));
        }
      }
    }
    // Headers.
    size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
    while (pos < head.size()) {
      size_t eol = head.find("\r\n", pos);
      if (eol == std::string_view::npos) eol = head.size();
      std::string_view line = head.substr(pos, eol - pos);
      pos = eol + 2;
      size_t colon = line.find(':');
      if (colon == std::string_view::npos) continue;
      std::string key = ToLower(Trim(line.substr(0, colon)));
      req.headers[key] = Trim(line.substr(colon + 1));
    }
  }

  // Body (Content-Length framing only; this server does not accept chunked
  // uploads).
  size_t content_length = 0;
  if (auto it = req.headers.find("content-length"); it != req.headers.end()) {
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (errno != 0 || end == it->second.c_str() || *end != '\0' || v < 0) {
      IFGEN_LOG_C(Warning, "http")
          << "rejecting unparsable Content-Length '" << it->second << "' (400)";
      SendAll(fd, "HTTP/1.1 400 Bad Request\r\nConnection: close\r\n\r\n");
      return;
    }
    content_length = static_cast<size_t>(v);
  }
  if (content_length > opts_.max_body_bytes) {
    IFGEN_LOG_C(Warning, "http")
        << "rejecting " << content_length << "-byte body for " << req.method
        << " " << req.path << " (413, limit " << opts_.max_body_bytes << ")";
    // The announced body is mostly still in flight — drain it or the close
    // RSTs the 413 away before the client reads it.
    SendErrorAndDrain(fd,
                      "HTTP/1.1 413 Payload Too Large\r\nConnection: close\r\n\r\n");
    return;
  }
  req.body = buf.substr(header_end + 4);
  while (req.body.size() < content_length) {
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return;
    req.body.append(chunk, static_cast<size_t>(n));
  }
  req.body.resize(content_length);

  // CORS preflight (only when cross-origin access is configured; otherwise
  // OPTIONS falls through to the handler like any other method).
  if (!opts_.cors_allow_origin.empty() && req.method == "OPTIONS") {
    SendAll(fd,
            "HTTP/1.1 204 No Content\r\n"
            "Access-Control-Allow-Origin: " + opts_.cors_allow_origin + "\r\n"
            "Access-Control-Allow-Methods: GET, POST, DELETE, OPTIONS\r\n"
            "Access-Control-Allow-Headers: Content-Type\r\n"
            "Access-Control-Max-Age: 600\r\n"
            "Connection: close\r\n\r\n");
    return;
  }

  HttpResponse resp;
  try {
    resp = handler_(req);
  } catch (const std::exception& e) {
    IFGEN_LOG_C(Error, "http") << "handler threw for " << req.method << " "
                               << req.path << ": " << e.what();
    resp.status = 500;
    resp.body = std::string("{\"code\":\"Internal\",\"message\":\"unhandled "
                            "exception in handler\"}");
    resp.stream = nullptr;
  } catch (...) {
    IFGEN_LOG_C(Error, "http") << "handler threw a non-std exception for "
                               << req.method << " " << req.path;
    resp.status = 500;
    resp.body = "{\"code\":\"Internal\",\"message\":\"unhandled exception\"}";
    resp.stream = nullptr;
  }

  std::string head = StrFormat("HTTP/1.1 %d %s\r\n", resp.status,
                               ReasonPhrase(resp.status));
  head += "Content-Type: " + resp.content_type + "\r\n";
  head += "Connection: close\r\n";
  if (!opts_.cors_allow_origin.empty()) {
    head += "Access-Control-Allow-Origin: " + opts_.cors_allow_origin + "\r\n";
  }
  for (const auto& [k, v] : resp.headers) head += k + ": " + v + "\r\n";
  if (resp.stream) {
    head += "Cache-Control: no-store\r\n\r\n";
    if (!SendAll(fd, head)) return;
    HttpStream stream(fd, &stopping_);
    resp.stream(&stream);
  } else {
    head += StrFormat("Content-Length: %zu\r\n\r\n", resp.body.size());
    if (!SendAll(fd, head)) return;
    SendAll(fd, resp.body);
  }
}

}  // namespace http
}  // namespace ifgen
