// Dependency-free embedded HTTP/1.1 server for the verdict service: a few
// worker threads that each accept and serve their own connections from one
// non-blocking listener; connections waiting for a free worker queue in the
// kernel's listen backlog. Scope is deliberately narrow — the
// service speaks GET + keep-alive + Content-Length, nothing else (no TLS,
// no chunked encoding, no HTTP/2): it serves JSON to operators and
// scrapers on a trusted network, and every byte of parsing is bounded.
//
// Robustness contract (tested in tests/svc/http_test.cc):
//  - malformed request lines / headers -> 400, connection closed;
//  - oversized headers -> 431, oversized bodies -> 413, closed;
//  - a request truncated by the peer mid-body -> 400 (the half-closed
//    peer can still read the response), idle timeouts -> 408;
//  - pipelined keep-alive requests on one connection are answered in
//    order; the server never crashes on hostile input, it responds.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace blameit::svc {

struct HttpLimits {
  std::size_t max_head_bytes = 16 * 1024;  ///< request line + headers
  std::size_t max_body_bytes = 64 * 1024;
  int max_headers = 64;
  /// Per-read socket timeout; also bounds keep-alive idle time.
  int read_timeout_ms = 5000;
};

struct HttpRequest {
  std::string method;
  std::string target;  ///< raw request target (path + "?" + query)
  std::string path;    ///< decoded path component
  std::vector<std::pair<std::string, std::string>> query;  ///< decoded k=v
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  int version_minor = 1;  ///< HTTP/1.<minor>
  bool keep_alive = true;

  /// First query parameter named `key` (decoded), or nullptr.
  [[nodiscard]] const std::string* query_param(std::string_view key) const;
  /// Case-insensitive header lookup, or nullptr.
  [[nodiscard]] const std::string* header(std::string_view name) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;

  [[nodiscard]] static HttpResponse json(int status, std::string body) {
    return HttpResponse{status, "application/json", std::move(body)};
  }
  [[nodiscard]] static HttpResponse text(int status, std::string body) {
    return HttpResponse{status, "text/plain; charset=utf-8",
                        std::move(body)};
  }
};

[[nodiscard]] std::string_view status_reason(int status) noexcept;

/// Serializes status line + headers + body (Content-Length always set).
[[nodiscard]] std::string render_response(const HttpResponse& response,
                                          bool keep_alive);

/// Percent-decoding for path/query components ('+' becomes space in query
/// position). Returns false on a malformed escape.
[[nodiscard]] bool url_decode(std::string_view in, std::string& out,
                              bool plus_is_space);

/// Outcome of parsing one request head from a connection buffer.
enum class ParseStatus : std::uint8_t {
  Ok,              ///< head parsed; `head_bytes` consumed
  NeedMore,        ///< no terminating CRLFCRLF yet
  BadRequest,      ///< malformed request line, header, or escape
  HeadTooLarge,    ///< exceeded HttpLimits::max_head_bytes
  BodyTooLarge,    ///< Content-Length exceeds max_body_bytes
};

/// Parses the request head (request line + headers) at the front of `buf`.
/// On Ok, fills `request` (body NOT read here), sets `head_bytes` to the
/// bytes consumed and `body_bytes` to the declared Content-Length.
[[nodiscard]] ParseStatus parse_request_head(std::string_view buf,
                                             const HttpLimits& limits,
                                             HttpRequest& request,
                                             std::size_t& head_bytes,
                                             std::size_t& body_bytes);

struct HttpServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see HttpServer::port()
  /// Threads serving connections; each serves one connection at a time.
  int workers = 4;
  HttpLimits limits;
};

/// The server. start() binds and spawns the workers; stop() (or
/// destruction) drains: in-flight connections shut down, every worker
/// joined, then the listener closed, which resets connections still waiting
/// in the backlog.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(Handler handler, HttpServerConfig config = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds + listens + starts threads. Returns false (with errno intact)
  /// if the socket could not be bound.
  [[nodiscard]] bool start();
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// Actual bound port (resolves port 0 after start()).
  [[nodiscard]] std::uint16_t port() const noexcept {
    return port_.load(std::memory_order_acquire);
  }

  // Served-traffic counters (relaxed; for tests and /metrics wiring).
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  /// Polls the listener until stop(); accepts and serves one connection at
  /// a time.
  void worker_loop(int worker_index);
  void serve_connection(int fd, int worker_index);
  /// Sends an error response and returns false (= close the connection).
  bool send_error(int fd, int status, std::string_view detail);

  Handler handler_;
  HttpServerConfig config_;

  int listen_fd_ = -1;
  std::atomic<std::uint16_t> port_{0};
  std::atomic<bool> running_{false};
  /// stopping_ and the active_fds_ slots are seq_cst: a worker stores its
  /// slot then loads stopping_, stop() stores stopping_ then loads the
  /// slots, so at least one side sees the other.
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;

  /// fd each worker is currently serving (-1 idle); stop() shuts these
  /// down so blocked reads wake immediately instead of riding out their
  /// timeout.
  std::vector<std::atomic<int>> active_fds_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace blameit::svc
