#include "svc/http.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace blameit::svc {
namespace {

// ---------------------------------------------------------------------------
// Parser unit tests (no sockets).
// ---------------------------------------------------------------------------

TEST(HttpParseTest, UrlDecode) {
  std::string out;
  EXPECT_TRUE(url_decode("/v1/verdict", out, false));
  EXPECT_EQ(out, "/v1/verdict");
  EXPECT_TRUE(url_decode("a%20b%2Fc", out, false));
  EXPECT_EQ(out, "a b/c");
  EXPECT_TRUE(url_decode("a+b", out, true));
  EXPECT_EQ(out, "a b");
  EXPECT_TRUE(url_decode("a+b", out, false));
  EXPECT_EQ(out, "a+b");  // '+' is literal outside query values
  EXPECT_FALSE(url_decode("bad%2", out, false));   // truncated escape
  EXPECT_FALSE(url_decode("bad%zz", out, false));  // non-hex escape
}

TEST(HttpParseTest, ParsesRequestLineQueryAndHeaders) {
  HttpRequest request;
  std::size_t head = 0, body = 0;
  const std::string raw =
      "GET /v1/verdict?client=10.0.0.1&cloud=edge-3&flag HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Trace: abc\r\n"
      "\r\n";
  ASSERT_EQ(parse_request_head(raw, {}, request, head, body),
            ParseStatus::Ok);
  EXPECT_EQ(head, raw.size());
  EXPECT_EQ(body, 0u);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/v1/verdict");
  ASSERT_NE(request.query_param("client"), nullptr);
  EXPECT_EQ(*request.query_param("client"), "10.0.0.1");
  ASSERT_NE(request.query_param("cloud"), nullptr);
  EXPECT_EQ(*request.query_param("cloud"), "edge-3");
  ASSERT_NE(request.query_param("flag"), nullptr);
  EXPECT_EQ(*request.query_param("flag"), "");
  ASSERT_NE(request.header("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*request.header("HOST"), "localhost");
  EXPECT_TRUE(request.keep_alive);
}

TEST(HttpParseTest, NeedMoreUntilBlankLine) {
  HttpRequest request;
  std::size_t head = 0, body = 0;
  EXPECT_EQ(parse_request_head("GET / HTTP/1.1\r\nHost: x\r\n", {}, request,
                               head, body),
            ParseStatus::NeedMore);
  EXPECT_EQ(parse_request_head("", {}, request, head, body),
            ParseStatus::NeedMore);
}

TEST(HttpParseTest, MalformedInputsAreBadRequests) {
  HttpRequest request;
  std::size_t head = 0, body = 0;
  const HttpLimits limits;
  for (const std::string_view raw : {
           "GARBAGE\r\n\r\n",                         // no spaces
           "GET /\r\n\r\n",                           // missing version
           "GET / SMTP/1.0\r\n\r\n",                  // wrong protocol
           "GET / HTTP/2.0\r\n\r\n",                  // unsupported version
           " / HTTP/1.1\r\n\r\n",                     // empty method
           "GET relative HTTP/1.1\r\n\r\n",           // target not absolute
           "GET /%zz HTTP/1.1\r\n\r\n",               // bad path escape
           "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",   // header, no colon
           "GET / HTTP/1.1\r\n: empty\r\n\r\n",       // empty header name
           "GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",   // space in name
           "GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n",
           "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
           "GET / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
           "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       }) {
    EXPECT_EQ(parse_request_head(raw, limits, request, head, body),
              ParseStatus::BadRequest)
        << raw;
  }
}

TEST(HttpParseTest, EnforcesLimits) {
  HttpRequest request;
  std::size_t head = 0, body = 0;
  HttpLimits limits;
  limits.max_head_bytes = 64;
  limits.max_body_bytes = 10;
  limits.max_headers = 2;

  // A head that can no longer fit is rejected even before the blank line.
  const std::string huge = "GET /" + std::string(100, 'a') + " HTTP/1.1\r\n";
  EXPECT_EQ(parse_request_head(huge, limits, request, head, body),
            ParseStatus::HeadTooLarge);

  EXPECT_EQ(parse_request_head(
                "GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n", limits,
                request, head, body),
            ParseStatus::HeadTooLarge);

  EXPECT_EQ(parse_request_head("GET / HTTP/1.1\r\nContent-Length: 11\r\n\r\n",
                               limits, request, head, body),
            ParseStatus::BodyTooLarge);
}

TEST(HttpParseTest, ConnectionSemantics) {
  HttpRequest request;
  std::size_t head = 0, body = 0;
  ASSERT_EQ(parse_request_head("GET / HTTP/1.0\r\n\r\n", {}, request, head,
                               body),
            ParseStatus::Ok);
  EXPECT_FALSE(request.keep_alive);  // 1.0 defaults to close
  ASSERT_EQ(parse_request_head(
                "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", {},
                request, head, body),
            ParseStatus::Ok);
  EXPECT_TRUE(request.keep_alive);
  ASSERT_EQ(parse_request_head(
                "GET / HTTP/1.1\r\nConnection: close\r\n\r\n", {}, request,
                head, body),
            ParseStatus::Ok);
  EXPECT_FALSE(request.keep_alive);
}

TEST(HttpParseTest, RenderResponse) {
  const auto wire =
      render_response(HttpResponse::json(200, R"({"ok":true})"), true);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("\r\n\r\n{\"ok\":true}"));
  const auto closed = render_response(HttpResponse::text(404, ""), false);
  EXPECT_NE(closed.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(closed.find("Connection: close\r\n"), std::string::npos);
}

// Seeded mutation fuzzing: flips, overwrites, truncations and splices of a
// few well-formed requests, checked against the parser's contract rather
// than against expected parses. Deterministic, so a failure reproduces.
TEST(HttpParseTest, SeededMutationsKeepParserContract) {
  const std::vector<std::string> seeds = {
      "GET /v1/verdict?client=10.0.0.1&cloud=edge-3 HTTP/1.1\r\n"
      "Host: localhost\r\n\r\n",
      "GET /v1/incidents?since=120 HTTP/1.0\r\nConnection: keep-alive\r\n"
      "X-Trace: a%20b\r\n\r\n",
      "POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
      "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"
      "GET /healthz HTTP/1.1\r\n\r\n",
  };
  // Bytes the request grammar treats specially.
  static constexpr std::array<char, 17> kBytes = {
      '\r', '\n', ' ', ':', '%', '?', '&', '=', '/',
      '0',  '9',  'a', 'Z', '\t', '\0', '\x7f', '\xff'};
  HttpLimits tight;
  tight.max_head_bytes = 96;
  tight.max_body_bytes = 4;  // below the POST seed's body
  tight.max_headers = 2;
  const std::array<HttpLimits, 2> limits = {HttpLimits{}, tight};

  util::Rng rng{0x5EED};
  const auto below = [&rng](std::size_t n) {  // uniform in [0, n)
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::array<int, 5> outcomes{};
  for (int iter = 0; iter < 5000; ++iter) {
    std::string buf = seeds[below(seeds.size())];
    const auto edits = rng.uniform_int(1, 4);
    for (std::int64_t e = 0; e < edits; ++e) {
      switch (rng.uniform_int(0, 3)) {
        case 0:  // flip one bit
          if (!buf.empty()) {
            buf[below(buf.size())] ^= static_cast<char>(1 << below(8));
          }
          break;
        case 1:  // overwrite one byte
          if (!buf.empty()) buf[below(buf.size())] = kBytes[below(17)];
          break;
        case 2:  // truncate
          buf.resize(below(buf.size() + 1));
          break;
        default: {  // splice in a slice of a seed
          const auto& donor = seeds[below(seeds.size())];
          const auto from = below(donor.size());
          buf.insert(below(buf.size() + 1),
                     donor.substr(from, below(donor.size() - from + 1)));
          break;
        }
      }
    }

    const auto& limit = limits[static_cast<std::size_t>(iter) % 2];
    HttpRequest request;
    std::size_t head = 0, body = 0;
    const auto status = parse_request_head(buf, limit, request, head, body);
    ++outcomes[static_cast<std::size_t>(status)];
    const auto input = ::testing::PrintToString(buf);
    if (status == ParseStatus::Ok) {
      ASSERT_LE(head, std::min(buf.size(), limit.max_head_bytes)) << input;
      ASSERT_GE(head, 4u) << input;
      ASSERT_EQ(buf.substr(head - 4, 4), "\r\n\r\n") << input;
      ASSERT_LE(body, limit.max_body_bytes) << input;
    } else if (status == ParseStatus::NeedMore) {
      ASSERT_EQ(buf.find("\r\n\r\n"), std::string::npos) << input;
      ASSERT_LE(buf.size(), limit.max_head_bytes) << input;
    }
  }
  // The mutations must reach every outcome, or the contract above was
  // checked on too narrow a slice of inputs.
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_GT(outcomes[i], 0) << "ParseStatus " << i << " never reached";
  }
}

// ---------------------------------------------------------------------------
// Live-socket tests against a real server.
// ---------------------------------------------------------------------------

/// Minimal blocking test client for one connection to 127.0.0.1:port.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return connected_; }

  void send_all(std::string_view data) const {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const auto rc =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(rc, 0);
      sent += static_cast<std::size_t>(rc);
    }
  }
  void half_close() const { ::shutdown(fd_, SHUT_WR); }
  void set_read_timeout(std::chrono::milliseconds timeout) const {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>(timeout.count() % 1000 * 1000);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  /// How the last read that returned no data ended: 0 for EOF, else errno.
  [[nodiscard]] int end_errno() const { return end_errno_; }

  /// Reads exactly one response (headers + Content-Length body).
  [[nodiscard]] std::string read_response() {
    while (buffer_.find("\r\n\r\n") == std::string::npos) {
      if (!fill()) return std::exchange(buffer_, {});
    }
    const auto head_end = buffer_.find("\r\n\r\n") + 4;
    const auto cl_pos = buffer_.find("Content-Length: ");
    std::size_t body = 0;
    if (cl_pos != std::string::npos && cl_pos < head_end) {
      body = std::stoul(buffer_.substr(cl_pos + 16));
    }
    while (buffer_.size() < head_end + body) {
      if (!fill()) break;
    }
    std::string response = buffer_.substr(0, head_end + body);
    buffer_.erase(0, head_end + body);
    return response;
  }

  /// Reads until the server closes the connection.
  [[nodiscard]] std::string read_to_eof() {
    while (fill()) {
    }
    return std::exchange(buffer_, {});
  }

 private:
  bool fill() {
    char chunk[4096];
    const auto rc = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (rc <= 0) {
      end_errno_ = rc == 0 ? 0 : errno;
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(rc));
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  int end_errno_ = 0;
  std::string buffer_;
};

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HttpServerConfig config;
    config.workers = 2;
    config.limits.max_head_bytes = 1024;
    config.limits.max_body_bytes = 2048;
    config.limits.read_timeout_ms = 60000;  // tests drive I/O explicitly
    server_ = std::make_unique<HttpServer>(
        [](const HttpRequest& request) {
          if (request.path == "/boom") throw std::runtime_error{"boom"};
          std::string body = "path=" + request.path;
          if (const auto* q = request.query_param("q")) body += " q=" + *q;
          if (!request.body.empty()) {
            body += " body_bytes=" + std::to_string(request.body.size());
          }
          return HttpResponse::text(200, std::move(body));
        },
        config);
    ASSERT_TRUE(server_->start());
    ASSERT_NE(server_->port(), 0);
  }

  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, ServesSimpleGet) {
  TestClient client{server_->port()};
  ASSERT_TRUE(client.connected());
  client.send_all("GET /hello?q=a%20b HTTP/1.1\r\nHost: x\r\n\r\n");
  const auto response = client.read_response();
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("path=/hello q=a b"), std::string::npos);
  EXPECT_EQ(server_->requests_served(), 1u);
}

TEST_F(HttpServerTest, KeepAliveServesPipelinedRequests) {
  TestClient client{server_->port()};
  ASSERT_TRUE(client.connected());
  // Three requests in one write; responses must come back in order on the
  // same connection.
  client.send_all(
      "GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /b HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /c HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_NE(client.read_response().find("path=/a"), std::string::npos);
  EXPECT_NE(client.read_response().find("path=/b"), std::string::npos);
  const auto last = client.read_response();
  EXPECT_NE(last.find("path=/c"), std::string::npos);
  EXPECT_NE(last.find("Connection: close"), std::string::npos);
  EXPECT_EQ(server_->requests_served(), 3u);
  EXPECT_EQ(server_->connections_accepted(), 1u);
}

TEST_F(HttpServerTest, PostBodyIsDelivered) {
  TestClient client{server_->port()};
  ASSERT_TRUE(client.connected());
  client.send_all(
      "POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello");
  const auto response = client.read_response();
  EXPECT_NE(response.find("body_bytes=5"), std::string::npos);
}

TEST_F(HttpServerTest, MalformedRequestLineGets400) {
  TestClient client{server_->port()};
  ASSERT_TRUE(client.connected());
  client.send_all("NOT A VALID REQUEST LINE AT ALL\r\n\r\n");
  const auto response = client.read_to_eof();
  EXPECT_NE(response.find("HTTP/1.1 400 Bad Request"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
}

TEST_F(HttpServerTest, OversizedHeadGets431) {
  TestClient client{server_->port()};
  ASSERT_TRUE(client.connected());
  client.send_all("GET / HTTP/1.1\r\nX-Big: " + std::string(2000, 'a') +
                  "\r\n\r\n");
  EXPECT_NE(client.read_to_eof().find("HTTP/1.1 431 "), std::string::npos);
}

TEST_F(HttpServerTest, OversizedBodyGets413) {
  TestClient client{server_->port()};
  ASSERT_TRUE(client.connected());
  client.send_all("POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n");
  EXPECT_NE(client.read_to_eof().find("HTTP/1.1 413 "), std::string::npos);
}

TEST_F(HttpServerTest, TruncatedBodyGets400) {
  TestClient client{server_->port()};
  ASSERT_TRUE(client.connected());
  client.send_all("POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly this");
  client.half_close();  // peer gives up mid-body but still reads
  EXPECT_NE(client.read_to_eof().find("HTTP/1.1 400 "), std::string::npos);
}

TEST_F(HttpServerTest, TruncatedHeadGets400) {
  TestClient client{server_->port()};
  ASSERT_TRUE(client.connected());
  client.send_all("GET / HTTP/1.1\r\nHost: half");
  client.half_close();
  EXPECT_NE(client.read_to_eof().find("HTTP/1.1 400 "), std::string::npos);
}

TEST_F(HttpServerTest, HandlerExceptionsBecome500) {
  TestClient client{server_->port()};
  ASSERT_TRUE(client.connected());
  client.send_all("GET /boom HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(client.read_response().find("HTTP/1.1 500 "), std::string::npos);
}

TEST_F(HttpServerTest, ConcurrentClients) {
  constexpr int kClients = 8;
  constexpr int kRequestsEach = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      TestClient client{server_->port()};
      ASSERT_TRUE(client.connected());
      for (int i = 0; i < kRequestsEach; ++i) {
        client.send_all("GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");
        EXPECT_NE(client.read_response().find("path=/ping"),
                  std::string::npos);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(server_->requests_served(),
            static_cast<std::uint64_t>(kClients) * kRequestsEach);
}

TEST_F(HttpServerTest, StopDrainsCleanly) {
  TestClient idle{server_->port()};  // connected but never writes
  ASSERT_TRUE(idle.connected());
  TestClient active{server_->port()};
  ASSERT_TRUE(active.connected());
  active.send_all("GET /x HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(active.read_response().find("200 OK"), std::string::npos);
  // Must not ride out the 60 s read timeout on the idle connection.
  const auto t0 = std::chrono::steady_clock::now();
  server_->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds{2});
  EXPECT_FALSE(server_->running());
  // Idempotent; restartable server object is not required, but a second
  // stop must be harmless.
  server_->stop();
}

TEST(HttpServerLifecycleTest, EphemeralPortsAndRestart) {
  const auto handler = [](const HttpRequest&) {
    return HttpResponse::text(200, "ok");
  };
  HttpServer a{handler};
  HttpServer b{handler};
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  EXPECT_NE(a.port(), b.port());  // both ephemeral, both bound
  a.stop();
  b.stop();
}

TEST(HttpServerLifecycleTest, StopResetsConnectionsWaitingInBacklog) {
  HttpServerConfig config;
  config.workers = 1;
  config.limits.read_timeout_ms = 60000;
  HttpServer server{
      [](const HttpRequest&) { return HttpResponse::text(200, "ok"); },
      config};
  ASSERT_TRUE(server.start());

  TestClient idle{server.port()};  // holds the only worker
  ASSERT_TRUE(idle.connected());
  for (int i = 0; i < 500 && server.connections_accepted() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
  }
  ASSERT_EQ(server.connections_accepted(), 1u);

  // The handshake completes in the kernel backlog; no worker accepts it.
  TestClient waiting{server.port()};
  ASSERT_TRUE(waiting.connected());
  waiting.set_read_timeout(std::chrono::seconds{5});
  waiting.send_all("GET /x HTTP/1.1\r\nHost: x\r\n\r\n");

  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds{2});

  // Closing the listener ends the waiting connection: EOF or a reset,
  // never a response and never a hang (which would read EAGAIN).
  EXPECT_EQ(waiting.read_to_eof(), "");
  EXPECT_TRUE(waiting.end_errno() == 0 || waiting.end_errno() == ECONNRESET)
      << "errno " << waiting.end_errno();
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(server.requests_served(), 0u);
}

}  // namespace
}  // namespace blameit::svc
