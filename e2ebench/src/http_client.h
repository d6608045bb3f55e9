// Minimal keep-alive HTTP/1.1 client for the loopback reads: one request in
// flight per connection, responses framed by Content-Length, blocking
// sockets with a 2 s receive timeout.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace e2ebench {

struct HttpReply {
  int status = 0;
  std::string body;
};

/// Parses one complete response at the front of `buf`. Returns the reply
/// and sets `consumed` once the whole body is there; std::nullopt with
/// `error` empty means "need more bytes", with `error` set the stream is
/// malformed.
[[nodiscard]] std::optional<HttpReply> parse_reply(std::string_view buf,
                                                   std::size_t& consumed,
                                                   std::string& error);

class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection() { close(); }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Connects to 127.0.0.1:port; false on failure.
  bool open(std::uint16_t port);
  void close();

  /// Writes one GET request for `target`; false on a socket error.
  bool send_get(std::string_view target);

  /// Reads what the socket has, blocking for at most the 2 s receive
  /// timeout. Returns a reply once one is complete; sets `error` on EOF,
  /// timeout or a malformed stream (the connection must then be reopened).
  std::optional<HttpReply> on_readable(std::string& error);

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace e2ebench
