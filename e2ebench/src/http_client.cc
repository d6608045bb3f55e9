#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

namespace e2ebench {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto lower = [](char c) {
      return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
    };
    if (lower(a[i]) != lower(b[i])) return false;
  }
  return true;
}

}  // namespace

std::optional<HttpReply> parse_reply(std::string_view buf,
                                     std::size_t& consumed,
                                     std::string& error) {
  const std::size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (buf.size() > 16 * 1024) error = "response head too large";
    return std::nullopt;
  }
  const std::string_view head = buf.substr(0, head_end);
  std::size_t line_end = head.find("\r\n");
  const std::string_view status_line = head.substr(0, line_end);
  if (!status_line.starts_with("HTTP/1.1 ") || status_line.size() < 12) {
    error = "bad status line";
    return std::nullopt;
  }
  HttpReply reply;
  const auto [ptr, ec] =
      std::from_chars(status_line.data() + 9, status_line.data() + 12,
                      reply.status);
  if (ec != std::errc{} || ptr != status_line.data() + 12) {
    error = "bad status code";
    return std::nullopt;
  }
  std::optional<std::size_t> length;
  while (line_end != std::string_view::npos) {
    const std::size_t next = head.find("\r\n", line_end + 2);
    const std::string_view line =
        head.substr(line_end + 2, next == std::string_view::npos
                                      ? std::string_view::npos
                                      : next - line_end - 2);
    line_end = next;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      error = "bad header line";
      return std::nullopt;
    }
    if (!iequals(line.substr(0, colon), "content-length")) continue;
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    std::size_t n = 0;
    const auto [p, e] = std::from_chars(value.data(),
                                        value.data() + value.size(), n);
    if (e != std::errc{} || p != value.data() + value.size()) {
      error = "bad content-length";
      return std::nullopt;
    }
    length = n;
  }
  if (!length) {
    error = "response without content-length";
    return std::nullopt;
  }
  const std::size_t total = head_end + 4 + *length;
  if (buf.size() < total) return std::nullopt;
  reply.body.assign(buf.substr(head_end + 4, *length));
  consumed = total;
  return reply;
}

bool HttpConnection::open(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const timeval timeout{2, 0};  // a read never blocks longer than this
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    close();
    return false;
  }
  buf_.clear();
  return true;
}

void HttpConnection::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool HttpConnection::send_get(std::string_view target) {
  std::string request;
  request.reserve(target.size() + 64);
  request.append("GET ").append(target).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<HttpReply> HttpConnection::on_readable(std::string& error) {
  char chunk[16 * 1024];
  const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
  if (n < 0 && errno == EINTR) return std::nullopt;
  if (n <= 0) {
    if (n == 0) {
      error = "connection closed by server";
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      error = "read timed out";
    } else {
      error = std::strerror(errno);
    }
    return std::nullopt;
  }
  buf_.append(chunk, static_cast<std::size_t>(n));
  std::size_t consumed = 0;
  auto reply = parse_reply(buf_, consumed, error);
  if (reply) buf_.erase(0, consumed);
  return reply;
}

}  // namespace e2ebench
