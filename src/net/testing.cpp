#include "net/testing.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/error.h"
#include "net/http.h"

namespace smartflux::net::testing {

const std::string* ClientResponse::header(std::string_view name) const noexcept {
  for (const auto& [key, value] : headers) {
    if (iequals(key, name)) return &value;
  }
  return nullptr;
}

Client::Client(std::uint16_t port, const std::string& host, int recv_timeout_ms) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw Error("testing::Client: socket: " + std::string(std::strerror(errno)));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw Error("testing::Client: bad address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw Error("testing::Client: connect: " + std::string(std::strerror(err)));
  }
  if (recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = recv_timeout_ms / 1000;
    tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      consumed_(std::exchange(other.consumed_, 0)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    consumed_ = std::exchange(other.consumed_, 0);
  }
  return *this;
}

void Client::send_raw(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("testing::Client: send: " + std::string(std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
}

void Client::send_request(std::string_view method, std::string_view target, std::string_view body,
                          const std::vector<std::pair<std::string, std::string>>& headers) {
  std::string wire;
  wire.reserve(128 + body.size());
  wire += method;
  wire += ' ';
  wire += target;
  wire += " HTTP/1.1\r\nHost: loopback\r\n";
  for (const auto& [key, value] : headers) {
    wire += key;
    wire += ": ";
    wire += value;
    wire += "\r\n";
  }
  if (!body.empty()) {
    wire += "Content-Length: ";
    wire += std::to_string(body.size());
    wire += "\r\n";
  }
  wire += "\r\n";
  wire += body;
  send_raw(wire);
}

void Client::send_chunked_request(
    std::string_view method, std::string_view target, std::string_view body,
    std::size_t chunk_size, const std::vector<std::pair<std::string, std::string>>& headers) {
  if (chunk_size == 0) chunk_size = 1;
  std::string wire;
  wire.reserve(160 + body.size() + 8 * (body.size() / chunk_size + 2));
  wire += method;
  wire += ' ';
  wire += target;
  wire += " HTTP/1.1\r\nHost: loopback\r\n";
  for (const auto& [key, value] : headers) {
    wire += key;
    wire += ": ";
    wire += value;
    wire += "\r\n";
  }
  wire += "Transfer-Encoding: chunked\r\n\r\n";
  for (std::size_t off = 0; off < body.size(); off += chunk_size) {
    const std::size_t len = std::min(chunk_size, body.size() - off);
    char frame[20];
    const int n = std::snprintf(frame, sizeof frame, "%zx\r\n", len);
    wire.append(frame, static_cast<std::size_t>(n));
    wire.append(body.data() + off, len);
    wire += "\r\n";
  }
  wire += "0\r\n\r\n";
  send_raw(wire);
}

ClientResponse Client::request(std::string_view method, std::string_view target,
                               std::string_view body,
                               const std::vector<std::pair<std::string, std::string>>& headers) {
  send_request(method, target, body, headers);
  return read_response();
}

bool Client::fill() {
  char chunk[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw Error("testing::Client: recv timed out");
    }
    throw Error("testing::Client: recv: " + std::string(std::strerror(errno)));
  }
}

ClientResponse Client::read_response() {
  // Wait for the full head.
  std::size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n", consumed_)) == std::string::npos) {
    if (!fill()) throw Error("testing::Client: connection closed before response head");
  }

  ClientResponse response;
  std::string_view head(buffer_.data() + consumed_, head_end - consumed_);

  // Status line: HTTP/1.x NNN reason
  const std::size_t line_end = head.find("\r\n");
  std::string_view status_line = line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = status_line.find(' ');
  if (sp1 == std::string_view::npos) {
    throw Error("testing::Client: malformed status line");
  }
  const std::size_t sp2 = status_line.find(' ', sp1 + 1);
  const std::string_view code =
      status_line.substr(sp1 + 1, sp2 == std::string_view::npos ? std::string_view::npos
                                                                : sp2 - sp1 - 1);
  response.status = std::atoi(std::string(code).c_str());
  if (sp2 != std::string_view::npos) response.reason = std::string(status_line.substr(sp2 + 1));

  // Headers.
  std::size_t content_length = 0;
  bool chunked = false;
  std::size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    response.headers.emplace_back(std::string(line.substr(0, colon)), std::string(value));
    if (iequals(line.substr(0, colon), "Content-Length")) {
      content_length = static_cast<std::size_t>(std::atoll(std::string(value).c_str()));
    } else if (iequals(line.substr(0, colon), "Transfer-Encoding") && iequals(value, "chunked")) {
      chunked = true;
    }
  }

  consumed_ = head_end + 4;
  if (chunked) {
    // De-chunk: size-line (hex) CRLF data CRLF ... "0" CRLF CRLF. The
    // server never sends trailers, so the terminator is exactly one blank
    // line after the zero chunk.
    response.chunked = true;
    for (;;) {
      std::size_t eol;
      while ((eol = buffer_.find("\r\n", consumed_)) == std::string::npos) {
        if (!fill()) throw Error("testing::Client: connection closed mid-chunk-size");
      }
      const std::string size_text = buffer_.substr(consumed_, eol - consumed_);
      char* end = nullptr;
      const std::size_t size =
          static_cast<std::size_t>(std::strtoull(size_text.c_str(), &end, 16));
      if (end == size_text.c_str()) throw Error("testing::Client: malformed chunk size");
      consumed_ = eol + 2;
      if (size == 0) {
        while (buffer_.size() - consumed_ < 2) {
          if (!fill()) throw Error("testing::Client: connection closed before chunk terminator");
        }
        consumed_ += 2;
        break;
      }
      while (buffer_.size() - consumed_ < size + 2) {
        if (!fill()) throw Error("testing::Client: connection closed mid-chunk");
      }
      response.body.append(buffer_, consumed_, size);
      consumed_ += size + 2;
    }
  } else {
    while (buffer_.size() - consumed_ < content_length) {
      if (!fill()) throw Error("testing::Client: connection closed mid-body");
    }
    response.body = buffer_.substr(consumed_, content_length);
    consumed_ += content_length;
  }

  // Compact once everything buffered has been handed out.
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  }
  return response;
}

std::string Client::read_until_closed() {
  while (fill()) {
  }
  std::string out = buffer_.substr(consumed_);
  buffer_.clear();
  consumed_ = 0;
  return out;
}

bool Client::at_eof() {
  if (consumed_ < buffer_.size()) return false;
  return !fill();
}

ChaosClient::ChaosClient(std::uint16_t port, const NetChaosSchedule* schedule,
                         std::uint64_t stream, int recv_timeout_ms)
    : port_(port), schedule_(schedule), stream_(stream), recv_timeout_ms_(recv_timeout_ms) {}

Client& ChaosClient::ensure_connected() {
  if (!client_) client_.emplace(port_, "127.0.0.1", recv_timeout_ms_);
  return *client_;
}

void ChaosClient::reconnect() {
  client_.reset();
  ++stats_.reconnects;
}

void ChaosClient::set_port(std::uint16_t port) {
  port_ = port;
  client_.reset();
}

int ChaosClient::post_ingest(const std::string& table, const std::string& key,
                             const std::string& body, std::size_t max_attempts) {
  const std::uint64_t request = request_seq_++;
  // The exact bytes of one attempt, built once — chaos cuts index into this.
  std::string wire;
  wire.reserve(160 + key.size() + body.size());
  wire += "POST /ingest/";
  wire += table;
  wire += " HTTP/1.1\r\nHost: loopback\r\nIdempotency-Key: ";
  wire += key;
  wire += "\r\nContent-Length: ";
  wire += std::to_string(body.size());
  wire += "\r\n\r\n";
  wire += body;

  for (std::uint64_t attempt = 0; attempt < max_attempts; ++attempt) {
    ++stats_.attempts;
    const NetFaultKind fault =
        schedule_ != nullptr ? schedule_->draw(stream_, request, attempt) : NetFaultKind::kNone;
    try {
      Client& client = ensure_connected();
      ClientResponse response;
      bool duplicate_sent = false;
      switch (fault) {
        case NetFaultKind::kPartialWrite: {
          // Fragmented send with pauses: the request arrives in three
          // arbitrary slices, exercising the incremental parser and the
          // mid-request deadline clock (which must NOT fire — the trickle
          // finishes well inside the deadline).
          ++stats_.partial_writes;
          std::size_t a = schedule_->cut_point(stream_, request, attempt, 1, wire.size());
          std::size_t b = schedule_->cut_point(stream_, request, attempt, 2, wire.size());
          if (a > b) std::swap(a, b);
          client.send_raw(std::string_view(wire).substr(0, a));
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          client.send_raw(std::string_view(wire).substr(a, b - a));
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          client.send_raw(std::string_view(wire).substr(b));
          response = client.read_response();
          break;
        }
        case NetFaultKind::kReset: {
          // Drop the connection mid-request: the ack never arrives, so the
          // client must retry blind — the exact window idempotency covers.
          ++stats_.resets;
          const std::size_t cut =
              schedule_->cut_point(stream_, request, attempt, 3, wire.size());
          client.send_raw(std::string_view(wire).substr(0, cut));
          reconnect();
          continue;
        }
        case NetFaultKind::kStall: {
          // Sit silent mid-request past the server's read deadline; the
          // server should 408 and close. Whatever comes back (or however
          // the socket dies), the retry carries the same key.
          ++stats_.stalls;
          const std::size_t cut =
              schedule_->cut_point(stream_, request, attempt, 4, wire.size());
          client.send_raw(std::string_view(wire).substr(0, cut));
          std::this_thread::sleep_for(schedule_->options().stall_for);
          try {
            client.send_raw(std::string_view(wire).substr(cut));
            response = client.read_response();
          } catch (const Error&) {
            reconnect();
            continue;
          }
          if (response.status != 202) {
            reconnect();
            continue;
          }
          break;
        }
        case NetFaultKind::kDuplicate: {
          // The same request twice back-to-back on one connection: the
          // second answer must be the duplicate re-ack, not a second 202
          // that staged the rows again.
          ++stats_.duplicate_sends;
          duplicate_sent = true;
          client.send_raw(wire);
          client.send_raw(wire);
          response = client.read_response();
          const ClientResponse second = client.read_response();
          if (second.status == 202 &&
              second.body.find("\"duplicate\":true") != std::string::npos) {
            ++stats_.duplicate_acks;
          }
          if (response.status != 202 && second.status == 202) response = second;
          break;
        }
        case NetFaultKind::kNone:
        default:
          client.send_raw(wire);
          response = client.read_response();
          break;
      }
      if (response.status == 202) {
        ++stats_.requests;
        if (!duplicate_sent && response.body.find("\"duplicate\":true") != std::string::npos) {
          ++stats_.duplicate_acks;
        }
        return 202;
      }
      if (response.status == 503) {
        // Refused under load: honor the spirit of Retry-After at test time scale.
        ++stats_.refusals;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      return response.status;  // 4xx: the request itself is wrong; no retry
    } catch (const Error&) {
      // Connect refused (server restarting), recv timeout, peer reset —
      // all retryable with the same key.
      reconnect();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
  }
  return 0;
}

}  // namespace smartflux::net::testing
