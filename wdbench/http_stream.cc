#include "http_stream.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace wdbench {
namespace {

constexpr std::size_t kMaxLine = 64 * 1024;
constexpr int kIoTimeoutMs = 30'000;

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

sockaddr_in Loopback(uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

void NoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Clears the response half of an exchange before a retry.
void ResetResponse(Exchange* ex) {
  ex->transport_ok = false;
  ex->error.clear();
  ex->status = 0;
  ex->keep_alive = false;
  ex->first_row_ns = 0;
  ex->done_ns = 0;
  ex->digest = AnswerDigest();
  ex->row_count = -1;
  ex->outcome.clear();
  ex->text.clear();
}

}  // namespace

int ResponseReader::Feed(const char* data, std::size_t n) {
  if (n > 0) started_ = true;
  std::size_t i = 0;
  while (i < n && state_ != State::kDone) {
    switch (state_) {
      case State::kChunkData:
      case State::kFixedBody: {
        std::size_t take = static_cast<std::size_t>(
            std::min<uint64_t>(remaining_, n - i));
        Body(data + i, take);
        i += take;
        remaining_ -= take;
        if (remaining_ == 0) {
          if (state_ == State::kChunkData) {
            state_ = State::kChunkDataEnd;
          } else {
            Finish();
          }
        }
        break;
      }
      case State::kUntilClose:
        Body(data + i, n - i);
        i = n;
        break;
      default: {
        const char* nl =
            static_cast<const char*>(std::memchr(data + i, '\n', n - i));
        if (nl == nullptr) {
          line_.append(data + i, n - i);
          i = n;
          if (line_.size() > kMaxLine) return -1;
          break;
        }
        line_.append(data + i, static_cast<std::size_t>(nl - (data + i)));
        i = static_cast<std::size_t>(nl - data) + 1;
        if (!line_.empty() && line_.back() == '\r') line_.pop_back();
        std::string line = std::move(line_);
        line_.clear();
        switch (state_) {
          case State::kStatusLine: {
            if (line.rfind("HTTP/1.", 0) != 0 || line.size() < 12) return -1;
            ex_->keep_alive = line[7] == '1';
            ex_->status = std::atoi(line.c_str() + 9);
            state_ = State::kHeaders;
            break;
          }
          case State::kHeaders: {
            if (line.empty()) {
              if (chunked_) {
                state_ = State::kChunkSize;
              } else if (content_length_ >= 0) {
                remaining_ = static_cast<uint64_t>(content_length_);
                state_ = State::kFixedBody;
                if (remaining_ == 0) Finish();
              } else {
                ex_->keep_alive = false;
                state_ = State::kUntilClose;
              }
              break;
            }
            std::size_t colon = line.find(':');
            if (colon == std::string::npos) return -1;
            std::string name = Lower(line.substr(0, colon));
            std::string value = line.substr(colon + 1);
            while (!value.empty() && value.front() == ' ') value.erase(0, 1);
            value = Lower(value);
            if (name == "content-length") {
              content_length_ = std::atoll(value.c_str());
              if (content_length_ < 0) return -1;
            } else if (name == "transfer-encoding") {
              chunked_ = value.find("chunked") != std::string::npos;
            } else if (name == "connection") {
              if (value.find("close") != std::string::npos) ex_->keep_alive = false;
              if (value.find("keep-alive") != std::string::npos) ex_->keep_alive = true;
            }
            break;
          }
          case State::kChunkSize: {
            char* end = nullptr;
            unsigned long long size = std::strtoull(line.c_str(), &end, 16);
            if (end == line.c_str()) return -1;
            if (size == 0) {
              state_ = State::kTrailers;
            } else {
              remaining_ = size;
              state_ = State::kChunkData;
            }
            break;
          }
          case State::kChunkDataEnd:
            if (!line.empty()) return -1;
            state_ = State::kChunkSize;
            break;
          case State::kTrailers:
            if (line.empty()) Finish();
            break;
          default:
            return -1;
        }
      }
    }
  }
  return state_ == State::kDone ? 1 : 0;
}

int ResponseReader::FeedEof() {
  if (state_ == State::kUntilClose) Finish();
  return state_ == State::kDone ? 1 : -1;
}

void ResponseReader::Body(const char* data, std::size_t n) {
  if (!ex_->query) {
    ex_->text.append(data, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) BodyChar(data[i]);
}

void ResponseReader::BodyChar(char c) {
  static constexpr std::string_view kRowsKey = "\"rows\":[";
  switch (scan_) {
    case Scan::kHead:
      head_ += c;
      if (head_.size() >= kRowsKey.size() &&
          std::string_view(head_).substr(head_.size() - kRowsKey.size()) ==
              kRowsKey) {
        scan_ = Scan::kRows;
      }
      return;
    case Scan::kTail:
      ex_->text += c;
      return;
    case Scan::kRows:
      break;
  }
  if (depth_ == 0) {
    if (c == '[') {
      depth_ = 1;
      row_.assign(1, c);
    } else if (c == ']') {
      scan_ = Scan::kTail;
    }
    return;
  }
  row_ += c;
  if (in_string_) {
    if (escape_) {
      escape_ = false;
    } else if (c == '\\') {
      escape_ = true;
    } else if (c == '"') {
      in_string_ = false;
    }
    return;
  }
  if (c == '"') {
    in_string_ = true;
  } else if (c == '[') {
    ++depth_;
  } else if (c == ']' && --depth_ == 0) {
    ex_->digest.AddRow(row_);
    if (ex_->first_row_ns == 0) ex_->first_row_ns = NowNs();
  }
}

void ResponseReader::Finish() {
  state_ = State::kDone;
  ex_->done_ns = NowNs();
  if (!ex_->query) return;
  if (scan_ == Scan::kHead) {
    ex_->text = std::move(head_);  // An error object, not a row stream.
    return;
  }
  const std::string& tail = ex_->text;
  std::size_t at = tail.find("\"row_count\":");
  if (at != std::string::npos) ex_->row_count = std::atoll(tail.c_str() + at + 12);
  at = tail.find("\"status\":\"");
  if (at != std::string::npos) {
    std::size_t end = tail.find('"', at + 10);
    if (end != std::string::npos) ex_->outcome = tail.substr(at + 10, end - at - 10);
  }
}

namespace {

/// Renders a keep-alive HTTP/1.1 POST request.
std::string RenderRequest(const Exchange& ex) {
  std::string out = "POST " + ex.target + " HTTP/1.1\r\n";
  out += "Host: 127.0.0.1\r\nConnection: keep-alive\r\n";
  if (ex.request_id != 0) {
    out += "X-Request-Id: wdbench-" + std::to_string(ex.request_id) + "\r\n";
  }
  out += "Content-Type: text/plain\r\nContent-Length: " +
         std::to_string(ex.body.size()) + "\r\n\r\n";
  out += ex.body;
  return out;
}

/// Dials 127.0.0.1:port (blocking); -1 on failure.
int Dial(uint16_t port, std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  struct timeval tv;
  tv.tv_sec = kIoTimeoutMs / 1000;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  NoDelay(fd);
  sockaddr_in addr = Loopback(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

HttpConnection::~HttpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpConnection::RoundTrip(Exchange* ex) {
  ex->sent_ns = NowNs();
  bool retryable = false;
  if (Attempt(ex, &retryable)) return true;
  if (!retryable) return false;
  // The kept-alive connection was closed under us before any response
  // byte arrived: the usual keep-alive race. Retry once on a fresh one.
  ResetResponse(ex);
  return Attempt(ex, &retryable);
}

bool HttpConnection::Attempt(Exchange* ex, bool* retryable) {
  *retryable = false;
  ex->reused = fd_ >= 0;
  if (fd_ < 0) {
    fd_ = Dial(port_, &ex->error);
    if (fd_ < 0) return false;
  }
  auto fail = [&](const std::string& what, bool started) {
    ex->error = what;
    *retryable = ex->reused && !started;
    ::close(fd_);
    fd_ = -1;
    return false;
  };
  std::string request = RenderRequest(*ex);
  std::size_t off = 0;
  while (off < request.size()) {
    ssize_t w = ::send(fd_, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return fail(std::string("send: ") + std::strerror(errno), false);
    off += static_cast<std::size_t>(w);
  }
  ResponseReader reader(ex);
  char buf[64 * 1024];
  while (true) {
    ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) return fail(std::string("recv: ") + std::strerror(errno), reader.started());
    int rc = r == 0 ? reader.FeedEof() : reader.Feed(buf, static_cast<std::size_t>(r));
    if (rc < 0) {
      return fail(r == 0 ? "connection closed mid-response" : "malformed response",
                  reader.started());
    }
    if (rc == 1) break;
  }
  ex->transport_ok = true;
  if (!ex->keep_alive) {
    ::close(fd_);
    fd_ = -1;
  }
  return true;
}

}  // namespace wdbench
