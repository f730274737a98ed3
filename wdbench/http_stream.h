#ifndef WDBENCH_HTTP_STREAM_H_
#define WDBENCH_HTTP_STREAM_H_

/// \file
/// The benchmark's own HTTP/1.1 client. Unlike the engine's test client
/// it asks for keep-alive, reuses a connection whenever the server's
/// response allows it (and reconnects otherwise), and reads responses
/// incrementally: streamed /query rows are digested as their chunks
/// arrive, so the time to the first row is measured, and whole answer
/// sets never have to be buffered.

#include <cstdint>
#include <string>

#include "common.h"

namespace wdbench {

/// One POST request and what came back.
struct Exchange {
  // Request.
  std::string target;
  std::string body;
  bool query = false;  ///< Body is a streamed /query answer to digest.
  uint64_t request_id = 0;

  // Response.
  bool transport_ok = false;  ///< A complete response arrived.
  std::string error;          ///< Transport failure, when !transport_ok.
  int status = 0;
  bool keep_alive = false;    ///< The server allows reusing the connection.
  bool reused = false;        ///< Sent over a kept-alive connection.
  int64_t sent_ns = 0;
  int64_t first_row_ns = 0;   ///< 0 when no row arrived.
  int64_t done_ns = 0;
  AnswerDigest digest;        ///< /query rows.
  int64_t row_count = -1;     ///< The trailer's "row_count".
  std::string outcome;        ///< The trailer's "status".
  std::string text;           ///< Whole body (non-query) or trailer.
};

/// Incremental HTTP/1.1 response parser (status line, headers,
/// Content-Length / chunked / read-until-close bodies) feeding the body
/// to the /query row scanner or a plain buffer.
class ResponseReader {
 public:
  explicit ResponseReader(Exchange* ex) : ex_(ex) {}
  /// Consumes `n` bytes. Returns 1 when the response is complete, 0 when
  /// more bytes are needed, -1 on a protocol error.
  int Feed(const char* data, std::size_t n);
  /// The peer closed: completes a read-until-close body.
  int FeedEof();
  bool started() const { return started_; }

 private:
  enum class State {
    kStatusLine, kHeaders, kChunkSize, kChunkData, kChunkDataEnd,
    kTrailers, kFixedBody, kUntilClose, kDone
  };
  void Body(const char* data, std::size_t n);
  void BodyChar(char c);
  void Finish();

  Exchange* ex_;
  State state_ = State::kStatusLine;
  bool started_ = false;
  std::string line_;
  bool chunked_ = false;
  int64_t content_length_ = -1;
  uint64_t remaining_ = 0;

  // /query body scanner: head until `"rows":[`, then rows, then trailer.
  enum class Scan { kHead, kRows, kTail } scan_ = Scan::kHead;
  std::string head_;
  std::string row_;
  int depth_ = 0;
  bool in_string_ = false;
  bool escape_ = false;
};

/// A blocking client connection.
class HttpConnection {
 public:
  explicit HttpConnection(uint16_t port) : port_(port) {}
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends `ex` and reads its response into it. Returns transport_ok.
  bool RoundTrip(Exchange* ex);

 private:
  bool Attempt(Exchange* ex, bool* retryable);
  uint16_t port_;
  int fd_ = -1;
};

}  // namespace wdbench

#endif  // WDBENCH_HTTP_STREAM_H_
