// Blocking HTTP/1.1 + WebSocket client for driving the gateway from
// tests, the CI smoke and `gmine ws`. Deliberately synchronous — one
// request (or frame) at a time over one connection — because its job
// is deterministic transcripts, not throughput.

#ifndef GMINE_HTTP_CLIENT_H_
#define GMINE_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "http/websocket.h"
#include "net/socket.h"
#include "util/status.h"

namespace gmine::http {

/// One decoded HTTP response.
struct HttpClientResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;  // lowercased
  std::string body;

  std::string_view Header(std::string_view name) const;
};

/// One received WebSocket message (control frames surface too).
struct WsMessage {
  WsOpcode opcode = WsOpcode::kText;
  std::string payload;
};

class GatewayClient {
 public:
  GatewayClient() = default;

  /// Connects to 127.0.0.1-ish `host`:`port`.
  Status Connect(const std::string& host, uint16_t port);
  void Close();

  /// Sends one request and reads the full response (Content-Length
  /// framed). `token` non-empty adds the Authorization header.
  gmine::Result<HttpClientResponse> Request(
      const std::string& method, const std::string& target,
      const std::string& token = {}, const std::string& body = {},
      const std::vector<std::pair<std::string, std::string>>&
          extra_headers = {});

  /// Request's two halves, for pipelining: send without reading, and
  /// read the next response.
  Status SendRequest(const std::string& method, const std::string& target,
                     const std::string& token = {},
                     const std::string& body = {},
                     const std::vector<std::pair<std::string, std::string>>&
                         extra_headers = {});
  gmine::Result<HttpClientResponse> ReadResponse(int timeout_ms = 5000);

  /// Performs the RFC 6455 handshake on `target`. After success the
  /// connection speaks frames; Request() is no longer valid.
  Status UpgradeWebSocket(const std::string& target,
                          const std::string& token = {});

  /// Sends one masked text frame.
  Status SendText(std::string_view payload);
  /// Sends a masked ping / close frame.
  Status SendPing(std::string_view payload = {});
  Status SendClose(uint16_t code, std::string_view reason = {});

  /// Blocks for the next complete message (assembling fragments,
  /// surfacing control frames). `timeout_ms` caps the wait.
  gmine::Result<WsMessage> ReadMessage(int timeout_ms = 5000);

  /// Text-frame round trip: send an op line, read until a text reply
  /// (answering pings along the way), return its payload.
  gmine::Result<std::string> Roundtrip(const std::string& op_line,
                                       int timeout_ms = 5000);

  /// Raw-bytes escape hatches for protocol-violation tests: write wire
  /// bytes verbatim / read whatever arrives (empty on EOF).
  Status SendRaw(std::string_view data);
  gmine::Result<std::string> ReadRaw(size_t max, int timeout_ms);

 private:
  gmine::Result<std::string> ReadUntil(const std::string& delimiter,
                                       int timeout_ms);
  Status ReadExact(size_t n, std::string* out, int timeout_ms);

  net::Socket sock_;
  std::string buffer_;  // bytes read past the last parsed unit
  WsFrameParser parser_{WsParserOptions{/*require_masked=*/false,
                                        /*max_frame_bytes=*/16u << 20}};
  WsMessageAssembler assembler_{16u << 20};
  uint32_t mask_counter_ = 0x6d61736b;  // deterministic masking keys
};

}  // namespace gmine::http

#endif  // GMINE_HTTP_CLIENT_H_
