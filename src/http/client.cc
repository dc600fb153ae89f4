#include "http/client.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "util/string_util.h"

namespace gmine::http {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

}  // namespace

std::string_view HttpClientResponse::Header(std::string_view name) const {
  const std::string needle = ToLower(name);
  for (const auto& [key, value] : headers) {
    if (key == needle) return value;
  }
  return {};
}

Status GatewayClient::Connect(const std::string& host, uint16_t port) {
  GMINE_ASSIGN_OR_RETURN(sock_, net::ConnectTcp(host, port));
  return Status::OK();
}

void GatewayClient::Close() { sock_.Close(); }

gmine::Result<std::string> GatewayClient::ReadUntil(
    const std::string& delimiter, int timeout_ms) {
  for (;;) {
    const size_t at = buffer_.find(delimiter);
    if (at != std::string::npos) {
      std::string head = buffer_.substr(0, at);
      buffer_.erase(0, at + delimiter.size());
      return head;
    }
    char chunk[4096];
    GMINE_ASSIGN_OR_RETURN(
        net::ReadResult r,
        sock_.ReadSome(chunk, sizeof(chunk), timeout_ms));
    if (r.timed_out) return Status::IOError("http client: read timeout");
    if (r.eof) return Status::IOError("http client: connection closed");
    buffer_.append(chunk, r.bytes);
  }
}

Status GatewayClient::ReadExact(size_t n, std::string* out,
                                int timeout_ms) {
  while (buffer_.size() < n) {
    char chunk[4096];
    GMINE_ASSIGN_OR_RETURN(
        net::ReadResult r,
        sock_.ReadSome(chunk, sizeof(chunk), timeout_ms));
    if (r.timed_out) return Status::IOError("http client: read timeout");
    if (r.eof) return Status::IOError("http client: connection closed");
    buffer_.append(chunk, r.bytes);
  }
  out->append(buffer_, 0, n);
  buffer_.erase(0, n);
  return Status::OK();
}

gmine::Result<HttpClientResponse> GatewayClient::Request(
    const std::string& method, const std::string& target,
    const std::string& token, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>&
        extra_headers) {
  GMINE_RETURN_IF_ERROR(
      SendRequest(method, target, token, body, extra_headers));
  return ReadResponse();
}

Status GatewayClient::SendRequest(
    const std::string& method, const std::string& target,
    const std::string& token, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>&
        extra_headers) {
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  wire += "Host: localhost\r\n";
  if (!token.empty()) wire += "Authorization: Bearer " + token + "\r\n";
  for (const auto& [name, value] : extra_headers) {
    wire += name + ": " + value + "\r\n";
  }
  if (!body.empty() || method == "POST") {
    wire += StrFormat("Content-Length: %zu\r\n", body.size());
  }
  wire += "\r\n";
  wire += body;
  return sock_.WriteAll(wire);
}

gmine::Result<HttpClientResponse> GatewayClient::ReadResponse(
    int timeout_ms) {
  GMINE_ASSIGN_OR_RETURN(std::string head,
                         ReadUntil("\r\n\r\n", timeout_ms));
  HttpClientResponse response;
  // Status line: HTTP/1.1 NNN reason
  const size_t sp = head.find(' ');
  if (sp == std::string::npos || head.size() < sp + 4) {
    return Status::Corruption("http client: bad status line");
  }
  response.status = std::atoi(head.c_str() + sp + 1);
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    size_t eol = head.find("\r\n", pos + 2);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos + 2, eol - pos - 2);
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      response.headers.emplace_back(
          ToLower(line.substr(0, colon)),
          std::string(TrimWhitespace(
              std::string_view(line).substr(colon + 1))));
    }
    pos = eol;
  }
  const std::string_view length = response.Header("content-length");
  if (!length.empty()) {
    uint64_t n = 0;
    if (!ParseUint64(length, &n)) {
      return Status::Corruption("http client: bad Content-Length");
    }
    GMINE_RETURN_IF_ERROR(
        ReadExact(static_cast<size_t>(n), &response.body, timeout_ms));
  }
  return response;
}

Status GatewayClient::UpgradeWebSocket(const std::string& target,
                                       const std::string& token) {
  // A fixed nonce keeps transcripts deterministic; the server's digest
  // of it is still verified below.
  const std::string key = "dGhlIHNhbXBsZSBub25jZQ==";
  GMINE_ASSIGN_OR_RETURN(
      HttpClientResponse response,
      Request("GET", target, token, "",
              {{"Upgrade", "websocket"},
               {"Connection", "Upgrade"},
               {"Sec-WebSocket-Key", key},
               {"Sec-WebSocket-Version", "13"}}));
  if (response.status != 101) {
    return Status::Aborted(StrFormat("upgrade refused: %d %s",
                                     response.status,
                                     response.body.c_str()));
  }
  if (response.Header("sec-websocket-accept") !=
      WebSocketAcceptKey(key)) {
    return Status::Corruption("bad Sec-WebSocket-Accept digest");
  }
  return Status::OK();
}

Status GatewayClient::SendText(std::string_view payload) {
  return sock_.WriteAll(EncodeWsFrame(WsOpcode::kText, payload,
                                      /*fin=*/true, /*mask=*/true,
                                      ++mask_counter_));
}

Status GatewayClient::SendPing(std::string_view payload) {
  return sock_.WriteAll(EncodeWsFrame(WsOpcode::kPing, payload,
                                      /*fin=*/true, /*mask=*/true,
                                      ++mask_counter_));
}

Status GatewayClient::SendClose(uint16_t code, std::string_view reason) {
  return sock_.WriteAll(
      EncodeWsClose(code, reason, /*mask=*/true, ++mask_counter_));
}

Status GatewayClient::SendRaw(std::string_view data) {
  return sock_.WriteAll(data);
}

gmine::Result<std::string> GatewayClient::ReadRaw(size_t max,
                                                  int timeout_ms) {
  if (!buffer_.empty()) {
    std::string out = buffer_.substr(0, max);
    buffer_.erase(0, out.size());
    return out;
  }
  std::string out(max, '\0');
  GMINE_ASSIGN_OR_RETURN(net::ReadResult r,
                         sock_.ReadSome(out.data(), max, timeout_ms));
  if (r.timed_out) return Status::IOError("raw read timeout");
  out.resize(r.bytes);  // empty on EOF
  return out;
}

gmine::Result<WsMessage> GatewayClient::ReadMessage(int timeout_ms) {
  for (;;) {
    if (!buffer_.empty()) {
      GMINE_RETURN_IF_ERROR(parser_.Feed(buffer_));
      buffer_.clear();
    }
    while (parser_.HasFrame()) {
      GMINE_ASSIGN_OR_RETURN(WsMessageAssembler::Out out,
                             assembler_.OnFrame(parser_.TakeFrame()));
      if (!out.ready) continue;
      WsMessage message;
      message.opcode = out.opcode;
      message.payload = std::move(out.payload);
      return message;
    }
    char chunk[4096];
    GMINE_ASSIGN_OR_RETURN(
        net::ReadResult r,
        sock_.ReadSome(chunk, sizeof(chunk), timeout_ms));
    if (r.timed_out) return Status::IOError("ws client: read timeout");
    if (r.eof) return Status::IOError("ws client: connection closed");
    buffer_.append(chunk, r.bytes);
  }
}

gmine::Result<std::string> GatewayClient::Roundtrip(
    const std::string& op_line, int timeout_ms) {
  GMINE_RETURN_IF_ERROR(SendText(op_line));
  for (;;) {
    GMINE_ASSIGN_OR_RETURN(WsMessage message, ReadMessage(timeout_ms));
    switch (message.opcode) {
      case WsOpcode::kText:
        return std::move(message.payload);
      case WsOpcode::kPing:
        GMINE_RETURN_IF_ERROR(sock_.WriteAll(
            EncodeWsFrame(WsOpcode::kPong, message.payload,
                          /*fin=*/true, /*mask=*/true, ++mask_counter_)));
        continue;
      case WsOpcode::kPong:
        continue;
      case WsOpcode::kClose:
        return Status::Aborted("ws client: server closed");
      default:
        continue;
    }
  }
}

}  // namespace gmine::http
