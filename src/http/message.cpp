#include "http/message.hpp"

#include "util/buffer.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace clarens::http {

void Headers::add(std::string name, std::string value) {
  items_.emplace_back(std::move(name), std::move(value));
}

void Headers::set(std::string name, std::string value) {
  for (auto& [n, v] : items_) {
    if (util::iequals(n, name)) {
      v = std::move(value);
      return;
    }
  }
  add(std::move(name), std::move(value));
}

const std::string* Headers::find(std::string_view name) const {
  for (const auto& [n, v] : items_) {
    if (util::iequals(n, name)) return &v;
  }
  return nullptr;
}

std::optional<std::string> Headers::get(std::string_view name) const {
  const std::string* v = find(name);
  if (v) return *v;
  return std::nullopt;
}

std::string Headers::get_or(std::string_view name, std::string fallback) const {
  const std::string* v = find(name);
  return v ? *v : std::move(fallback);
}

std::string Request::path() const {
  std::size_t q = target.find('?');
  return url_decode(q == std::string::npos ? target : target.substr(0, q));
}

std::map<std::string, std::string> Request::query() const {
  std::map<std::string, std::string> out;
  std::size_t q = target.find('?');
  if (q == std::string::npos) return out;
  for (const auto& pair : util::split(target.substr(q + 1), '&')) {
    if (pair.empty()) continue;
    std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      out[url_decode(pair)] = "";
    } else {
      out[url_decode(pair.substr(0, eq))] = url_decode(pair.substr(eq + 1));
    }
  }
  return out;
}

bool Request::keep_alive() const {
  const std::string* conn = headers.find("Connection");
  if (version == "HTTP/1.0") {
    return conn && util::iequals(util::trim(*conn), "keep-alive");
  }
  return !(conn && util::iequals(util::trim(*conn), "close"));
}

std::string Request::serialize() const {
  std::string out;
  out.reserve(method.size() + target.size() + version.size() + 64 +
              body.size());
  out.append(method).push_back(' ');
  out.append(target).push_back(' ');
  out.append(version).append("\r\n");
  bool has_length = false;
  for (const auto& [name, value] : headers.all()) {
    out.append(name).append(": ").append(value).append("\r\n");
    if (util::iequals(name, "Content-Length")) has_length = true;
  }
  if (!has_length && (!body.empty() || method == "POST" || method == "PUT")) {
    out.append("Content-Length: ");
    out.append(std::to_string(body.size()));
    out.append("\r\n");
  }
  out.append("\r\n").append(body);
  return out;
}

Response Response::make(int status, std::string body, std::string content_type) {
  Response r;
  r.status = status;
  r.reason = reason_phrase(status);
  r.body = std::move(body);
  r.headers.set("Content-Type", std::move(content_type));
  return r;
}

void Response::serialize_head_into(util::Buffer& out,
                                   std::size_t content_length) const {
  out.write("HTTP/1.1 ");
  util::append_int(out, status);
  out.write_u8(' ');
  out.write(reason.empty() ? std::string_view(reason_phrase(status))
                           : std::string_view(reason));
  out.write("\r\n");
  bool has_length = false;
  for (const auto& [name, value] : headers.all()) {
    out.write(name);
    out.write(": ");
    out.write(value);
    out.write("\r\n");
    if (util::iequals(name, "Content-Length")) has_length = true;
  }
  if (!has_length) {
    out.write("Content-Length: ");
    util::append_uint(out, content_length);
    out.write("\r\n");
  }
  out.write("\r\n");
}

std::string Response::serialize() const {
  util::Buffer out;
  std::string_view b = effective_body();
  serialize_head_into(out, b.size());
  out.write(b);
  return std::string(out.peek_view());
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 206: return "Partial Content";
    case 301: return "Moved Permanently";
    case 302: return "Found";
    case 304: return "Not Modified";
    case 307: return "Temporary Redirect";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '%') {
      if (i + 2 >= s.size()) throw ParseError("truncated %-escape in URL");
      auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        if (h >= 'A' && h <= 'F') return h - 'A' + 10;
        return -1;
      };
      int hi = hex(s[i + 1]);
      int lo = hex(s[i + 2]);
      if (hi < 0 || lo < 0) throw ParseError("invalid %-escape in URL");
      out.push_back(static_cast<char>((hi << 4) | lo));
      i += 2;
    } else if (c == '+') {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string url_encode(std::string_view s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~' ||
        c == '/') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(hex[c >> 4]);
      out.push_back(hex[c & 0xf]);
    }
  }
  return out;
}

}  // namespace clarens::http
