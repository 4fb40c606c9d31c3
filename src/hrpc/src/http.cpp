#include "mpid/hrpc/http.hpp"

#include <charconv>

namespace mpid::hrpc {

namespace {

void write_text(Endpoint& endpoint, std::string_view text) {
  endpoint.write({reinterpret_cast<const std::byte*>(text.data()),
                  text.size()});
}

/// Reads one CRLF- (or LF-) terminated line, without the terminator.
std::string read_line(Endpoint& endpoint) {
  std::string line;
  for (;;) {
    const auto byte = endpoint.read_exactly(1);
    const char c = static_cast<char>(byte[0]);
    if (c == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    line.push_back(c);
    if (line.size() > 64 * 1024) {
      throw std::runtime_error("hrpc: oversized http line");
    }
  }
}

const char* reason_for(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

}  // namespace

// ------------------------------------------------------------- server --

HttpServer::~HttpServer() { shutdown(); }

void HttpServer::add_servlet(const std::string& path, Servlet servlet) {
  add_raw_servlet(path,
                  [servlet = std::move(servlet)](std::string_view query) {
                    HttpResponse response;
                    response.body = servlet(query);
                    return response;
                  });
}

void HttpServer::add_raw_servlet(const std::string& path, RawServlet servlet) {
  std::lock_guard lock(mu_);
  servlets_[path] = std::move(servlet);
}

void HttpServer::accept(Endpoint endpoint) {
  std::lock_guard lock(mu_);
  if (down_) throw std::logic_error("hrpc: accept after shutdown");
  connections_.push_back(std::make_unique<Endpoint>(std::move(endpoint)));
  const std::size_t index = connections_.size() - 1;
  service_threads_.emplace_back([this, index] { serve(index); });
}

void HttpServer::shutdown() {
  {
    std::lock_guard lock(mu_);
    if (down_) return;
    down_ = true;
    for (auto& connection : connections_) connection->close();
  }
  for (auto& thread : service_threads_) thread.join();
  service_threads_.clear();
}

std::uint64_t HttpServer::requests_served() const {
  std::lock_guard lock(mu_);
  return requests_served_;
}

HttpResponse HttpServer::handle(const std::string& request_line) {
  // "GET <target> HTTP/1.x"
  const auto first_space = request_line.find(' ');
  const auto second_space = request_line.find(' ', first_space + 1);
  if (first_space == std::string::npos || second_space == std::string::npos ||
      request_line.substr(0, first_space) != "GET") {
    return {400, "bad request line", {}};
  }
  const std::string target =
      request_line.substr(first_space + 1, second_space - first_space - 1);
  const auto question = target.find('?');
  const std::string path = target.substr(0, question);
  const std::string query =
      question == std::string::npos ? "" : target.substr(question + 1);

  RawServlet servlet;
  {
    std::lock_guard lock(mu_);
    const auto it = servlets_.find(path);
    if (it == servlets_.end()) return {404, "no servlet at " + path, {}};
    servlet = it->second;
  }
  try {
    HttpResponse response = servlet(query);
    std::lock_guard lock(mu_);
    ++requests_served_;
    return response;
  } catch (const std::exception& e) {
    return {500, e.what(), {}};
  }
}

void HttpServer::serve(std::size_t connection_index) {
  Endpoint* endpoint;
  {
    std::lock_guard lock(mu_);
    endpoint = connections_[connection_index].get();
  }
  try {
    for (;;) {
      const auto request_line = read_line(*endpoint);
      // Drain headers until the blank line.
      while (!read_line(*endpoint).empty()) {
      }
      const auto response = handle(request_line);
      std::string head = "HTTP/1.0 " + std::to_string(response.status) + " " +
                         reason_for(response.status) +
                         "\r\nContent-Length: " +
                         std::to_string(response.body.size()) + "\r\n";
      for (const auto& [name, value] : response.headers) {
        head += name + ": " + value + "\r\n";
      }
      head += "\r\n";
      write_text(*endpoint, head);
      write_text(*endpoint, response.body);
    }
  } catch (const std::exception&) {
    // Connection closed.
  }
}

// ------------------------------------------------------------- client --

HttpClient::HttpClient(HttpServer& server, HttpClientOptions options)
    : server_(&server), options_(options) {
  std::lock_guard lock(mu_);
  reconnect();
}

HttpClient::~HttpClient() { close(); }

void HttpClient::close() {
  std::lock_guard lock(mu_);
  if (closed_) return;
  closed_ = true;
  if (endpoint_) endpoint_->close();
}

void HttpClient::reconnect() {
  if (endpoint_) endpoint_->close();
  auto [client_side, server_side] = make_connection();
  client_side.set_read_timeout(options_.read_timeout);
  endpoint_ = std::make_unique<Endpoint>(std::move(client_side));
  server_->accept(std::move(server_side));
}

HttpResponse HttpClient::get(const std::string& target) {
  std::lock_guard lock(mu_);
  for (int attempt = 0;; ++attempt) {
    if (closed_) throw std::runtime_error("hrpc: http client closed");
    try {
      write_text(*endpoint_, "GET " + target + " HTTP/1.0\r\n\r\n");

      const auto status_line = read_line(*endpoint_);
      // "HTTP/1.0 <code> <reason>"
      const auto first_space = status_line.find(' ');
      if (first_space == std::string::npos) {
        throw std::runtime_error("hrpc: bad http status line");
      }
      int status = 0;
      std::from_chars(status_line.data() + first_space + 1,
                      status_line.data() + status_line.size(), status);

      std::size_t content_length = 0;
      HttpResponse response;
      for (;;) {
        const auto header = read_line(*endpoint_);
        if (header.empty()) break;
        constexpr std::string_view kContentLength = "Content-Length: ";
        if (header.starts_with(kContentLength)) {
          content_length = std::stoull(header.substr(kContentLength.size()));
        } else if (const auto colon = header.find(": ");
                   colon != std::string::npos) {
          response.headers.emplace_back(header.substr(0, colon),
                                        header.substr(colon + 2));
        }
      }
      const auto body_bytes = endpoint_->read_exactly(content_length);
      response.status = status;
      response.body.assign(reinterpret_cast<const char*>(body_bytes.data()),
                           body_bytes.size());
      return response;
    } catch (const std::exception&) {
      // Timeout, EOF or a dead connection: reconnect and re-issue (GETs
      // are idempotent) until the retry budget is spent.
      if (attempt >= options_.max_retries) throw;
      std::this_thread::sleep_for(options_.retry_backoff * (1LL << attempt));
      reconnect();
    }
  }
}

}  // namespace mpid::hrpc
