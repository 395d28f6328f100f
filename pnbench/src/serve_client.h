// A one-connection client for `pnut serve`, and the child process that
// runs the server.
//
// Wire format (src/serve/protocol.h): the server greets with the line
// `pnut-serve 1`; each request is one line; each response is a header
// line `= <code> <outlen> <errlen>` followed by exactly outlen + errlen
// payload bytes (stdout, then stderr).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cli/session.h"

namespace pnbench {

/// Incremental parser for the server's byte stream. Feed bytes as they
/// arrive; take() yields the greeting and then complete frames in order.
class FrameParser {
 public:
  void feed(const char* data, std::size_t n) { buffer_.append(data, n); }
  /// True once the greeting line has been consumed. Throws
  /// std::runtime_error if the first line is not `pnut-serve 1`.
  bool greeted();
  /// Parse one complete frame off the front of the buffer. Returns false
  /// when more bytes are needed; throws std::runtime_error on a malformed
  /// header.
  bool take(pnut::cli::Result& out);

 private:
  std::string buffer_;
  bool greeted_ = false;
};

/// `pnut serve --port 0 --cache-bytes N` as a child process. The destructor
/// stops it (SIGTERM, then SIGKILL after a grace period) and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::string& pnut, std::uint64_t cache_bytes);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] int pid() const { return pid_; }
  /// Wait for the child to exit (after a `.shutdown`), returning its exit
  /// status, or -1 if it had to be killed.
  int wait_exit(double timeout_seconds);

 private:
  int pid_ = -1;
  int port_ = 0;
};

/// One TCP connection: a closed loop of request line -> framed response.
class ServeClient {
 public:
  explicit ServeClient(int port);
  ~ServeClient();
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Send one line (no trailing newline) and wait for its frame.
  pnut::cli::Result call(const std::string& line);
  /// Send a line that gets no frame (`.shutdown`).
  void send_only(const std::string& line);

 private:
  void send_all(const std::string& bytes);
  int fd_ = -1;
  FrameParser parser_;
};

}  // namespace pnbench
