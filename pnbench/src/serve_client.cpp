#include "serve_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace pnbench {

// --- FrameParser ------------------------------------------------------------

bool FrameParser::greeted() {
  if (greeted_) return true;
  const auto nl = buffer_.find('\n');
  if (nl == std::string::npos) return false;
  if (buffer_.compare(0, nl, "pnut-serve 1") != 0) {
    throw std::runtime_error("unexpected greeting '" + buffer_.substr(0, nl) + "'");
  }
  buffer_.erase(0, nl + 1);
  greeted_ = true;
  return true;
}

bool FrameParser::take(pnut::cli::Result& out) {
  if (!greeted()) return false;
  const auto nl = buffer_.find('\n');
  if (nl == std::string::npos) return false;
  std::istringstream header(buffer_.substr(0, nl));
  char eq = 0;
  long long code = -1, outlen = -1, errlen = -1;
  std::string rest;
  if (!(header >> eq >> code >> outlen >> errlen) || eq != '=' || outlen < 0 || errlen < 0 ||
      (header >> rest)) {
    throw std::runtime_error("malformed frame header '" + buffer_.substr(0, nl) + "'");
  }
  const std::size_t need = nl + 1 + static_cast<std::size_t>(outlen + errlen);
  if (buffer_.size() < need) return false;
  out.code = static_cast<int>(code);
  out.out = buffer_.substr(nl + 1, static_cast<std::size_t>(outlen));
  out.err = buffer_.substr(nl + 1 + static_cast<std::size_t>(outlen),
                           static_cast<std::size_t>(errlen));
  buffer_.erase(0, need);
  return true;
}

// --- ServerProcess ----------------------------------------------------------

ServerProcess::ServerProcess(const std::string& pnut, std::uint64_t cache_bytes) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) throw std::runtime_error("pipe failed");
  const std::string budget = std::to_string(cache_bytes);
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive pnbench
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const char* argv[] = {pnut.c_str(), "serve",       "--port", "0", "--cache-bytes",
                          budget.c_str(), nullptr};
    ::execv(pnut.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  // The announcement line carries the ephemeral port.
  std::string line;
  char c = 0;
  pollfd pfd{out_pipe[0], POLLIN, 0};
  while (line.size() < 256) {
    if (::poll(&pfd, 1, 10000) <= 0) break;
    if (::read(out_pipe[0], &c, 1) != 1 || c == '\n') break;
    line += c;
  }
  ::close(out_pipe[0]);
  const auto colon = line.rfind(':');
  if (line.rfind("pnut-serve listening on ", 0) != 0 || colon == std::string::npos) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    throw std::runtime_error("server did not announce a port: '" + line + "'");
  }
  port_ = std::stoi(line.substr(colon + 1));
}

int ServerProcess::wait_exit(double timeout_seconds) {
  if (pid_ < 0) return -1;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const int r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  return -1;
}

ServerProcess::~ServerProcess() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);
  wait_exit(5.0);
}

// --- ServeClient ------------------------------------------------------------

ServeClient::ServeClient(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) + " failed");
  }
}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

void ServeClient::send_all(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    sent += static_cast<std::size_t>(n);
  }
}

void ServeClient::send_only(const std::string& line) { send_all(line + "\n"); }

pnut::cli::Result ServeClient::call(const std::string& line) {
  send_all(line + "\n");
  pnut::cli::Result result;
  char buf[65536];
  while (!parser_.take(result)) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection closed before a full frame");
    parser_.feed(buf, static_cast<std::size_t>(n));
  }
  return result;
}

}  // namespace pnbench
