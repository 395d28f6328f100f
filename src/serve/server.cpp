#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <iostream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <thread>

#include "cli/args.h"
#include "serve/protocol.h"

namespace pnut::serve {

namespace {

/// A bidirectional streambuf over a connected socket, so serve_session's
/// istream/ostream loop runs unchanged over TCP. MSG_NOSIGNAL keeps a
/// client that disconnects mid-response from killing the server (the write
/// fails with EPIPE and the session loop ends on the next read).
///
/// Writes are whole-frame: a write larger than the free buffer space
/// flushes the buffer and then sends the caller's bytes directly, so a
/// frame of any size costs O(1) send calls and no extra copy.
class FdBuf : public std::streambuf {
 public:
  explicit FdBuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ssize_t n;
    do {
      n = ::recv(fd_, in_, sizeof(in_), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(*gptr());
  }

  /// Send the buffered bytes, then buffer `ch` unless it is eof. Every
  /// flush comes through here.
  int_type overflow(int_type ch) override {
    if (send_all(pbase(), static_cast<std::size_t>(pptr() - pbase())) != 0) {
      return traits_type::eof();
    }
    setp(out_, out_ + sizeof(out_));
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (n <= epptr() - pptr()) {
      std::memcpy(pptr(), s, static_cast<std::size_t>(n));
      pbump(static_cast<int>(n));
      return n;
    }
    if (sync() != 0 || send_all(s, static_cast<std::size_t>(n)) != 0) return 0;
    return n;
  }

  int sync() override {
    return traits_type::eq_int_type(overflow(traits_type::eof()), traits_type::eof()) ? -1
                                                                                       : 0;
  }

 private:
  /// Send all `size` bytes, resuming after partial writes and EINTR.
  int send_all(const char* p, std::size_t size) {
    const char* const end = p + size;
    while (p < end) {
      const ssize_t n = ::send(fd_, p, static_cast<std::size_t>(end - p), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
      p += n;
    }
    return 0;
  }

  int fd_;
  char in_[4096];
  char out_[4096];
};

}  // namespace

ServeOptions parse_serve_options(const std::vector<std::string>& args) {
  static const cli::FlagSpec kSpec{
      {"port", "cache-bytes", "request-timeout", "max-clients"}, {}, false};
  const cli::Args parsed(args, 1, kSpec);
  if (!parsed.positional().empty()) {
    throw std::invalid_argument("serve takes no positional arguments");
  }
  ServeOptions opts;
  opts.session.cache = true;
  if (parsed.has("port")) {
    const std::uint64_t port = parsed.get_uint64("port", 0);
    if (port > 65535) {
      throw std::invalid_argument("--port must be an integer in [0, 65535]");
    }
    opts.use_tcp = true;
    opts.port = static_cast<int>(port);
  }
  if (parsed.has("cache-bytes")) {
    const auto bytes = cli::parse_byte_size(parsed.get("cache-bytes"));
    if (!bytes) {
      throw std::invalid_argument(
          "--cache-bytes expects a positive byte count with an optional "
          "K/M/G suffix, got '" + parsed.get("cache-bytes") + "'");
    }
    opts.session.graph_cache_budget_bytes = *bytes;
  }
  if (parsed.has("request-timeout")) {
    const double seconds = parsed.get_number("request-timeout", 0);
    if (!std::isfinite(seconds) || seconds < 0) {
      throw std::invalid_argument(
          "--request-timeout must be a finite number of seconds >= 0");
    }
    opts.session.default_timeout_seconds = seconds;
  }
  if (parsed.has("max-clients")) {
    const std::uint64_t n = parsed.get_uint64("max-clients", 64);
    if (n < 1 || n > 100'000) {
      throw std::invalid_argument("--max-clients must be an integer in [1, 100000]");
    }
    opts.max_clients = static_cast<std::size_t>(n);
  }
  return opts;
}

struct Server::Impl {
  Impl(cli::Session& s, std::size_t cap) : session(s), max_clients(cap) {}

  cli::Session& session;
  std::size_t max_clients;
  int listen_fd = -1;
  int port = 0;
  std::thread accept_thread;

  std::mutex mu;
  std::condition_variable cv;
  bool shutdown = false;
  bool stopping = false;
  std::size_t active_clients = 0;
  // Client fds stay registered until stop() so it can shutdown(2) a blocked
  // read; each client thread closes and clears its own slot under the lock,
  // which also keeps stop() from poking a number the kernel has reused.
  std::vector<int> client_fds;
  std::vector<std::thread> client_threads;
  // Slots whose client thread has finished: the accept loop joins these so
  // a long-lived server's thread objects don't accumulate without bound.
  std::vector<std::size_t> finished_slots;

  void accept_loop() {
    while (true) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        // EINTR/ECONNABORTED are per-connection noise; the EMFILE family is
        // resource exhaustion that clears when a client leaves. Neither may
        // kill the loop — an accept loop that exits on a full fd table is a
        // dead server with a live listen socket. Only a shut-down listen
        // socket (stop/drain) ends the loop.
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          continue;
        }
        return;
      }
      // Frames are written whole and must leave at once: with Nagle on, the
      // tail of a frame over one segment would wait for the client's
      // delayed ACK (~40 ms).
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      std::unique_lock<std::mutex> lock(mu);
      if (stopping) {
        ::close(fd);
        return;
      }
      reap_finished_locked();
      if (active_clients >= max_clients) {
        lock.unlock();
        reject_over_capacity(fd);
        continue;
      }
      ++active_clients;
      const std::size_t slot = client_fds.size();
      client_fds.push_back(fd);
      client_threads.emplace_back([this, fd, slot] { client_loop(fd, slot); });
    }
  }

  /// Join client threads that have already left their session loop. Called
  /// under mu; safe because a finished slot's thread never retakes the lock.
  void reap_finished_locked() {
    for (const std::size_t slot : finished_slots) {
      if (client_threads[slot].joinable()) client_threads[slot].join();
    }
    finished_slots.clear();
  }

  /// Over-capacity connection: greet, send one framed code-1 error (so any
  /// protocol-speaking client reads a well-formed refusal, not a hangup),
  /// close.
  void reject_over_capacity(int fd) {
    FdBuf buf(fd);
    std::ostream out(&buf);
    out << kGreeting;
    write_response(out, {1, {},
                         "server at capacity (" + std::to_string(max_clients) +
                             " clients); retry later\n"});
    out.flush();
    ::close(fd);
  }

  void client_loop(int fd, std::size_t slot) {
    FdBuf buf(fd);
    std::istream in(&buf);
    std::ostream out(&buf);
    const bool want_shutdown = serve_session(session, in, out);
    out.flush();
    {
      std::lock_guard<std::mutex> lock(mu);
      ::close(fd);
      client_fds[slot] = -1;
      --active_clients;
      finished_slots.push_back(slot);
      if (want_shutdown) {
        shutdown = true;
        cv.notify_all();
      }
    }
  }
};

Server::Server(cli::Session& session, int port, std::size_t max_clients)
    : impl_(std::make_unique<Impl>(session, max_clients)) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("cannot create socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot bind 127.0.0.1:" + std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  impl_->listen_fd = fd;
  impl_->port = ntohs(addr.sin_port);
}

Server::~Server() { stop(); }

int Server::port() const { return impl_->port; }

void Server::start() {
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->stopping) return;
    impl_->stopping = true;
  }
  ::shutdown(impl_->listen_fd, SHUT_RDWR);  // unblocks accept()
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (const int fd : impl_->client_fds) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);  // unblocks blocked client reads
    }
  }
  for (std::thread& t : impl_->client_threads) {
    if (t.joinable()) t.join();
  }
  ::close(impl_->listen_fd);
}

void Server::drain() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->stopping) return;
    impl_->stopping = true;
  }
  // Cancel in-flight builds first: their commands return structured code-1
  // results, and the client loops below write those as complete frames.
  impl_->session.cancel_inflight();
  ::shutdown(impl_->listen_fd, SHUT_RDWR);  // unblocks accept()
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (const int fd : impl_->client_fds) {
      // Read side only: a blocked read sees EOF and the session loop ends,
      // while a response still being written flushes whole.
      if (fd >= 0) ::shutdown(fd, SHUT_RD);
    }
  }
  for (std::thread& t : impl_->client_threads) {
    if (t.joinable()) t.join();
  }
  ::close(impl_->listen_fd);
}

bool Server::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->shutdown;
}

void Server::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->cv.wait(lock, [this] { return impl_->shutdown; });
}

void Server::request_shutdown() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->shutdown = true;
  impl_->cv.notify_all();
}

int run_serve(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  try {
    const ServeOptions opts = parse_serve_options(args);
    cli::Session session(opts.session);
    if (!opts.use_tcp) {
      serve_session(session, std::cin, out);
      return 0;
    }
    Server server(session, opts.port, opts.max_clients);
    // The announcement line is the contract for scripted drivers: they read
    // the port from here before connecting.
    out << "pnut-serve listening on 127.0.0.1:" << server.port() << '\n';
    out.flush();
    // SIGINT/SIGTERM drive the same graceful drain `.shutdown` does. The
    // signals are blocked (every thread inherits this mask) and consumed
    // synchronously by a watcher thread — no async handler, no
    // signal-safety constraints on the drain path.
    sigset_t drain_signals;
    sigemptyset(&drain_signals);
    sigaddset(&drain_signals, SIGINT);
    sigaddset(&drain_signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &drain_signals, nullptr);
    server.start();
    std::thread watcher([&drain_signals, &server] {
      int sig = 0;
      sigwait(&drain_signals, &sig);
      server.request_shutdown();
    });
    server.wait_for_shutdown();
    server.drain();
    // Wake the watcher if shutdown came from `.shutdown` instead of a
    // signal. The self-signal stays blocked in every thread, so if the
    // watcher already consumed a real signal this one simply remains
    // pending until exit — it is never delivered asynchronously.
    ::kill(::getpid(), SIGTERM);
    watcher.join();
    return 0;
  } catch (const std::invalid_argument& e) {
    err << "pnut serve: " << e.what() << '\n';
    return 2;
  } catch (const std::runtime_error& e) {
    err << "pnut serve: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace pnut::serve
