// Tests for the pnut analysis service (src/serve + the caching Session).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "cli/session.h"
#include "pipeline/model.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "textio/pn_format.h"

namespace pnut::serve {
namespace {

constexpr const char* kModelPn = R"(
net demo
place Bus_free init 1
place Bus_busy
place Jobs init 2
place Done
trans start in Bus_free, Jobs out Bus_busy
trans finish in Bus_busy out Bus_free, Done enabling 5
trans recycle in Done out Jobs enabling 3
)";

constexpr const char* kQuery = "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]";

// gtest's ASSERT_* cannot return a value; this variant can.
#define ASSERT_EQ_RET(a, b, ret) \
  do {                           \
    EXPECT_EQ(a, b);             \
    if ((a) != (b)) return ret;  \
  } while (0)

/// One framed response as parsed off the wire.
struct Framed {
  int code;
  std::string out;
  std::string err;
};

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pnut_serve_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    model_path_ = write_model("model.pn", kModelPn);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_model(const std::string& name, const std::string& text) {
    const std::string path = (dir_ / name).string();
    std::ofstream(path) << text;
    return path;
  }

  /// A token ring model; `places` scales the graph size, distinct names
  /// make distinct cache keys.
  std::string write_ring(const std::string& name, int places, int tokens) {
    std::ostringstream text;
    text << "net " << name << '\n';
    for (int i = 0; i < places; ++i) {
      text << "place P" << i << (i == 0 ? " init " + std::to_string(tokens) : "")
           << '\n';
    }
    for (int i = 0; i < places; ++i) {
      text << "trans t" << i << " in P" << i << " out P" << (i + 1) % places << '\n';
    }
    return write_model(name + ".pn", text.str());
  }

  /// Parse every framed response in a serve transcript (after the greeting).
  static std::vector<Framed> parse_responses(const std::string& transcript) {
    std::vector<Framed> responses;
    std::size_t pos = 0;
    EXPECT_EQ(transcript.rfind(kGreeting, 0), 0U) << "missing greeting";
    if (transcript.rfind(kGreeting, 0) == 0) pos = std::strlen(kGreeting);
    while (pos < transcript.size()) {
      ASSERT_EQ_RET(transcript.compare(pos, 2, "= "), 0, responses);
      const std::size_t eol = transcript.find('\n', pos);
      std::istringstream header(transcript.substr(pos + 2, eol - pos - 2));
      int code = 0;
      std::size_t outlen = 0;
      std::size_t errlen = 0;
      header >> code >> outlen >> errlen;
      Framed f;
      f.code = code;
      f.out = transcript.substr(eol + 1, outlen);
      f.err = transcript.substr(eol + 1 + outlen, errlen);
      responses.push_back(std::move(f));
      pos = eol + 1 + outlen + errlen;
    }
    return responses;
  }

  /// Run one scripted client session over an in-process (cache-on) Session.
  static std::vector<Framed> serve_script(cli::Session& session,
                                          const std::string& script) {
    std::istringstream in(script);
    std::ostringstream out;
    serve_session(session, in, out);
    return parse_responses(out.str());
  }

  /// Quote one argv token for the request line.
  static std::string quote(const std::string& token) {
    std::string quoted = "\"";
    for (const char c : token) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return quoted + '"';
  }

  static std::string to_line(const std::vector<std::string>& argv) {
    std::string line;
    for (const auto& token : argv) {
      if (!line.empty()) line += ' ';
      line += quote(token);
    }
    return line + '\n';
  }

  /// Send `script` to a loopback server over one TCP connection, half-close,
  /// and return everything the server wrote back.
  static std::string tcp_transcript(int port, const std::string& script) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::send(fd, script.data(), script.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(script.size()));
    ::shutdown(fd, SHUT_WR);
    std::string transcript;
    char buffer[4096];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
      transcript.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return transcript;
  }

  /// The one-shot CLI, for differential comparison.
  static Framed run_direct(const std::vector<std::string>& argv) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = cli::run(argv, out, err);
    return Framed{code, out.str(), err.str()};
  }

  std::filesystem::path dir_;
  std::string model_path_;
};

TEST_F(ServeTest, TokenizerSplitsQuotesAndEscapes) {
  std::string error;
  auto tokens = tokenize("query --reach m.pn \"a b\" plain", error);
  ASSERT_TRUE(tokens.has_value()) << error;
  EXPECT_EQ(*tokens, (std::vector<std::string>{"query", "--reach", "m.pn", "a b",
                                               "plain"}));

  tokens = tokenize("a \"x \\\" y\" \"z\\\\\"", error);
  ASSERT_TRUE(tokens.has_value()) << error;
  EXPECT_EQ(*tokens, (std::vector<std::string>{"a", "x \" y", "z\\"}));

  tokens = tokenize("  \t  ", error);
  ASSERT_TRUE(tokens.has_value());
  EXPECT_TRUE(tokens->empty());

  tokens = tokenize("a \"\" b", error);
  ASSERT_TRUE(tokens.has_value());
  EXPECT_EQ(*tokens, (std::vector<std::string>{"a", "", "b"}));

  EXPECT_FALSE(tokenize("a \"unterminated", error).has_value());
  EXPECT_EQ(error, "unterminated quote");
  EXPECT_FALSE(tokenize("trailing\\", error).has_value());
  EXPECT_EQ(error, "trailing backslash");
}

TEST_F(ServeTest, ProtocolFramingAndControlLines) {
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  const auto responses = serve_script(
      session, to_line({"validate", model_path_}) + "\n" +  // blank line skipped
                   ".stats\n.nonsense\n\"unterminated\n.quit\n" +
                   to_line({"validate", model_path_}));  // after .quit: unread
  ASSERT_EQ(responses.size(), 4U);
  EXPECT_EQ(responses[0].code, 0);
  EXPECT_NE(responses[0].out.find("4 places"), std::string::npos);
  EXPECT_EQ(responses[1].code, 0);
  EXPECT_NE(responses[1].out.find("graph cache:"), std::string::npos);
  EXPECT_EQ(responses[2].code, 2);
  EXPECT_NE(responses[2].err.find("unknown control line"), std::string::npos);
  EXPECT_EQ(responses[3].code, 2);
  EXPECT_NE(responses[3].err.find("unterminated quote"), std::string::npos);
}

TEST_F(ServeTest, ServedMatchesDirectForEveryCommand) {
  // The acceptance bar: for every command the served bytes equal the
  // one-shot CLI's, stdout and stderr and exit code alike — including
  // usage errors and a query whose verdict is "fails" (code 1).
  const std::string trace_path = (dir_ / "run.trace").string();
  ASSERT_EQ(run_direct({"simulate", model_path_, "--until", "200", "--seed", "7",
                        "--trace", trace_path})
                .code,
            0);
  // check has a clean path, a compile-diagnostic path (exit 1) and a
  // parse-diagnostic path (line-mapped caret) — all must serve identically.
  const std::string scripted_path =
      write_model("scripted.pn",
                  "net scripted\n"
                  "fn \"twice(v) { return v + v; }\"\n"
                  "param base 3\n"
                  "var total 0\n"
                  "place P init 1\n"
                  "trans t in P out P do \"total = twice(base)\" firing 1\n");
  const std::string arity_path =
      write_model("arity.pn",
                  "net arity\nplace P init 1\ntrans t in P out P do \"x = irand[1]\"\n");
  const std::string bad_expr_path =
      write_model("bad_expr.pn",
                  "net bad\nplace P init 1\ntrans t in P out P\n      do \"x = +\"\n");
  const std::vector<std::vector<std::string>> invocations = {
      {"validate", model_path_},
      {"check", model_path_},
      {"check", scripted_path},
      {"check", arity_path},
      {"check", bad_expr_path},
      {"check", (dir_ / "absent.pn").string()},
      {"print", model_path_},
      {"simulate", model_path_, "--until", "300", "--seed", "5"},
      {"replicate", model_path_, "--replications", "3", "--horizon", "200"},
      {"stat", trace_path},
      {"query", trace_path, "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]"},
      {"query", "--reach", model_path_, kQuery},
      {"query", "--reach", model_path_, "forall s in S [ Bus_busy(s) = 1 ]"},
      {"render", trace_path, "--signals", "Bus_busy,Done,load=Bus_busy+Jobs",
       "--columns", "40", "--marker", "O=20"},
      {"animate", trace_path, "--steps", "3"},
      {"analyze", model_path_},
      {"analyze", model_path_, "--threads", "2"},
      {"help"},
      {"frobnicate"},
      {"simulate", model_path_, "--seed", "1.5"},
      {"validate", (dir_ / "absent.pn").string()},
  };
  std::string script;
  for (const auto& argv : invocations) script += to_line(argv);
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  // Twice: the second pass answers from warm caches and must not change a byte.
  for (int pass = 0; pass < 2; ++pass) {
    const auto served = serve_script(session, script);
    ASSERT_EQ(served.size(), invocations.size()) << "pass " << pass;
    for (std::size_t i = 0; i < invocations.size(); ++i) {
      const Framed direct = run_direct(invocations[i]);
      EXPECT_EQ(served[i].code, direct.code) << "pass " << pass << ": "
                                             << to_line(invocations[i]);
      EXPECT_EQ(served[i].out, direct.out) << "pass " << pass << ": "
                                           << to_line(invocations[i]);
      EXPECT_EQ(served[i].err, direct.err) << "pass " << pass << ": "
                                           << to_line(invocations[i]);
    }
  }
  const auto stats = session.stats();
  EXPECT_GT(stats.compile_hits, 0U);
  EXPECT_GT(stats.graph_hits, 0U);
}

TEST_F(ServeTest, CacheHitMissAccounting) {
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  const cli::Request query{"query", {"--reach", model_path_, kQuery}};

  EXPECT_EQ(session.execute(query).code, 0);
  auto stats = session.stats();
  EXPECT_EQ(stats.compile_misses, 1U);
  EXPECT_EQ(stats.compile_hits, 0U);
  EXPECT_EQ(stats.graph_misses, 1U);
  EXPECT_EQ(stats.graph_hits, 0U);
  EXPECT_EQ(stats.graph_cache_entries, 1U);
  EXPECT_GT(stats.graph_cache_bytes, 0U);

  // The cached graph answers without re-running exploration.
  EXPECT_EQ(session.execute(query).code, 0);
  stats = session.stats();
  EXPECT_EQ(stats.compile_hits, 1U);
  EXPECT_EQ(stats.graph_misses, 1U);
  EXPECT_EQ(stats.graph_hits, 1U);

  // Different options — different graph, new miss.
  EXPECT_EQ(
      session.execute({"query", {"--reach", model_path_, kQuery, "--max-states",
                                 "50000"}})
          .code,
      0);
  stats = session.stats();
  EXPECT_EQ(stats.graph_misses, 2U);
  EXPECT_EQ(stats.graph_cache_entries, 2U);

  // Same content through a different path is a compile-cache hit (the
  // third query above already hit too — one entry, one miss ever).
  const std::string copy_path = write_model("copy.pn", kModelPn);
  EXPECT_EQ(session.execute({"validate", {copy_path}}).code, 0);
  stats = session.stats();
  EXPECT_EQ(stats.compile_hits, 3U);
  EXPECT_EQ(stats.compile_misses, 1U);
  EXPECT_EQ(stats.compile_cache_entries, 1U);

  // analyze builds both graph kinds; its reach options (max-states default
  // 100000) differ from query's, so: two more misses, then two hits.
  EXPECT_EQ(session.execute({"analyze", {model_path_}}).code, 0);
  stats = session.stats();
  EXPECT_EQ(stats.graph_misses, 4U);
  EXPECT_EQ(session.execute({"analyze", {model_path_}}).code, 0);
  stats = session.stats();
  EXPECT_EQ(stats.graph_misses, 4U);
  EXPECT_EQ(stats.graph_hits, 3U);

  // Spill requests bypass the graph cache (remapping reads are neither
  // resident nor concurrent-reader-safe).
  EXPECT_EQ(session.execute({"query", {"--reach", model_path_, kQuery,
                                       "--max-resident-bytes", "1K"}})
                .code,
            0);
  stats = session.stats();
  EXPECT_EQ(stats.graph_misses, 4U);
  EXPECT_EQ(stats.graph_hits, 3U);
}

TEST_F(ServeTest, GraphsAreCachedAcrossThreadCounts) {
  // Both graphs have one builder, so --threads keys neither: an analyze at
  // 4 threads is served both graphs from cache and prints the same bytes.
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  const cli::Result first = session.execute({"analyze", {model_path_}});
  ASSERT_EQ(first.code, 0) << first.err;
  auto stats = session.stats();
  EXPECT_EQ(stats.graph_misses, 2U);
  EXPECT_EQ(stats.graph_hits, 0U);

  const cli::Result threaded = session.execute({"analyze", {model_path_, "--threads", "4"}});
  ASSERT_EQ(threaded.code, 0) << threaded.err;
  stats = session.stats();
  EXPECT_EQ(stats.graph_misses, 2U);
  EXPECT_EQ(stats.graph_hits, 2U);
  EXPECT_EQ(stats.graph_cache_entries, 2U);
  EXPECT_EQ(threaded.out, first.out);
}

TEST_F(ServeTest, EvictionIsByteBudgetedAndLeastRecentlyUsedFirst) {
  // Learn one ring graph's exact footprint, then budget for two.
  const std::string ring_a = write_ring("ring_a", 6, 4);
  const std::string ring_b = write_ring("ring_b", 6, 4);
  const std::string ring_c = write_ring("ring_c", 6, 4);
  const std::string ring_query = "exists s in S [ P0(s) = 0 ]";
  std::size_t one_graph_bytes = 0;
  {
    cli::SessionOptions options;
    options.cache = true;
    cli::Session probe(options);
    ASSERT_EQ(probe.execute({"query", {"--reach", ring_a, ring_query}}).code, 0);
    one_graph_bytes = probe.stats().graph_cache_bytes;
    ASSERT_GT(one_graph_bytes, 0U);
  }

  cli::SessionOptions options;
  options.cache = true;
  options.graph_cache_budget_bytes = 2 * one_graph_bytes + one_graph_bytes / 2;
  cli::Session session(options);
  const auto query_of = [&](const std::string& model) {
    return cli::Request{"query", {"--reach", model, ring_query}};
  };
  ASSERT_EQ(session.execute(query_of(ring_a)).code, 0);
  ASSERT_EQ(session.execute(query_of(ring_b)).code, 0);
  auto stats = session.stats();
  EXPECT_EQ(stats.graph_cache_entries, 2U);
  EXPECT_EQ(stats.graph_evictions, 0U);
  EXPECT_LE(stats.graph_cache_bytes, options.graph_cache_budget_bytes);

  // Touch A so B is the least recently used, then add C: B must go.
  ASSERT_EQ(session.execute(query_of(ring_a)).code, 0);
  ASSERT_EQ(session.execute(query_of(ring_c)).code, 0);
  stats = session.stats();
  EXPECT_EQ(stats.graph_evictions, 1U);
  EXPECT_EQ(stats.graph_cache_entries, 2U);
  EXPECT_LE(stats.graph_cache_bytes, options.graph_cache_budget_bytes);

  // A and C answer from cache; B re-explores.
  ASSERT_EQ(session.execute(query_of(ring_a)).code, 0);
  ASSERT_EQ(session.execute(query_of(ring_c)).code, 0);
  EXPECT_EQ(session.stats().graph_misses, 3U);
  ASSERT_EQ(session.execute(query_of(ring_b)).code, 0);
  stats = session.stats();
  EXPECT_EQ(stats.graph_misses, 4U);
  EXPECT_EQ(stats.graph_evictions, 2U);  // B's return evicted A (oldest)

  // An entry alone over the budget is served but not retained.
  cli::SessionOptions tiny;
  tiny.cache = true;
  tiny.graph_cache_budget_bytes = 1;
  cli::Session tiny_session(tiny);
  EXPECT_EQ(tiny_session.execute(query_of(ring_a)).code, 0);
  stats = tiny_session.stats();
  EXPECT_EQ(stats.graph_cache_entries, 0U);
  EXPECT_EQ(stats.graph_cache_bytes, 0U);
  EXPECT_EQ(stats.graph_evictions, 1U);
}

TEST_F(ServeTest, UntimedAndTimedGraphsShareOneLeastRecentlyUsedOrder) {
  // One analyze caches an untimed and a timed graph; two query --reach
  // requests cache one untimed graph each. All four compete for one budget
  // and are evicted oldest first, whatever their kind.
  const std::string ring_a = write_ring("ring_a", 6, 4);
  const std::string ring_y = write_ring("ring_y", 6, 4);
  const std::string ring_z = write_ring("ring_z", 6, 4);
  const std::string ring_query = "exists s in S [ P0(s) = 0 ]";
  const auto query_of = [&](const std::string& model) {
    return cli::Request{"query", {"--reach", model, ring_query}};
  };
  // analyze explores at --max-states 100000, so this query shares its
  // untimed graph.
  const cli::Request query_a{"query", {"--reach", ring_a, ring_query, "--max-states", "100000"}};
  const cli::Request analyze_a{"analyze", {ring_a}};

  cli::SessionOptions options;
  options.cache = true;
  std::size_t reach_a = 0;
  std::size_t timed_a = 0;
  std::size_t reach_y = 0;
  std::size_t reach_z = 0;
  {
    cli::Session probe(options);
    ASSERT_EQ(probe.execute(query_a).code, 0);
    reach_a = probe.stats().graph_cache_bytes;
    ASSERT_EQ(probe.execute(analyze_a).code, 0);
    timed_a = probe.stats().graph_cache_bytes - reach_a;
    ASSERT_EQ(probe.execute(query_of(ring_y)).code, 0);
    reach_y = probe.stats().graph_cache_bytes - reach_a - timed_a;
    ASSERT_EQ(probe.execute(query_of(ring_z)).code, 0);
    reach_z = probe.stats().graph_cache_bytes - reach_a - timed_a - reach_y;
    ASSERT_EQ(probe.stats().graph_cache_entries, 4U);
  }
  ASSERT_GT(reach_a, 0U);
  ASSERT_GT(timed_a, 0U);
  ASSERT_GT(reach_y, 0U);
  ASSERT_GT(reach_z, 0U);

  // All four need one byte more than the budget: each miss evicts exactly
  // the least recently used entry.
  options.graph_cache_budget_bytes = reach_a + timed_a + reach_y + reach_z - 1;
  cli::Session session(options);
  const cli::Result first = session.execute(analyze_a);  // reach A, timed A
  ASSERT_EQ(first.code, 0) << first.err;
  ASSERT_EQ(session.execute(query_of(ring_y)).code, 0);  // reach Y
  ASSERT_EQ(session.execute(query_a).code, 0);           // reach A hit
  auto stats = session.stats();
  EXPECT_EQ(stats.graph_misses, 3U);
  EXPECT_EQ(stats.graph_hits, 1U);
  EXPECT_EQ(stats.graph_evictions, 0U);
  EXPECT_EQ(stats.graph_cache_entries, 3U);

  // Oldest is timed A (reach A was touched after it): the timed graph goes.
  ASSERT_EQ(session.execute(query_of(ring_z)).code, 0);
  stats = session.stats();
  EXPECT_EQ(stats.graph_misses, 4U);
  EXPECT_EQ(stats.graph_evictions, 1U);
  EXPECT_EQ(stats.graph_cache_entries, 3U);
  EXPECT_EQ(stats.graph_cache_bytes, reach_a + reach_y + reach_z);

  // analyze A again: reach A hits, timed A is rebuilt, and the oldest
  // entry left, reach Y, goes to make room for it.
  const cli::Result again = session.execute(analyze_a);
  ASSERT_EQ(again.code, 0) << again.err;
  EXPECT_EQ(again.out, first.out);
  stats = session.stats();
  EXPECT_EQ(stats.graph_hits, 2U);
  EXPECT_EQ(stats.graph_misses, 5U);
  EXPECT_EQ(stats.graph_evictions, 2U);
  EXPECT_EQ(stats.graph_cache_entries, 3U);
  EXPECT_EQ(stats.graph_cache_bytes, reach_a + timed_a + reach_z);

  // Y was the victim (a miss that evicts Z, now the oldest); A's untimed
  // graph goes before its timed graph, which analyze touched last.
  ASSERT_EQ(session.execute(query_of(ring_y)).code, 0);
  ASSERT_EQ(session.execute(query_of(ring_z)).code, 0);
  stats = session.stats();
  EXPECT_EQ(stats.graph_hits, 2U);
  EXPECT_EQ(stats.graph_misses, 7U);
  EXPECT_EQ(stats.graph_evictions, 4U);
  EXPECT_EQ(stats.graph_cache_entries, 3U);
  EXPECT_EQ(stats.graph_cache_bytes, timed_a + reach_y + reach_z);

  // analyze A misses both: rebuilding reach A evicts timed A, now the
  // oldest, before analyze looks it up; rebuilding timed A then evicts Y.
  ASSERT_EQ(session.execute(analyze_a).code, 0);
  stats = session.stats();
  EXPECT_EQ(stats.graph_hits, 2U);
  EXPECT_EQ(stats.graph_misses, 9U);
  EXPECT_EQ(stats.graph_evictions, 6U);
  EXPECT_EQ(stats.graph_cache_entries, 3U);
  EXPECT_EQ(stats.graph_cache_bytes, reach_a + timed_a + reach_z);
}

TEST_F(ServeTest, ConcurrentClientsShareOneCachedGraph) {
  // The TSan target: many client sessions hammering one Session, every
  // query answered off one shared sealed graph. Exactly one exploration
  // may run (the build publishes through a shared_future). Beside the scan,
  // a temporal fixpoint and a set-builder filter evaluate their own loops'
  // blocks on the shared graph.
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  const std::vector<std::string> queries = {
      kQuery, "forall s in {v in S | Bus_busy(v) = 1} [ inev(s, Bus_free(C) = 1) ]",
      "exists s in {v in S | Jobs(v) < 2} [ Done(s) > 0 ]"};
  std::vector<Framed> expect;
  for (const std::string& query : queries) {
    expect.push_back(run_direct({"query", "--reach", model_path_, query}));
    EXPECT_EQ(expect.back().code, 0) << query << ": " << expect.back().err;
  }
  constexpr int kThreads = 8;
  constexpr int kRequests = 10;
  const std::size_t per_client = kRequests * queries.size();
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kThreads, 0);
  const std::string script = [&] {
    std::string s;
    for (int i = 0; i < kRequests; ++i) {
      for (const std::string& query : queries) {
        s += to_line({"query", "--reach", model_path_, query});
      }
    }
    return s;
  }();
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::istringstream in(script);
      std::ostringstream out;
      serve_session(session, in, out);
      const auto responses = parse_responses(out.str());
      if (responses.size() != per_client) {
        mismatches[t] = static_cast<int>(per_client);
        return;
      }
      for (std::size_t i = 0; i < responses.size(); ++i) {
        const Framed& r = responses[i];
        const Framed& e = expect[i % queries.size()];
        if (r.code != e.code || r.out != e.out || r.err != e.err) ++mismatches[t];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "client " << t;
  const auto stats = session.stats();
  EXPECT_EQ(stats.graph_misses, 1U);
  EXPECT_EQ(stats.graph_hits, static_cast<std::uint64_t>(kThreads) * per_client - 1);
}

TEST_F(ServeTest, TcpServerServesScriptedSessionEndToEnd) {
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  Server server(session, 0);
  ASSERT_GT(server.port(), 0);
  server.start();

  const auto client_transcript = [&](const std::string& script) {
    return tcp_transcript(server.port(), script);
  };

  const Framed direct = run_direct({"query", "--reach", model_path_, kQuery});
  const auto first = parse_responses(
      client_transcript(to_line({"query", "--reach", model_path_, kQuery})));
  ASSERT_EQ(first.size(), 1U);
  EXPECT_EQ(first[0].code, direct.code);
  EXPECT_EQ(first[0].out, direct.out);

  // A second connection hits the graph the first one built.
  const auto second = parse_responses(client_transcript(
      to_line({"query", "--reach", model_path_, kQuery}) + ".stats\n"));
  ASSERT_EQ(second.size(), 2U);
  EXPECT_EQ(second[0].out, direct.out);
  EXPECT_NE(second[1].out.find("graph cache: 1 hits, 1 misses"),
            std::string::npos)
      << second[1].out;

  // .shutdown stops the whole server.
  client_transcript(".shutdown\n");
  server.wait_for_shutdown();
  server.stop();
  EXPECT_TRUE(server.shutdown_requested());
}

TEST_F(ServeTest, RunServeAnswersOneCachedSessionOverStdin) {
  // `pnut serve` without --port: one caching session over stdin/stdout,
  // ending at end of input with exit code 0.
  const std::vector<std::string> query = {"query", "--reach", model_path_, kQuery};
  std::istringstream in(to_line(query) + to_line(query) + ".stats\n");
  std::ostringstream out;
  std::ostringstream err;
  std::streambuf* const saved = std::cin.rdbuf(in.rdbuf());
  const int code = run_serve({"serve", "--cache-bytes", "64M"}, out, err);
  std::cin.rdbuf(saved);
  EXPECT_EQ(code, 0);
  EXPECT_EQ(err.str(), "");
  const auto responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 3U);
  const Framed direct = run_direct(query);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(responses[i].code, direct.code);
    EXPECT_EQ(responses[i].out, direct.out);
    EXPECT_EQ(responses[i].err, direct.err);
  }
  EXPECT_NE(responses[2].out.find("graph cache: 1 hits, 1 misses, 0 evictions, 1 entries"),
            std::string::npos)
      << responses[2].out;
}

TEST_F(ServeTest, RunServeReportsUsageErrorsAndBindFailures) {
  const auto run = [](const std::vector<std::string>& args) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = run_serve(args, out, err);
    return Framed{code, out.str(), err.str()};
  };
  const Framed positional = run({"serve", "extra"});
  EXPECT_EQ(positional.code, 2);
  EXPECT_EQ(positional.out, "");
  EXPECT_EQ(positional.err, "pnut serve: serve takes no positional arguments\n");
  const Framed bad_port = run({"serve", "--port", "65536"});
  EXPECT_EQ(bad_port.code, 2);
  EXPECT_EQ(bad_port.err, "pnut serve: --port must be an integer in [0, 65535]\n");

  // A port another socket is listening on cannot be bound: code 1, before
  // anything is announced.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::string port = std::to_string(ntohs(addr.sin_port));
  const Framed taken = run({"serve", "--port", port});
  ::close(fd);
  EXPECT_EQ(taken.code, 1);
  EXPECT_EQ(taken.out, "");
  EXPECT_EQ(taken.err, "pnut serve: cannot bind 127.0.0.1:" + port + "\n");
}

TEST_F(ServeTest, OversizedRequestLineIsRejectedAndSessionSurvives) {
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  // One line over the cap, then a normal request: the oversized line gets a
  // framed usage error (nothing buffered without bound, nothing executed)
  // and the session keeps serving.
  const std::string huge(kMaxRequestLine + 512, 'x');
  const auto responses = serve_script(
      session, huge + "\n" + to_line({"validate", model_path_}));
  ASSERT_EQ(responses.size(), 2U);
  EXPECT_EQ(responses[0].code, 2);
  EXPECT_NE(responses[0].err.find("request line exceeds"), std::string::npos)
      << responses[0].err;
  EXPECT_EQ(responses[1].code, 0);
  EXPECT_NE(responses[1].out.find("4 places"), std::string::npos);
  // A line of exactly the cap is still served (boundary: not oversized).
  std::string exact = to_line({"validate", model_path_});
  exact.insert(exact.size() - 1, std::string(kMaxRequestLine - exact.size() + 1, ' '));
  const auto boundary = serve_script(session, exact);
  ASSERT_EQ(boundary.size(), 1U);
  EXPECT_EQ(boundary[0].code, 0);
}

TEST_F(ServeTest, DeeplyNestedQueryIsAUsageErrorAndConnectionSurvives) {
  // A 60 KB query of nested parentheses — under the request-line cap — used
  // to overflow the stack and kill the whole server. Now the query parser's
  // nesting budget answers it with a framed usage error, and the next
  // request on the same connection is served.
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  Server server(session, 0);
  ASSERT_GT(server.port(), 0);
  server.start();

  const std::string query =
      "forall s in S [ " + std::string(30000, '(') + "true" + std::string(30000, ')') + " ]";
  const std::string line = to_line({"query", "--reach", model_path_, query});
  ASSERT_GT(line.size(), 60000U);
  ASSERT_LT(line.size(), kMaxRequestLine);
  const auto responses = parse_responses(tcp_transcript(
      server.port(), line + to_line({"query", "--reach", model_path_, kQuery})));
  ASSERT_EQ(responses.size(), 2U);
  EXPECT_EQ(responses[0].code, 2);
  EXPECT_EQ(responses[0].err, "pnut query: query nested more than 256 levels deep\n");
  EXPECT_EQ(responses[1].code, 0);
  EXPECT_EQ(responses[1].out, run_direct({"query", "--reach", model_path_, kQuery}).out);

  tcp_transcript(server.port(), ".shutdown\n");
  server.wait_for_shutdown();
  server.stop();
}

TEST_F(ServeTest, QueryDivisionOverflowIsAnErrorAndConnectionSurvives) {
  // INT64_MIN / -1 in a query used to raise SIGFPE and kill the server.
  // Now it is a framed evaluation error, and the next request on the same
  // connection is served.
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  Server server(session, 0);
  ASSERT_GT(server.port(), 0);
  server.start();

  const std::string line =
      to_line({"query", "--reach", model_path_,
               "exists s in S [ (0-9223372036854775807-1) / (0-1) == 0 ]"});
  const auto responses = parse_responses(tcp_transcript(
      server.port(), line + to_line({"query", "--reach", model_path_, kQuery})));
  ASSERT_EQ(responses.size(), 2U);
  EXPECT_EQ(responses[0].code, 2);
  EXPECT_EQ(responses[0].err, "pnut query: query evaluation: division overflow\n");
  EXPECT_EQ(responses[1].code, 0);
  EXPECT_EQ(responses[1].out, run_direct({"query", "--reach", model_path_, kQuery}).out);

  tcp_transcript(server.port(), ".shutdown\n");
  server.wait_for_shutdown();
  server.stop();
}

TEST_F(ServeTest, OverWideTimedStateIsSkippedAndConnectionSurvives) {
  // Two firing delays of 2^31 cycles used to wrap the timed state's width:
  // one analyze line crashed the server (SIGSEGV). Now the timed section
  // is skipped with its reason in a framed reply, and the next request on
  // the same connection is served.
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  Server server(session, 0);
  ASSERT_GT(server.port(), 0);
  server.start();

  const std::string wide = write_model("wide.pn",
                                       "net wide\nplace P init 1\nplace Q\n"
                                       "trans a in P out Q firing 2147483648\n"
                                       "trans b in Q out P firing 2147483648\n");
  const auto responses = parse_responses(tcp_transcript(
      server.port(), to_line({"analyze", wide}) + to_line({"analyze", model_path_})));
  ASSERT_EQ(responses.size(), 2U);
  EXPECT_EQ(responses[0].code, 0);
  EXPECT_EQ(responses[0].out, run_direct({"analyze", wide}).out);
  EXPECT_NE(responses[0].out.find("timed reachability: skipped (TimedReachabilityGraph: "
                                  "transition 'a' (firing 2147483648) makes a timed state "
                                  "wider than 65536 words)\n"),
            std::string::npos);
  EXPECT_EQ(responses[1].code, 0);
  EXPECT_EQ(responses[1].out, run_direct({"analyze", model_path_}).out);

  tcp_transcript(server.port(), ".shutdown\n");
  server.wait_for_shutdown();
  server.stop();
}

TEST_F(ServeTest, ParseServeOptionsLimits) {
  const ServeOptions opts = parse_serve_options(
      {"serve", "--port", "0", "--max-clients", "2", "--request-timeout", "1.5"});
  EXPECT_TRUE(opts.use_tcp);
  EXPECT_EQ(opts.max_clients, 2U);
  EXPECT_DOUBLE_EQ(opts.session.default_timeout_seconds, 1.5);
  EXPECT_THROW(parse_serve_options({"serve", "--max-clients", "0"}),
               std::invalid_argument);
  EXPECT_THROW(parse_serve_options({"serve", "--request-timeout", "-1"}),
               std::invalid_argument);
}

/// Raw TCP client helper for the capacity and drain tests: connect, keep
/// the socket open, read on demand.
class RawClient {
 public:
  explicit RawClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ =
        fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawClient() { close(); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  void send_line(const std::string& line) {
    ASSERT_EQ(::send(fd_, line.data(), line.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(line.size()));
  }

  /// Blocking read until `bytes` arrived (or EOF).
  std::string read_exact(std::size_t bytes) {
    std::string data;
    char buffer[4096];
    while (data.size() < bytes) {
      const ssize_t n =
          ::recv(fd_, buffer, std::min(sizeof(buffer), bytes - data.size()), 0);
      if (n <= 0) break;
      data.append(buffer, static_cast<std::size_t>(n));
    }
    return data;
  }

  std::string read_to_eof() {
    std::string data;
    char buffer[4096];
    ssize_t n;
    while ((n = ::recv(fd_, buffer, sizeof(buffer), 0)) > 0) {
      data.append(buffer, static_cast<std::size_t>(n));
    }
    return data;
  }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST_F(ServeTest, MaxClientsCapRejectsWithFramedErrorAndServesTheRest) {
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  Server server(session, 0, /*max_clients=*/2);
  server.start();

  // Two clients occupy the cap (each holds its connection after the
  // greeting).
  RawClient a(server.port());
  RawClient b(server.port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  EXPECT_EQ(a.read_exact(std::strlen(kGreeting)), kGreeting);
  EXPECT_EQ(b.read_exact(std::strlen(kGreeting)), kGreeting);

  // The third gets the greeting plus one complete framed code-1 rejection,
  // then EOF — loud, well-formed degradation, not a dropped connection.
  RawClient c(server.port());
  ASSERT_TRUE(c.connected());
  const auto rejected = parse_responses(c.read_to_eof());
  ASSERT_EQ(rejected.size(), 1U);
  EXPECT_EQ(rejected[0].code, 1);
  EXPECT_NE(rejected[0].err.find("server at capacity"), std::string::npos)
      << rejected[0].err;

  // The clients inside the cap are unaffected.
  a.send_line(to_line({"validate", model_path_}));
  a.shutdown_write();
  const auto served = parse_responses(kGreeting + a.read_to_eof());
  ASSERT_EQ(served.size(), 1U);
  EXPECT_EQ(served[0].code, 0);

  a.close();
  b.close();
  server.stop();
}

TEST_F(ServeTest, ShutdownRacingInflightRequestsYieldsCompleteFrames) {
  // Clients fire graph-building requests while another client sends
  // `.shutdown` and the server drains. Whatever each client got — a full
  // answer, a cooperative code-1 cancellation, or nothing yet — its
  // transcript must be the greeting plus zero or more COMPLETE frames:
  // drain never tears a response mid-frame. (In the TSan CI run this test
  // also proves the drain/accept/client-thread handshake race-free.)
  const std::string ring = write_ring("drain_ring", 20, 5);  // ~42k states
  const std::string ring_query = "exists s in S [ P0(s) = 0 ]";
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  Server server(session, 0);
  server.start();

  constexpr int kClients = 4;
  std::vector<std::string> transcripts(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      RawClient client(server.port());
      if (!client.connected()) return;  // raced the listen-socket teardown
      client.send_line(to_line({"query", "--reach", ring, ring_query}));
      transcripts[i] = client.read_to_eof();
    });
  }
  // Let the requests get in flight, then drain — the same path SIGINT and a
  // client `.shutdown` take.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.request_shutdown();
  server.wait_for_shutdown();
  server.drain();
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    if (transcripts[i].empty()) continue;  // connection raced the teardown
    SCOPED_TRACE("client " + std::to_string(i));
    const auto responses = parse_responses(transcripts[i]);
    for (const Framed& r : responses) {
      if (r.code == 0) {
        EXPECT_NE(r.out.find("holds"), std::string::npos) << r.out;
      } else {
        EXPECT_EQ(r.code, 1);
        EXPECT_NE(r.err.find("cancelled"), std::string::npos) << r.err;
      }
    }
  }
  server.stop();
}

/// Read one framed response off a persistent connection.
Framed read_frame(RawClient& client) {
  std::string header;
  while (header.empty() || header.back() != '\n') {
    const std::string byte = client.read_exact(1);
    if (byte.empty()) return {-1, {}, "EOF inside a frame header: " + header};
    header += byte;
  }
  std::istringstream fields(header.substr(2));
  int code = 0;
  std::size_t outlen = 0;
  std::size_t errlen = 0;
  fields >> code >> outlen >> errlen;
  const std::string body = client.read_exact(outlen + errlen);
  if (body.size() != outlen + errlen) return {-1, {}, "EOF inside a frame body"};
  return {code, body.substr(0, outlen), body.substr(outlen)};
}

TEST_F(ServeTest, LargeFramesAreNotStalledOnAPersistentConnection) {
  // Frames larger than the 4 KiB socket buffer used to go out as several
  // sends on a Nagle-enabled socket; the client's delayed ACK then held
  // each frame's tail for ~40 ms. Twenty round trips of a hot `analyze`
  // whose frame is over 4 KiB would spend at least 800 ms stalled.
  const std::string full =
      write_model("full.pn", textio::print_net(pipeline::build_full_model()));
  const std::vector<std::string> analyze = {"analyze", full};
  const cli::Request request{"analyze", {full}};
  cli::Session cache_off;
  const cli::Result direct = cache_off.execute(request);
  ASSERT_EQ(direct.code, 0) << direct.err;
  ASSERT_GT(direct.out.size(), 4096U);

  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  Server server(session, 0);
  server.start();
  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_EQ(client.read_exact(std::strlen(kGreeting)), kGreeting);

  // Warm the caches, then time the hot round trips.
  client.send_line(to_line(analyze));
  ASSERT_EQ(read_frame(client).out, direct.out);
  constexpr int kRoundTrips = 20;
  std::vector<Framed> frames;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kRoundTrips; ++i) {
    client.send_line(to_line(analyze));
    frames.push_back(read_frame(client));
  }
  const auto tcp = std::chrono::steady_clock::now() - t0;
  for (const Framed& f : frames) {
    EXPECT_EQ(f.code, direct.code);
    EXPECT_EQ(f.out, direct.out);
    EXPECT_EQ(f.err, direct.err);
  }
  // The same hot work in process: what the transport is allowed to cost
  // on top is bounded, so a slow (sanitized) build does not fail here but
  // a stall per frame does.
  const auto t1 = std::chrono::steady_clock::now();
  for (int i = 0; i < kRoundTrips; ++i) (void)session.execute(request);
  const auto in_process = std::chrono::steady_clock::now() - t1;
  const auto transport =
      std::chrono::duration_cast<std::chrono::milliseconds>(tcp - in_process);
  EXPECT_LT(transport.count(), 400)
      << kRoundTrips << " round trips took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(tcp).count()
      << " ms over the wire against "
      << std::chrono::duration_cast<std::chrono::milliseconds>(in_process).count()
      << " ms in process";

  // A frame far past the socket buffer arrives whole.
  const std::string trace_path = (dir_ / "long.trace").string();
  const std::vector<std::string> simulate = {"simulate", model_path_, "--until", "40000",
                                             "--trace", trace_path};
  client.send_line(to_line(simulate));
  EXPECT_EQ(read_frame(client).code, 0);
  const std::vector<std::string> animate = {"animate", trace_path, "--steps", "12000"};
  client.send_line(to_line(animate));
  const Framed big = read_frame(client);
  const cli::Result big_direct = cache_off.execute({"animate", {trace_path, "--steps", "12000"}});
  ASSERT_GE(big_direct.out.size(), 1U << 20);
  EXPECT_EQ(big.code, big_direct.code);
  EXPECT_TRUE(big.out == big_direct.out) << "a " << big_direct.out.size()
                                         << "-byte frame arrived as " << big.out.size()
                                         << " bytes";
  EXPECT_EQ(big.err, big_direct.err);

  client.close();
  server.stop();
}

#undef ASSERT_EQ_RET

}  // namespace
}  // namespace pnut::serve
