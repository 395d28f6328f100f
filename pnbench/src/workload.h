// Workload generation: every model file and every request list is a pure
// function of (workload name, seed, request count). Request classes have
// fixed counts; the seed only draws within a class (token placements,
// ring rotations, table permutations, query constants, simulation seeds)
// and the order, so two seeds run the same mix of work.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cli/session.h"

namespace pnbench {

/// What a correct response (exit code 0) must say. Zero counts are "not
/// pinned".
struct Expect {
  std::uint64_t states = 0;        ///< untimed reachable states
  std::uint64_t edges = 0;         ///< untimed edges (analyze only)
  std::uint64_t timed_states = 0;  ///< timed states (analyze only)
  bool timed_skipped = false;      ///< analyze must skip timed analysis
  std::string prefix;              ///< required output prefix
};

struct Item {
  pnut::cli::Request request;
  std::string klass;  ///< request class, for the per-class breakdown
  Expect expect;
  /// The output must equal every other response with the same key:
  /// the request's line for stateless commands, empty to skip.
  std::string stable_key;
};

struct Workload {
  std::string name;
  std::string dir;  ///< directory holding the generated files
  std::map<std::string, std::string> files;  ///< file name -> contents
  std::vector<Item> warmup;   ///< untimed, part of set-up
  std::vector<Item> timed;    ///< the measured list
  /// serve-mixed: one request on a pool model, used at set-up to size the
  /// server's graph-cache budget (hot set plus part of the pool).
  Item pool_probe;
};

/// Each run executes its list this many times back to back.
inline constexpr int kRounds = 5;

/// The list length for a run of `seconds`: nominal request rates size it
/// so kRounds passes take about that long, but the length is fixed by
/// (workload, seconds), never by how fast a host runs.
std::size_t list_length(const std::string& workload, int seconds);

/// Generate a workload. `models_dir` holds the shipped .pn models; `dir`
/// is where the generated files will live (paths inside requests point
/// there). Throws std::invalid_argument on an unknown workload name.
Workload generate(const std::string& workload, std::uint64_t seed, std::size_t count,
                  const std::string& models_dir, const std::string& dir);

/// Write `w.files` under `w.dir` (created if missing).
void write_files(const Workload& w);

/// One-line rendering of a request (the serve request line).
std::string request_line(const pnut::cli::Request& r);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

}  // namespace pnbench
