// The traced run's layer replay. For each request it calls the public
// entry points of every layer the request's command goes through — the
// same calls, with the same options, that cli::Session makes — and
// records a span around each call. Spans live in memory and are written
// out when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cli/session.h"
#include "util.h"

namespace pnut::analysis {
class ReachabilityGraph;
class TimedReachabilityGraph;
}  // namespace pnut::analysis
namespace pnut::textio {
struct NetDocument;
}
namespace pnut {
class CompiledNet;
}

namespace pnbench {

struct Span {
  const char* name;
  double start_ms;  ///< since the recorder's origin
  double end_ms;
  int parent;  ///< index of the enclosing span, -1 for a request root
  std::uint32_t request;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) { spans_.reserve(1 << 16); }
  /// Open a span; returns its index.
  int open(const char* name, int parent, std::uint32_t request);
  void close(int index);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Write the spans as JSON lines.
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// What one replayed request observed: the counts its output must print.
struct Observed {
  std::uint64_t reach_states = 0, reach_edges = 0, timed_states = 0;
  bool timed_skipped = false;
  std::uint64_t sim_events = 0;  ///< scalar run: events started
  std::uint64_t lanes = 0;
  std::uint64_t trace_states = 0;
};

/// Work the replay did, summed over a run (builds only, not cache hits).
struct Work {
  std::uint64_t reach_states = 0, reach_edges = 0, reach_bytes = 0, timed_states = 0;
  std::uint64_t sim_events = 0, batch_lanes = 0, batch_events = 0;
};

class LayerReplay {
 public:
  /// `cache` mirrors a caching Session: parsed models and built graphs are
  /// kept and reused, graphs evicted LRU against `budget_bytes`.
  LayerReplay(SpanRecorder& recorder, bool cache, std::uint64_t budget_bytes);
  ~LayerReplay();
  LayerReplay(const LayerReplay&) = delete;
  LayerReplay& operator=(const LayerReplay&) = delete;

  /// Replay one request's layer calls under span `parent`.
  Observed replay(const pnut::cli::Request& request, int parent, std::uint32_t id);
  [[nodiscard]] const Work& work() const { return work_; }

 private:
  struct Model;
  struct Graphs;
  std::shared_ptr<const Model> model(const std::string& path, int parent, std::uint32_t id);
  std::shared_ptr<const pnut::analysis::ReachabilityGraph> reach(const Model& m,
                                                                 std::size_t max_states,
                                                                 int parent, std::uint32_t id);
  std::shared_ptr<const pnut::analysis::TimedReachabilityGraph> timed(const Model& m,
                                                                      int parent,
                                                                      std::uint32_t id);

  SpanRecorder& rec_;
  bool cache_;
  std::uint64_t budget_;
  Work work_;
  std::map<std::string, std::shared_ptr<const Model>> models_;
  std::unique_ptr<Graphs> graphs_;
};

}  // namespace pnbench
