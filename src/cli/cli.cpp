#include "cli/cli.h"

#include <ostream>

#include "cli/session.h"
#include "serve/server.h"

namespace pnut::cli {

std::string usage() {
  return "P-NUT — Petri Net Utility Tools\n"
         "usage:\n"
         "  pnut validate <model.pn>\n"
         "  pnut check    <model.pn>\n"
         "  pnut print    <model.pn>\n"
         "  pnut simulate <model.pn> [--until T] [--seed S] [--stats|--tbl]\n"
         "                [--trace FILE] [--keep name,name,...] [--timeout S]\n"
         "  pnut replicate <model.pn> [--replications N] [--horizon T] [--seed S]\n"
         "                [--threads N] [--timeout S]\n"
         "  pnut stat     <trace.txt>\n"
         "  pnut query    <trace.txt> \"<query>\" [--timeout S]\n"
         "  pnut query    --reach <model.pn> \"<query>\" [--max-states N] [--threads N]\n"
         "                [--max-resident-bytes N[K|M|G]] [--spill-dir D] [--timeout S]\n"
         "  pnut render   <trace.txt> --signals a,b,label=expr,...\n"
         "                [--from T] [--to T] [--columns N] [--unicode]\n"
         "                [--marker X=T]...\n"
         "  pnut animate  <trace.txt> [--steps N]\n"
         "  pnut analyze  <model.pn> [--max-states N] [--threads N]\n"
         "                [--max-resident-bytes N[K|M|G]] [--spill-dir D] [--timeout S]\n"
         "  pnut serve    [--port N] [--cache-bytes N[K|M|G]] [--request-timeout S]\n"
         "                [--max-clients N]\n"
         "(check parses a model and lowers every expression hook to bytecode,\n"
         " reporting line:col diagnostics with caret snippets; the modeling\n"
         " language — fn/let/array/for — is documented in docs/LANG.md.\n"

         " --threads N runs replications or untimed exploration on N threads\n"
         " (0 = all hardware threads); analyze builds the timed graph on one.\n"
         " --max-resident-bytes caps the exploration's resident footprint by\n"
         " spilling sealed levels to segment files — in --spill-dir when given,\n"
         " else the system temp dir — removed again when the graph is freed.\n"
         " --timeout S stops the command cooperatively after S seconds:\n"
         " analyze reports a deterministic truncated prefix (STOPPED at\n"
         " deadline), while simulate/replicate/query fail cleanly with\n"
         " 'deadline exceeded' and exit code 1.\n"
         " serve answers the same commands over a newline-delimited protocol —\n"
         " on a TCP socket with --port (0 = pick a free port), else on\n"
         " stdin/stdout — keeping compiled nets and sealed reachability graphs\n"
         " cached across requests, --cache-bytes bounding the graphs' resident\n"
         " total; '.stats' reports cache traffic, '.quit' ends the session.\n"
         " Operational limits, cancellation semantics and the signal-driven\n"
         " drain are documented in docs/SERVE.md)\n";
}

int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << usage();
    return args.empty() ? 2 : 0;
  }
  if (args[0] == "serve") {
    return serve::run_serve(args, out, err);
  }
  // One cache-off Session per invocation: the identical code path the
  // server runs, minus the bookkeeping a single-shot process cannot reuse.
  Session session;
  const Result result =
      session.execute({args[0], std::vector<std::string>(args.begin() + 1, args.end())});
  out << result.out;
  err << result.err;
  return result.code;
}

}  // namespace pnut::cli
