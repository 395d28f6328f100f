// The textual Petri-net format (.pn).
//
// The paper notes the complete pipeline model "can be expressed ...
// textually (for some of our textually based tools) in roughly 25 lines".
// This module defines that textual form: a line-oriented format with one
// declaration per line and keyword-led clauses for transitions.
//
//   # comment
//   net pipelined_processor
//   param memory_cycles 5
//   fn "access_cycles(hit) { return 1 + (1 - hit) * memory_cycles; }"
//   var  type 0
//   table operands 0 0 1 2
//   array scratch 16
//   place Bus_free init 1
//   place Empty_I_buffers init 6 capacity 6
//   trans Start_prefetch in Bus_free, Empty_I_buffers*2
//         inhibit Operand_fetch_pending out Bus_busy, pre_fetching
//   trans End_prefetch in pre_fetching, Bus_busy
//         out Bus_free, Full_I_buffers*2 enabling 5
//   trans Decode in Full_I_buffers, Decoder_ready
//         out Decoded_instruction, Empty_I_buffers firing 1
//         do "type = irand[1, max_type]"
//   trans exec in Issued out Done firing discrete 1:0.5 2:0.3 5:0.2 freq 3
//   trans fetch_operand in D, Bus_free out Bus_busy when "n_ops > 0"
//
// Clauses may continue on following lines; a new declaration keyword (net/
// fn/param/var/table/array/place/trans) starts the next statement. Delay
// clauses:
//   firing|enabling <number>
//   firing|enabling uniform <lo> <hi>
//   firing|enabling discrete <value>:<weight> ...
//   firing|enabling expr "<expression>"
// Other clauses: freq <number>, policy single|infinite,
// when "<predicate>", do "<statements>".
//
// Model-library declarations (docs/LANG.md):
//   fn "name(a, b) { ... }"  — a document-level function, callable from
//       every later fn / when / do / expr string (definitions must precede
//       their uses; recursion is rejected);
//   param <name> <value>     — an initial scalar flagged as a tunable model
//       parameter (a plain `var` to the engines, but recorded so tools and
//       sweeps can enumerate the knobs);
//   array <name> <extent>    — a zero-initialized table of fixed extent.
//
// Predicates, actions and computed delays carry their own source text
// (petri/net.h), so print_net round-trips interpreted models whether they
// were parsed or built in C++. The parser returns a NetDocument: the net
// plus the model-library declarations (fn/param/array) that shape how it
// prints. Errors in embedded expression strings are reported at their
// absolute document line with a caret snippet (expr::render_caret).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "expr/ast.h"
#include "petri/net.h"

namespace pnut::textio {

/// A net plus its model-library declarations.
struct NetDocument {
  Net net;
  /// Document-level `fn` declarations, in declaration order; every
  /// expression hook in `net` was compiled against this library.
  expr::FunctionLibrary functions;
  /// Source text of each function, parallel to functions.functions.
  std::vector<std::string> function_sources;
  /// Names declared with `param`, in declaration order (values live in
  /// net.initial_data() like any scalar).
  std::vector<std::string> params;
  /// Table names declared with `array` (zero-filled, extent-only).
  std::vector<std::string> arrays;
};

/// Parse the .pn format. Throws std::runtime_error carrying a line number
/// on any lexical, syntactic or semantic error (unknown place, duplicate
/// name, malformed delay, bad expression, ...). The returned net has been
/// validated.
NetDocument parse_net(std::string_view text);

/// Render a document back to the .pn format. parse_net(print_net(d)) yields
/// a structurally identical net.
std::string print_net(const NetDocument& doc);

/// Render a net built without a document: every hook prints from its own
/// source text (a hook calling document `fn`s needs the NetDocument form,
/// which also prints the library).
std::string print_net(const Net& net);

}  // namespace pnut::textio
