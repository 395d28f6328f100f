// Expression bytecode: the one runtime of the expression language. It runs
// predicates, actions and computed delays in every engine, and the tracer's
// function signals.
//
// The compiler (program.h) lowers each AST once, against a frozen
// DataSchema, into a flat instruction array evaluated here by a plain
// stack machine:
//
//   * variable and table reads/writes are dense slot indices into a
//     DataFrame — no virtual dispatch, no string hashing, no map nodes;
//   * irand/min/max/abs are opcodes (a wrong argument count compiles to a
//     throw instruction carrying the builtin's arity message);
//   * && and || compile to conditional jumps, so the right operand (side
//     effects and all) runs only when the left one does not decide;
//   * arithmetic and comparisons are ast.h's apply_binary / apply_unary;
//   * names that can never resolve compile to throw instructions, so the
//     error surfaces at evaluation time (a broken predicate on a transition
//     that never fires is harmless).
//
// Evaluation never allocates: the caller-owned VmScratch holds the value
// stack, sized once per Code to its precomputed max depth. Errors are
// expr::EvalError, and these texts are the texts of record: the test-only
// tree-walking oracle (tests/support/ast_eval.h) is pinned to them in
// value, error, rng stream and data state by the differential fuzzer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expr/ast.h"
#include "petri/data_frame.h"
#include "petri/rng.h"

namespace pnut::expr {

enum class Op : std::uint8_t {
  kConst,       ///< push consts[a]
  kLoadSlot,    ///< push frame scalar a (b = name id; absent -> EvalError)
  kLoadTable,   ///< pop index; push entry of tables[a] (bounds-checked)
  kStoreSlot,   ///< pop value; write frame scalar a, mark present
  kStoreTable,  ///< pop index, pop value; write entry of tables[a]
  kAdd, kSub, kMul, kDiv, kMod,          ///< pop b, pop a, push a op b
  kEq, kNe, kLt, kLe, kGt, kGe,
  kNeg, kNot,                            ///< pop v, push op v
  kAndFalse,    ///< pop v; if v == 0: push 0, jump to a (short-circuit &&)
  kOrTrue,      ///< pop v; if v != 0: push 1, jump to a (short-circuit ||)
  kToBool,      ///< pop v, push v != 0
  kIrand,       ///< pop hi, pop lo, push rng draw (null rng or empty range throws)
  kMin, kMax,   ///< pop b, pop a
  kAbs,         ///< pop v
  kThrowIdent,  ///< throw "unknown identifier '<names[a]>'"
  kThrowCall,   ///< pop b args; throw "unknown function or table '<names[a]>' ..."
  kThrowTable,  ///< pop 2; throw "DataContext: unknown table '<names[a]>'"
  kThrowArity,  ///< pop b args; throw names[a] (a builtin arity message)
  // --- script constructs (locals live on the value stack, never in the
  // data row — the frame layout is the parser's dense slot assignment) ---
  kLoadLocal,     ///< push stack[base + a]
  kStoreLocal,    ///< pop value; stack[base + a] = value
  kLoadLocalArr,  ///< pop index; push entry of local_arrays[a] (bounds-checked)
  kStoreLocalArr, ///< pop index, pop value; write entry of local_arrays[a]
  kZeroLocalArr,  ///< zero the slot range of local_arrays[a]
  kJump,          ///< ip = a
  kJumpIfZero,    ///< pop v; if v == 0: ip = a
  kCall,          ///< call functions[a] with b args on top of the stack
  kReturn,        ///< pop result, tear down frame, push result for caller
};

struct Instr {
  Op op;
  std::int32_t a = 0;
  std::int32_t b = 0;
};

/// One compiled expression or action program, self-contained: instruction
/// stream, constant pool, the table slots it touches, and the names its
/// error paths mention. Immutable after compilation; safe to evaluate from
/// any number of threads concurrently (each with its own VmScratch).
struct Code {
  /// Table metadata resolved at compile time (kLoadTable/kStoreTable's `a`
  /// indexes this, not the schema — evaluation needs no schema at all).
  struct TableRef {
    std::uint32_t base = 0;
    std::uint32_t size = 0;
    std::uint32_t name = 0;  ///< index into names
  };

  /// One compiled user function, spliced into this Code's instruction
  /// stream ahead of `entry`. kCall's `a` indexes this vector.
  struct FnRef {
    std::uint32_t entry = 0;        ///< first instruction of the body
    std::uint32_t nparams = 0;
    std::uint32_t frame_slots = 0;  ///< dense locals incl. parameters
    std::uint32_t name = 0;         ///< index into names
  };

  /// A local array's frame-relative slot range, resolved at compile time.
  struct LocalArrayRef {
    std::uint32_t slot = 0;    ///< first slot, relative to the frame base
    std::uint32_t extent = 0;
    std::uint32_t name = 0;    ///< index into names
  };

  std::vector<Instr> instrs;
  std::vector<std::int64_t> consts;
  std::vector<TableRef> tables;
  std::vector<std::string> names;
  std::vector<FnRef> functions;
  std::vector<LocalArrayRef> local_arrays;
  std::uint32_t entry = 0;        ///< main code start (functions sit before it)
  std::uint32_t frame_slots = 0;  ///< the main body's local frame size
  std::uint32_t max_stack = 0;    ///< worst case incl. every call chain's frames
};

/// Reusable evaluation stack; grown to each Code's max depth on entry.
/// Call frames live on the same stack (locals below the operand area);
/// `frames` records the return address and frame base per active call.
struct VmScratch {
  struct Frame {
    const Instr* return_ip = nullptr;
    std::size_t base = 0;
  };
  std::vector<std::int64_t> stack;
  std::vector<Frame> frames;
};

/// Evaluate expression code against `frame`; returns the result value.
/// `rng` may be null (irand then raises its "not allowed here" error).
/// Throws EvalError on any evaluation failure.
std::int64_t vm_eval(const Code& code, const DataFrame& frame, Rng* rng,
                     VmScratch& scratch);

/// Run action-program code, writing assignments into `frame`.
void vm_exec(const Code& code, DataFrame& frame, Rng* rng, VmScratch& scratch);

/// Raw-row variants: evaluate against one lane of a batched slot matrix
/// (sim/batch_sim.h keeps all lanes' DataFrames as one flat value matrix
/// plus one presence matrix; a lane is a (values, present) row pair laid
/// out exactly like DataFrame::values / DataFrame::present). Semantics are
/// identical to the DataFrame forms — same code, same errors, same rng
/// stream.
std::int64_t vm_eval_row(const Code& code, const std::int64_t* values,
                         const std::uint8_t* present, Rng* rng, VmScratch& scratch);

void vm_exec_row(const Code& code, std::int64_t* values, std::uint8_t* present,
                 Rng* rng, VmScratch& scratch);

}  // namespace pnut::expr
