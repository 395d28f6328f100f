#include "expr/vm.h"

#include <cstdint>

namespace pnut::expr {

namespace {

/// The one interpreter loop over a raw (values, present) slot row — a
/// DataFrame's storage, or one lane of batch_sim's flat slot matrix. The
/// row is written only by store opcodes, which the compiler emits only
/// into action-program code — evaluating a compiled *expression* never
/// mutates it (vm_eval relies on this).
std::int64_t run(const Code& code, std::int64_t* values, std::uint8_t* present,
                 Rng* rng, VmScratch& scratch) {
  if (scratch.stack.size() < code.max_stack) scratch.stack.resize(code.max_stack);
  scratch.frames.clear();
  std::int64_t* stack = scratch.stack.data();
  // The main body's locals occupy the stack bottom; operands grow above
  // them. Plain expressions have frame_slots == 0 — the historical layout.
  std::size_t base = 0;
  std::size_t sp = code.frame_slots;  // next free slot
  for (std::size_t i = 0; i < code.frame_slots; ++i) stack[i] = 0;

  const Instr* ip = code.instrs.data() + code.entry;
  const Instr* end = code.instrs.data() + code.instrs.size();
  while (ip != end) {
    const Instr in = *ip++;
    switch (in.op) {
      case Op::kConst:
        stack[sp++] = code.consts[static_cast<std::size_t>(in.a)];
        break;
      case Op::kLoadSlot: {
        const auto slot = static_cast<std::size_t>(in.a);
        if (present[slot] == 0) {
          throw EvalError("unknown identifier '" +
                          code.names[static_cast<std::size_t>(in.b)] + "'");
        }
        stack[sp++] = values[slot];
        break;
      }
      case Op::kLoadTable: {
        const Code::TableRef& t = code.tables[static_cast<std::size_t>(in.a)];
        const std::int64_t index = stack[--sp];
        if (index < 0 || static_cast<std::uint64_t>(index) >= t.size) {
          throw EvalError("DataContext: index " + std::to_string(index) +
                          " out of bounds for table '" + code.names[t.name] +
                          "' of size " + std::to_string(t.size));
        }
        stack[sp++] = values[t.base + static_cast<std::uint32_t>(index)];
        break;
      }
      case Op::kStoreSlot: {
        const auto slot = static_cast<std::size_t>(in.a);
        values[slot] = stack[--sp];
        present[slot] = 1;
        break;
      }
      case Op::kStoreTable: {
        const Code::TableRef& t = code.tables[static_cast<std::size_t>(in.a)];
        const std::int64_t index = stack[--sp];
        const std::int64_t value = stack[--sp];
        if (index < 0 || static_cast<std::uint64_t>(index) >= t.size) {
          throw EvalError("DataContext: index " + std::to_string(index) +
                          " out of bounds for table '" + code.names[t.name] + "'");
        }
        values[t.base + static_cast<std::uint32_t>(index)] = value;
        break;
      }
      case Op::kAdd: --sp; stack[sp - 1] = wrap_add(stack[sp - 1], stack[sp]); break;
      case Op::kSub: --sp; stack[sp - 1] = wrap_sub(stack[sp - 1], stack[sp]); break;
      case Op::kMul: --sp; stack[sp - 1] = wrap_mul(stack[sp - 1], stack[sp]); break;
      case Op::kDiv: --sp; stack[sp - 1] = checked_div(stack[sp - 1], stack[sp]); break;
      case Op::kMod: --sp; stack[sp - 1] = checked_mod(stack[sp - 1], stack[sp]); break;
      case Op::kEq: --sp; stack[sp - 1] = stack[sp - 1] == stack[sp] ? 1 : 0; break;
      case Op::kNe: --sp; stack[sp - 1] = stack[sp - 1] != stack[sp] ? 1 : 0; break;
      case Op::kLt: --sp; stack[sp - 1] = stack[sp - 1] < stack[sp] ? 1 : 0; break;
      case Op::kLe: --sp; stack[sp - 1] = stack[sp - 1] <= stack[sp] ? 1 : 0; break;
      case Op::kGt: --sp; stack[sp - 1] = stack[sp - 1] > stack[sp] ? 1 : 0; break;
      case Op::kGe: --sp; stack[sp - 1] = stack[sp - 1] >= stack[sp] ? 1 : 0; break;
      case Op::kNeg: stack[sp - 1] = wrap_neg(stack[sp - 1]); break;
      case Op::kNot: stack[sp - 1] = stack[sp - 1] == 0 ? 1 : 0; break;
      case Op::kAndFalse:
        if (stack[--sp] == 0) {
          stack[sp++] = 0;
          ip = code.instrs.data() + in.a;
        }
        break;
      case Op::kOrTrue:
        if (stack[--sp] != 0) {
          stack[sp++] = 1;
          ip = code.instrs.data() + in.a;
        }
        break;
      case Op::kToBool: stack[sp - 1] = stack[sp - 1] != 0 ? 1 : 0; break;
      case Op::kIrand: {
        const std::int64_t hi = stack[--sp];
        const std::int64_t lo = stack[sp - 1];
        if (rng == nullptr) {
          throw EvalError("irand is not allowed here (no random source; predicates "
                          "must be deterministic)");
        }
        if (lo > hi) {
          throw EvalError("irand: empty range [" + std::to_string(lo) + ", " +
                          std::to_string(hi) + "]");
        }
        stack[sp - 1] = rng->next_int(lo, hi);
        break;
      }
      case Op::kMin: --sp; stack[sp - 1] = std::min(stack[sp - 1], stack[sp]); break;
      case Op::kMax: --sp; stack[sp - 1] = std::max(stack[sp - 1], stack[sp]); break;
      case Op::kAbs:
        stack[sp - 1] = stack[sp - 1] < 0 ? wrap_neg(stack[sp - 1]) : stack[sp - 1];
        break;
      case Op::kThrowIdent:
        throw EvalError("unknown identifier '" +
                        code.names[static_cast<std::size_t>(in.a)] + "'");
      case Op::kThrowCall:
        // The AST evaluator computes every argument (side effects and all)
        // before discovering the name resolves to nothing; the compiler
        // mirrors that by emitting the argument code ahead of this throw.
        sp -= static_cast<std::size_t>(in.b);
        throw EvalError("unknown function or table '" +
                        code.names[static_cast<std::size_t>(in.a)] + "' with " +
                        std::to_string(in.b) + " argument(s)");
      case Op::kThrowTable:
        sp -= 2;
        throw EvalError("DataContext: unknown table '" +
                        code.names[static_cast<std::size_t>(in.a)] + "'");
      case Op::kThrowArity:
        sp -= static_cast<std::size_t>(in.b);
        throw EvalError(code.names[static_cast<std::size_t>(in.a)]);
      case Op::kLoadLocal:
        stack[sp++] = stack[base + static_cast<std::size_t>(in.a)];
        break;
      case Op::kStoreLocal:
        stack[base + static_cast<std::size_t>(in.a)] = stack[--sp];
        break;
      case Op::kLoadLocalArr: {
        const Code::LocalArrayRef& arr =
            code.local_arrays[static_cast<std::size_t>(in.a)];
        const std::int64_t index = stack[--sp];
        if (index < 0 || static_cast<std::uint64_t>(index) >= arr.extent) {
          throw EvalError("index " + std::to_string(index) +
                          " out of bounds for array '" + code.names[arr.name] +
                          "' of extent " + std::to_string(arr.extent));
        }
        stack[sp++] = stack[base + arr.slot + static_cast<std::uint32_t>(index)];
        break;
      }
      case Op::kStoreLocalArr: {
        const Code::LocalArrayRef& arr =
            code.local_arrays[static_cast<std::size_t>(in.a)];
        const std::int64_t index = stack[--sp];
        const std::int64_t value = stack[--sp];
        if (index < 0 || static_cast<std::uint64_t>(index) >= arr.extent) {
          throw EvalError("index " + std::to_string(index) +
                          " out of bounds for array '" + code.names[arr.name] +
                          "' of extent " + std::to_string(arr.extent));
        }
        stack[base + arr.slot + static_cast<std::uint32_t>(index)] = value;
        break;
      }
      case Op::kZeroLocalArr: {
        const Code::LocalArrayRef& arr =
            code.local_arrays[static_cast<std::size_t>(in.a)];
        for (std::uint32_t i = 0; i < arr.extent; ++i) {
          stack[base + arr.slot + i] = 0;
        }
        break;
      }
      case Op::kJump:
        ip = code.instrs.data() + in.a;
        break;
      case Op::kJumpIfZero:
        if (stack[--sp] == 0) ip = code.instrs.data() + in.a;
        break;
      case Op::kCall: {
        const Code::FnRef& fn = code.functions[static_cast<std::size_t>(in.a)];
        const std::size_t new_base = sp - static_cast<std::size_t>(in.b);
        for (std::size_t i = fn.nparams; i < fn.frame_slots; ++i) {
          stack[new_base + i] = 0;
        }
        scratch.frames.push_back({ip, base});
        base = new_base;
        sp = new_base + fn.frame_slots;
        ip = code.instrs.data() + fn.entry;
        break;
      }
      case Op::kReturn: {
        const std::int64_t result = stack[--sp];
        sp = base;
        const VmScratch::Frame frame = scratch.frames.back();
        scratch.frames.pop_back();
        base = frame.base;
        ip = frame.return_ip;
        stack[sp++] = result;
        break;
      }
    }
  }
  return sp > code.frame_slots ? stack[sp - 1] : 0;
}

}  // namespace

std::int64_t vm_eval(const Code& code, const DataFrame& frame, Rng* rng,
                     VmScratch& scratch) {
  // Expression code contains no store opcodes (see run()), so the frame is
  // never written through these casts.
  return run(code, const_cast<std::int64_t*>(frame.values.data()),
             const_cast<std::uint8_t*>(frame.present.data()), rng, scratch);
}

void vm_exec(const Code& code, DataFrame& frame, Rng* rng, VmScratch& scratch) {
  (void)run(code, frame.values.data(), frame.present.data(), rng, scratch);
}

std::int64_t vm_eval_row(const Code& code, const std::int64_t* values,
                         const std::uint8_t* present, Rng* rng, VmScratch& scratch) {
  return run(code, const_cast<std::int64_t*>(values),
             const_cast<std::uint8_t*>(present), rng, scratch);
}

void vm_exec_row(const Code& code, std::int64_t* values, std::uint8_t* present,
                 Rng* rng, VmScratch& scratch) {
  (void)run(code, values, present, rng, scratch);
}

}  // namespace pnut::expr
