#include "expr/ast.h"

#include <sstream>

namespace pnut::expr {

namespace {

void render_statement(std::ostringstream& out, const Statement& stmt, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  switch (stmt.kind) {
    case Statement::Kind::kAssign:
      out << pad << stmt.target;
      if (stmt.index) out << '[' << stmt.index->to_string() << ']';
      out << " = " << stmt.value->to_string() << ";\n";
      break;
    case Statement::Kind::kLet:
      out << pad << "let " << stmt.target << " = " << stmt.value->to_string()
          << ";\n";
      break;
    case Statement::Kind::kLetArray:
      out << pad << "let " << stmt.target << '[' << stmt.extent << "];\n";
      break;
    case Statement::Kind::kFor:
      out << pad << "for " << stmt.target << " = " << stmt.lo << " to " << stmt.hi
          << " {\n";
      for (const Statement& inner : stmt.body) {
        render_statement(out, inner, indent + 1);
      }
      out << pad << "}\n";
      break;
    case Statement::Kind::kReturn:
      out << pad << "return " << stmt.value->to_string() << ";\n";
      break;
  }
}

}  // namespace

std::string FunctionDef::to_string() const {
  std::ostringstream out;
  out << "fn " << name << '(';
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out << ", ";
    out << params[i];
  }
  out << ") {\n";
  for (const Statement& stmt : body) render_statement(out, stmt, 1);
  out << "}\n";
  return out.str();
}

const std::shared_ptr<const FunctionDef>* FunctionLibrary::find(
    std::string_view name) const {
  for (auto it = functions.rbegin(); it != functions.rend(); ++it) {
    if ((*it)->name == name) return &*it;
  }
  return nullptr;
}

std::string CallNode::to_string() const {
  std::ostringstream out;
  out << name_ << '[';
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out << ", ";
    out << args_[i]->to_string();
  }
  out << ']';
  return out.str();
}

std::string UnaryNode::to_string() const {
  return std::string(op_ == UnaryOp::kNeg ? "-" : "!") + "(" + operand_->to_string() + ")";
}

std::string BinaryNode::to_string() const {
  const char* op = "?";
  switch (op_) {
    case BinaryOp::kAdd: op = "+"; break;
    case BinaryOp::kSub: op = "-"; break;
    case BinaryOp::kMul: op = "*"; break;
    case BinaryOp::kDiv: op = "/"; break;
    case BinaryOp::kMod: op = "%"; break;
    case BinaryOp::kEq: op = "=="; break;
    case BinaryOp::kNe: op = "!="; break;
    case BinaryOp::kLt: op = "<"; break;
    case BinaryOp::kLe: op = "<="; break;
    case BinaryOp::kGt: op = ">"; break;
    case BinaryOp::kGe: op = ">="; break;
    case BinaryOp::kAnd: op = "&&"; break;
    case BinaryOp::kOr: op = "||"; break;
  }
  return std::string("(") + lhs_->to_string() + " " + op + " " + rhs_->to_string() + ")";
}

std::string Program::to_string() const {
  std::ostringstream out;
  for (const auto& fn : local_fns) out << fn->to_string();
  for (const Statement& stmt : statements) render_statement(out, stmt, 0);
  return out.str();
}

}  // namespace pnut::expr
