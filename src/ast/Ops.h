//===- Ops.h - Operator enums -----------------------------------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unary and binary operators shared by the AST, the evaluator, the type
/// checker and the SMT term layer, plus the one integer division/remainder
/// folder the evaluator and GVN's literal folding both call.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_AST_OPS_H
#define RMT_AST_OPS_H

#include <cstdint>

namespace rmt {

/// Unary operators.
enum class UnOp {
  Not, ///< boolean negation
  Neg, ///< integer negation
};

/// Binary operators.
enum class BinOp {
  // int x int -> int
  Add,
  Sub,
  Mul,
  Div, ///< Euclidean division, SMT-LIB `div`
  Mod, ///< Euclidean remainder, SMT-LIB `mod`
  // T x T -> bool
  Eq,
  Ne,
  // int x int -> bool
  Lt,
  Le,
  Gt,
  Ge,
  // bool x bool -> bool
  And,
  Or,
  Implies,
  Iff,
};

/// True for operators whose operands are integers.
inline bool isArithOp(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
  case BinOp::Sub:
  case BinOp::Mul:
  case BinOp::Div:
  case BinOp::Mod:
  case BinOp::Lt:
  case BinOp::Le:
  case BinOp::Gt:
  case BinOp::Ge:
    return true;
  default:
    return false;
  }
}

/// True for operators producing a boolean.
inline bool isPredicateOp(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
  case BinOp::Sub:
  case BinOp::Mul:
  case BinOp::Div:
  case BinOp::Mod:
    return false;
  default:
    return true;
  }
}

/// True for the boolean connectives.
inline bool isLogicalOp(BinOp Op) {
  switch (Op) {
  case BinOp::And:
  case BinOp::Or:
  case BinOp::Implies:
  case BinOp::Iff:
    return true;
  default:
    return false;
  }
}

/// SMT-LIB Euclidean remainder: the result lies in [0, |B|). \p B must be
/// nonzero (x mod 0 is uninterpreted in SMT-LIB).
inline int64_t euclideanMod(int64_t A, int64_t B) {
  if (B == -1) // every A mod -1 is 0, but INT64_MIN % -1 traps
    return 0;
  int64_t R = A % B;
  if (R < 0)
    R += (B > 0) ? B : -B;
  return R;
}

/// SMT-LIB Euclidean division: the q with A == q*B + euclideanMod(A, B).
/// \p B must be nonzero, and INT64_MIN div -1 overflows.
inline int64_t euclideanDiv(int64_t A, int64_t B) {
  return (A - euclideanMod(A, B)) / B;
}

/// Surface-syntax spelling of \p Op.
const char *spelling(UnOp Op);
/// Surface-syntax spelling of \p Op.
const char *spelling(BinOp Op);

} // namespace rmt

#endif // RMT_AST_OPS_H
