//===- Solver.h - Abstract incremental SMT solver ---------------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver seam between VC generation and backends. The inlining engines
/// need exactly this interface: incremental assertion (the paper's Push),
/// scoped push/pop (for the stratified under-approximation checks),
/// checking under assumption literals, and model extraction for constants.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_SMT_SOLVER_H
#define RMT_SMT_SOLVER_H

#include "smt/Term.h"

#include <cstdint>
#include <vector>

namespace rmt {

/// Outcome of a satisfiability check.
enum class SolveResult { Sat, Unsat, Unknown };

/// Printable name of \p R ("sat", "unsat", "unknown").
const char *solveResultName(SolveResult R);

/// An incremental solver over terms of one TermArena.
class Solver {
public:
  virtual ~Solver();

  /// Conjoins \p T with the current assertion stack ("Push(e)" in Fig. 8).
  virtual void assertTerm(TermRef T) = 0;

  /// Opens / closes an assertion scope.
  virtual void push() = 0;
  virtual void pop() = 0;

  /// Checks satisfiability of the asserted formulas plus \p Assumptions
  /// (boolean literals: constants or their negations). \p TimeoutSeconds
  /// <= 0 means no timeout; a positive budget applies to this check only
  /// and may be rounded up, never down, so the backend does not give up
  /// before the caller's deadline. The engine passes its remaining wall
  /// budget on every check, so setting the budget must be cheap next to a
  /// small incremental check (the Z3 backend updates one context value).
  /// Unknown covers timeouts and resource limits.
  virtual SolveResult check(const std::vector<TermRef> &Assumptions,
                            double TimeoutSeconds) = 0;
  SolveResult check() { return check({}, 0); }

  /// Model access; valid only directly after a Sat result. \p ConstTerm must
  /// be a TermOp::Const term. Unconstrained constants yield an arbitrary
  /// value of their sort.
  virtual bool modelBool(TermRef ConstTerm) = 0;
  virtual int64_t modelInt(TermRef ConstTerm) = 0;

  /// Number of check() calls made so far.
  unsigned numChecks() const { return NumChecks; }

  /// Number of assertTerm() calls made so far (assertion-stack size as the
  /// backend sees it; scopes are not subtracted).
  unsigned numAsserts() const { return NumAsserts; }

protected:
  unsigned NumChecks = 0;
  unsigned NumAsserts = 0;
};

} // namespace rmt

#endif // RMT_SMT_SOLVER_H
