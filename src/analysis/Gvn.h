//===- Gvn.h - Value numbering and copy propagation ------------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global value numbering with copy propagation over the paper's label form.
///
/// The analysis is a forward MUST dataflow: the abstract state at a label
/// maps each in-scope variable to a value number, and carries the set of
/// value numbers known to be true on *every* path reaching the label. Value
/// numbers live in a per-procedure hash-consed value table keyed on
/// (operator, operand VNs), with commutative operands normalized, so two
/// expressions get the same number exactly when the analysis can prove they
/// always evaluate to the same value. The meet intersects variable bindings
/// and fact sets, which is what makes the propagation sound on merge-heavy
/// graphs.
///
/// On acyclic flow graphs (our programs are hierarchical, Section 3) the
/// meet-over-all-paths solution this computes dominates the classic
/// dominator-tree-scoped formulation: a fact valid on all paths to L is in
/// particular valid at L's dominators, and the intersection meet keeps
/// precisely the facts valid along every path — there are no back edges to
/// force widening. Unlike SSA-based DVNT, leaders are drawn from the
/// *current* variable binding map, so a redefinition of `y` automatically
/// retires `y` as a leader without any renaming machinery.
///
/// Copy/expression propagation consumes the solution: every statement's
/// expressions are rewritten bottom-up, replacing any subexpression whose
/// value number has a cheaper leader (a literal, else the smallest in-scope
/// variable bound to that number), which collapses `y := x; z := y + 1`
/// chains and shrinks Gen_pVC term counts directly. An assume that folds to
/// `assume false` loses its successors, letting the slicer and splicer
/// reclaim the dead region.
///
/// The rewrite is verdict-preserving: it replaces expressions with
/// provably-equal values, and only cuts the successors of an assume no
/// execution passes, so the set of feasible $err-executions is unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_ANALYSIS_GVN_H
#define RMT_ANALYSIS_GVN_H

#include "ast/AstContext.h"
#include "cfg/Cfg.h"

#include <optional>

namespace rmt {

/// What the GVN pass did.
struct GvnReport {
  /// Subexpressions replaced by a congruent leader (literal or variable).
  unsigned PropagatedExprs = 0;
  /// `assume e` labels that folded to assume false and lost their successors.
  unsigned ContradictedAssumes = 0;

  unsigned total() const { return PropagatedExprs + ContradictedAssumes; }
};

/// Runs value numbering + copy propagation over every procedure of \p Prog,
/// rewriting statements in place. Does not change the flow graph shape except
/// for cutting successors of assumes that fold to false (counted in
/// ContradictedAssumes).
GvnReport runGvn(AstContext &Ctx, CfgProgram &Prog);

} // namespace rmt

#endif // RMT_ANALYSIS_GVN_H
