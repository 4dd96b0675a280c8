//===- Gvn.h - Value numbering, copy propagation, assume elim ---*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global value numbering with copy propagation, plus assume-redundancy
/// elimination, over the paper's label form.
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
/// Two rewrites consume the solution:
///
///  * copy/expression propagation — every statement's expressions are
///    rewritten bottom-up, replacing any subexpression whose value number has
///    a cheaper leader (a literal, else the smallest in-scope variable bound
///    to that number), which collapses `y := x; z := y + 1` chains and
///    shrinks Gen_pVC term counts directly; an assume that folds to
///    `assume false` loses its successors, as in the elimination below;
///  * assume-redundancy elimination — `assume e` where vn(e) is entailed
///    true on all incoming paths becomes a skip (to be spliced), and
///    `assume e` where vn(e) is entailed false is sharpened to
///    `assume false` with its successors cut, letting the slicer and splicer
///    reclaim the dead region.
///
/// Both rewrites are verdict-preserving: they replace expressions with
/// provably-equal values and drop assumes that are implied by (or contradict)
/// the path condition, so the set of feasible $err-executions is unchanged.
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
  /// `assume e` labels proven entailed and reduced to skips.
  unsigned RedundantAssumes = 0;
  /// `assume e` labels proven contradictory and sharpened to assume false.
  unsigned ContradictedAssumes = 0;

  unsigned total() const {
    return PropagatedExprs + RedundantAssumes + ContradictedAssumes;
  }
};

/// Runs value numbering + copy propagation over every procedure of \p Prog,
/// rewriting statements in place. Does not change the flow graph shape except
/// for cutting successors of assumes that fold to false (counted in
/// ContradictedAssumes).
GvnReport runGvn(AstContext &Ctx, CfgProgram &Prog);

/// Runs only the assume-redundancy elimination (entailment via the same value
/// numbering, but without rewriting non-assume statements). Exposed as its
/// own pass so pipelines can order propagation and elimination independently.
GvnReport runAssumeElim(AstContext &Ctx, CfgProgram &Prog);

} // namespace rmt

#endif // RMT_ANALYSIS_GVN_H
