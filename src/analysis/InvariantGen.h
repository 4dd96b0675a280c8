//===- InvariantGen.h - Invariant inference and injection -------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "+Inv" prepass of Section 4. Corral runs invariant generation and
/// injects every inferred invariant as an assume statement; we reproduce the
/// mechanism with a two-phase interval analysis over the call DAG:
///
///  phase 1 (callees first): context-insensitive exit summaries — intervals
///           for globals and returns on procedure exit;
///  phase 2: a least-fixpoint (ascending Kleene) iteration computing, at
///           once, every procedure's entry invariant (join over all call
///           contexts reachable from the root) and its *contextual* exit
///           summary. Entries and summaries are mutually dependent (a later
///           call's context uses an earlier call's summary), so the
///           iteration runs to a post-fixpoint with interval widening after
///           a few rounds to force convergence.
///
/// Each intraprocedural step is a forward DataflowSolver analysis
/// (Dataflow.h) over the interval store AbsEnv; call-site contexts and exit
/// summaries are read off the solved states.
///
/// injectInvariants() materializes the results the way Corral consumes
/// Houdini output: each procedure's entry invariant becomes an `assume`
/// label spliced in front of its entry, and each call site gets an `assume`
/// of the callee's contextual exit summary spliced after it. The call-site
/// assumes are what prune the stratified engines' havoc summaries of *open*
/// calls — the effect Section 4 describes ("invariants can be a powerful
/// mechanism to prune search; in the limit the search can conclude
/// trivially"). Sound by construction: every interval over-approximates all
/// reachable states, so no feasible execution is excluded.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_ANALYSIS_INVARIANTGEN_H
#define RMT_ANALYSIS_INVARIANTGEN_H

#include "analysis/Dataflow.h"
#include "analysis/Interval.h"
#include "ast/AstContext.h"
#include "cfg/Cfg.h"

#include <string>
#include <algorithm>
#include <utility>
#include <vector>

namespace rmt {

/// An abstract store: missing variables are top; Bottom means unreachable.
/// Bounded variables are kept sorted by symbol in a flat vector, so copies
/// (one per label and state) are a single allocation.
class AbsEnv {
public:
  static AbsEnv bottomEnv() {
    AbsEnv E;
    E.Bottom = true;
    return E;
  }

  bool isBottom() const { return Bottom; }

  Interval get(Symbol Var) const {
    if (Bottom)
      return Interval::bottom();
    size_t K = position(Var);
    return K < Vals.size() && Vals[K].first == Var ? Vals[K].second
                                                   : Interval::top();
  }

  /// Setting any variable to bottom collapses the whole env to bottom.
  void set(Symbol Var, const Interval &I) {
    if (Bottom)
      return;
    if (I.isBottom()) {
      Bottom = true;
      Vals.clear();
      return;
    }
    size_t K = position(Var);
    bool Found = K < Vals.size() && Vals[K].first == Var;
    if (I.isTop()) {
      if (Found)
        Vals.erase(Vals.begin() + K);
    } else if (Found) {
      Vals[K].second = I;
    } else {
      Vals.insert(Vals.begin() + K, {Var, I});
    }
  }

  /// Pointwise interval hull. Returns true when this env changed.
  bool joinWith(const AbsEnv &O);

  friend bool operator==(const AbsEnv &A, const AbsEnv &B) {
    if (A.Bottom || B.Bottom)
      return A.Bottom == B.Bottom;
    return A.Vals == B.Vals;
  }

  /// Standard interval widening of \p New against the previous iterate
  /// \p Old (requires New ⊒ Old): any bound that moved is dropped, which
  /// forces the ascending iteration to converge.
  static AbsEnv widen(const AbsEnv &Old, const AbsEnv &New);

private:
  using Binding = std::pair<Symbol, Interval>;

  /// Index of the first binding whose symbol is not below \p Var.
  size_t position(Symbol Var) const {
    return std::lower_bound(
               Vals.begin(), Vals.end(), Var,
               [](const Binding &B, Symbol V) { return B.first < V; }) -
           Vals.begin();
  }

  bool Bottom = false;
  std::vector<Binding> Vals;
};

/// Whole-program interval analysis results.
class IntervalAnalysis {
public:
  /// Analyzes \p Prog with \p Entry as the root context.
  IntervalAnalysis(const CfgProgram &Prog, ProcId Entry);

  /// Entry invariant of \p P: intervals of globals and parameters holding on
  /// every entry reachable from the root. Bottom when \p P is unreachable.
  const AbsEnv &entryEnv(ProcId P) const { return EntryEnvs[P]; }

  /// Context-insensitive exit summary of \p P (globals and returns).
  const AbsEnv &exitSummary(ProcId P) const { return ExitSummaries[P]; }

  /// Exit summary of \p P under its phase-2 entry invariant. Bottom when
  /// unreachable from the root.
  const AbsEnv &contextExitSummary(ProcId P) const {
    return ContextExitSummaries[P];
  }

private:
  /// Solves \p P's body with \p Entry as the entry state and returns its
  /// exit summary. Call post-states come from \p CallSummaries. When
  /// \p Record is set, call-site contexts are accumulated into EntryEnvs of
  /// the callees.
  AbsEnv analyzeProc(ProcId P, const AbsEnv &Entry,
                     const std::vector<AbsEnv> &CallSummaries, bool Record);

  const CfgProgram &Prog;
  /// Flow graph of every procedure, built once for all rounds.
  std::vector<ProcFlow> Flows;
  std::vector<AbsEnv> EntryEnvs;
  std::vector<AbsEnv> ExitSummaries;
  std::vector<AbsEnv> ContextExitSummaries;
};

/// Result of invariant injection.
struct InvariantReport {
  unsigned ProcsAnnotated = 0;
  unsigned Conjuncts = 0;
};

/// Runs the analysis rooted at \p Entry and splices each non-trivial entry
/// invariant into \p Prog as an assume label before the procedure entry.
InvariantReport injectInvariants(AstContext &Ctx, CfgProgram &Prog,
                                 ProcId Entry);

} // namespace rmt

#endif // RMT_ANALYSIS_INVARIANTGEN_H
