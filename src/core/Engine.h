//===- Engine.h - Eager, stratified and DAG-inlining engines ----*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reachability engines of Section 4:
///
///  * Eager     — inline every open edge up front (tree unless a merging
///                strategy is given), then one solver call. This is the
///                CBMC-style baseline of Fig. 3 and the full-inlining mode
///                of Figs. 4/17.
///  * Stratified— Corral's stratified inlining: keep open edges as havoc
///                summaries; alternate an under-approximate check (all open
///                edges blocked — SAT means a real bug) with an
///                over-approximate check (open edges free — UNSAT means
///                safe), inlining the open edges the over-approximate model
///                steps into. With the NONE strategy this is SI; with any
///                merging strategy it is DI ("We implemented DAG inlining
///                using the framework of SI").
///
/// The engine owns the TermArena, the solver, the VcContext, the
/// DisjointAnalysis/ConsistencyChecker pair and the strategy, and reports
/// the statistics the paper's tables use (#inlined, times, solver calls,
/// merge-lookup overhead).
///
//===----------------------------------------------------------------------===//

#ifndef RMT_CORE_ENGINE_H
#define RMT_CORE_ENGINE_H

#include "core/Strategies.h"
#include "core/VcGen.h"
#include "smt/Solver.h"
#include "support/Stats.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <optional>

namespace rmt {

/// Outcome of one engine run.
enum class Verdict {
  Bug,         ///< a terminating execution reaching the error bit exists
  Safe,        ///< no such execution within the bound
  Timeout,     ///< wall-clock budget exhausted (paper's #TO)
  ResourceOut, ///< inlining limit exceeded (paper's spaceout)
  Unknown,     ///< solver gave up
};

/// Printable name of \p V.
const char *verdictName(Verdict V);

/// One step of a counterexample trace.
struct TraceStep {
  ProcId Proc = InvalidProc;
  LabelId Label = InvalidLabel;
  SrcLoc Loc;
  /// Model value of each global (aligned with CfgProgram::Globals) at this
  /// label's entry; booleans as 0/1, arrays as 0 (not rendered).
  std::vector<int64_t> GlobalValues;
};

/// Result and statistics of one engine run.
struct VerifyResult {
  Verdict Outcome = Verdict::Unknown;
  double Seconds = 0;
  /// Gen_pVC invocations — the paper's "#Inlined".
  size_t NumInlined = 0;
  /// Open-edge bindings that reused an existing node. Every frontier edge
  /// (the `frontier` argument of an `engine.iteration` span) is inlined or
  /// merged, so unless a timeout or the inline limit cuts the run short the
  /// frontiers sum to NumInlined - 1 (the root) + NumMerged.
  size_t NumMerged = 0;
  size_t NumSolverChecks = 0;
  /// NumSolverChecks split by check kind: under-approximate (all open edges
  /// blocked; the eager engine's single exact check counts here — it has no
  /// open edges left) vs over-approximate (open edges free).
  size_t NumUnderChecks = 0;
  size_t NumOverChecks = 0;
  /// Wall time spent inside Solver::check across all checks.
  double SolverSeconds = 0;
  size_t NumIterations = 0;
  /// Wall time spent inside strategy picks (the paper reports 0.4% for
  /// FIRST).
  double MergeLookupSeconds = 0;
  uint64_t NumDisjQueries = 0;
  /// Why the run ended Unknown on a broken engine invariant (empty
  /// otherwise).
  std::string Diagnostic;
  /// On Bug: an error trace (pre-order over the inlining structure).
  std::vector<TraceStep> Trace;

  /// Records everything above (minus the trace and diagnostic) into \p S
  /// under "engine.*" keys, for --stats/--stats-json style reporting.
  void record(Stats &S) const;
};

/// Engine configuration.
struct EngineOptions {
  /// Merging strategy. None = tree inlining (plain SI / eager tree).
  StrategyOptions Strategy;
  /// pVC generation mode: the passified generator in production, or the
  /// paper's literal Gen_pVC as the oracle (see PvcMode).
  PvcMode Pvc = PvcMode::Passified;
  /// Wall-clock budget; <= 0 disables.
  double TimeoutSeconds = 0;
  /// Eager mode: fully inline before the single solver call.
  bool Eager = false;
  /// Eager mode: skip solving (size-only experiments, Figs. 4/17).
  bool SkipSolve = false;
  /// Abort with ResourceOut past this many inlined instances.
  size_t MaxInlined = 1u << 20;
  /// Optional event recorder (see support/Trace.h). The engine emits
  /// per-iteration spans, under-/over-approximate check spans, one instant
  /// event per inline/merge decision, and a final verdict event. Null or
  /// disabled costs one branch per site.
  rmt::Trace *Telemetry = nullptr;
};

/// Decides the reachability query "does \p Entry have a terminating
/// execution in which global \p ErrGlobal is true on exit?" over the
/// hierarchical program \p Prog. When \p ErrGlobal is nullopt the query is
/// plain termination reachability (Definition 1).
VerifyResult solveReachability(const AstContext &Ctx, const CfgProgram &Prog,
                               ProcId Entry, std::optional<Symbol> ErrGlobal,
                               const EngineOptions &Opts);

} // namespace rmt

#endif // RMT_CORE_ENGINE_H
