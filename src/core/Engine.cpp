//===- Engine.cpp ---------------------------------------------------------===//

#include "core/Engine.h"

#include "smt/Z3Solver.h"

#include <algorithm>
#include <cassert>

using namespace rmt;

void VerifyResult::record(Stats &S) const {
  S.add("engine.inlined", static_cast<int64_t>(NumInlined));
  S.add("engine.merged", static_cast<int64_t>(NumMerged));
  S.add("engine.solver_checks", static_cast<int64_t>(NumSolverChecks));
  S.add("engine.under_checks", static_cast<int64_t>(NumUnderChecks));
  S.add("engine.over_checks", static_cast<int64_t>(NumOverChecks));
  S.add("engine.iterations", static_cast<int64_t>(NumIterations));
  S.add("engine.disj_queries", static_cast<int64_t>(NumDisjQueries));
  S.add("engine.verdict." + std::string(verdictName(Outcome)));
  S.addTime("engine.seconds", Seconds);
  S.addTime("engine.solver.seconds", SolverSeconds);
  S.addTime("engine.merge_lookup.seconds", MergeLookupSeconds);
}

const char *rmt::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Bug:
    return "bug";
  case Verdict::Safe:
    return "safe";
  case Verdict::Timeout:
    return "timeout";
  case Verdict::ResourceOut:
    return "resourceout";
  case Verdict::Unknown:
    return "unknown";
  }
  return "?";
}

namespace {

class Engine {
public:
  Engine(const AstContext &Ctx, const CfgProgram &Prog, ProcId Entry,
         std::optional<Symbol> ErrGlobal, const EngineOptions &Opts)
      : Ctx(Ctx), Prog(Prog), Entry(Entry), ErrGlobal(ErrGlobal), Opts(Opts),
        Budget(Opts.TimeoutSeconds),
        Solver(createZ3Solver(Arena, Opts.Telemetry)),
        Vc(Ctx, Prog, Arena, Opts.Pvc,
           [this](TermRef T) { Solver->assertTerm(T); }),
        Disj(Prog), Checker(Vc, Disj),
        Strategy(createStrategy(Opts.Strategy, Prog, Disj, Entry)) {}

  VerifyResult run() {
    TraceSpan RunSpan(Opts.Telemetry, "engine.run",
                      {{"entry", Ctx.name(Prog.proc(Entry).Name)},
                       {"mode", Opts.Eager ? "eager" : "stratified"},
                       {"strategy", strategyName(Opts.Strategy.Kind)}});
    NodeId Root = genPvc(Entry);
    Checker.onNewNode(Root);
    Strategy->noteNewNode(Root, InvalidEdge);

    // Line 28: Push(Control[Root]); plus the error-bit query.
    Solver->assertTerm(Vc.node(Root).Control);
    if (assertErrorQuery(Root)) {
      if (Opts.Eager)
        runEager(Root);
      else
        runStratified(Root);
    }
    RunSpan.note({"verdict", verdictName(Result.Outcome)});
    return finish();
  }

private:
  /// Asserts the error-bit query on \p Root: the Out-interface term of the
  /// error global (a boolean constant) must hold on exit. Without an error
  /// global the query is plain termination reachability. Fails closed when
  /// the error global is not among the program's globals.
  bool assertErrorQuery(NodeId Root) {
    if (!ErrGlobal)
      return true;
    for (size_t I = 0; I < Prog.Globals.size(); ++I)
      if (Prog.Globals[I].Name == *ErrGlobal) {
        Solver->assertTerm(Vc.node(Root).Out[I]);
        return true;
      }
    fail("error global '" + Ctx.name(*ErrGlobal) +
         "' is not a program global");
    return false;
  }

  /// Gen_pVC(\p Q) under a vc.gen_pvc span. Each clause goes straight to the
  /// solver as it is made, so the span also covers its translation and
  /// assertion.
  NodeId genPvc(ProcId Q) {
    TraceSpan Span(Opts.Telemetry, "vc.gen_pvc",
                   {{"proc", Ctx.name(Prog.proc(Q).Name)}});
    NodeId N = Vc.genPvc(Q);
    Span.note({"clauses", Vc.node(N).Clauses.size()});
    return N;
  }

  /// Fails closed on a broken engine invariant: the run ends Unknown with
  /// \p Why as its diagnostic instead of relying on an assert that release
  /// builds compile out.
  void fail(std::string Why) {
    Result.Outcome = Verdict::Unknown;
    Result.Diagnostic = std::move(Why);
    if (Trace *T = Opts.Telemetry; T && T->enabled())
      T->instant("engine.invariant_failure",
                 {{"diagnostic", Result.Diagnostic}});
  }

  VerifyResult finish() {
    Result.Seconds = Budget.elapsed();
    Result.NumInlined = Vc.numInlined();
    Result.NumSolverChecks = Solver->numChecks();
    Result.NumDisjQueries = Checker.numDisjQueries();
    if (Trace *T = Opts.Telemetry; T && T->enabled())
      T->instant("engine.verdict",
                 {{"verdict", verdictName(Result.Outcome)},
                  {"inlined", Result.NumInlined},
                  {"merged", Result.NumMerged},
                  {"solver_checks", Result.NumSolverChecks},
                  {"iterations", Result.NumIterations}});
    return Result;
  }

  bool outOfTime() {
    if (!Budget.expired())
      return false;
    Result.Outcome = Verdict::Timeout;
    return true;
  }

  bool overInlineLimit() {
    if (Vc.numInlined() <= Opts.MaxInlined)
      return false;
    Result.Outcome = Verdict::ResourceOut;
    return true;
  }

  /// Resolves open edge \p C: ask the strategy for a compatible node, else
  /// inline a fresh copy; bind either way.
  void resolveEdge(EdgeId C) {
    uint64_t DisjBefore = Checker.numDisjQueries();
    Stopwatch PickWatch;
    std::optional<NodeId> Picked = Strategy->pick(Vc, Checker, C);
    double PickSeconds = PickWatch.seconds();
    Result.MergeLookupSeconds += PickSeconds;

    NodeId N;
    if (Picked) {
      assert(Checker.canBind(C, *Picked) &&
             "strategy returned an incompatible node");
      N = *Picked;
      ++Result.NumMerged;
    } else {
      N = genPvc(Vc.edge(C).Callee);
      Checker.onNewNode(N);
      Strategy->noteNewNode(N, C);
    }
    if (Trace *T = Opts.Telemetry; T && T->enabled())
      T->instant(Picked ? "engine.merge" : "engine.inline",
                 {{"callee", Ctx.name(Prog.proc(Vc.edge(C).Callee).Name)},
                  {"disj_queries", Checker.numDisjQueries() - DisjBefore},
                  {"lookup_us", PickSeconds * 1e6}});
    Vc.bindEdge(C, N);
    Checker.onBind(C, N);
  }

  /// One solver check with telemetry and the per-check stat split. \p Under
  /// marks the under-approximate (open edges blocked) check; the eager
  /// engine's single exact check also counts as under (no open edges left).
  SolveResult timedCheck(const std::vector<TermRef> &Assumptions,
                         bool Under) {
    TraceSpan Span(Opts.Telemetry,
                   Under ? "engine.under_check" : "engine.over_check",
                   {{"open_edges", Vc.openEdges().size()}});
    Stopwatch Watch;
    SolveResult R = Solver->check(Assumptions, checkBudget());
    Result.SolverSeconds += Watch.seconds();
    if (Under)
      ++Result.NumUnderChecks;
    else
      ++Result.NumOverChecks;
    Span.note({"result", solveResultName(R)});
    return R;
  }

  void runEager(NodeId /*Root*/) {
    // Fully unfold: FIFO over open edges.
    while (!Vc.openEdges().empty()) {
      if (outOfTime() || overInlineLimit())
        return;
      resolveEdge(Vc.openEdges().front());
    }
    Result.NumIterations = 1;
    if (Opts.SkipSolve)
      return; // size-only run; Outcome stays Unknown by design
    switch (timedCheck({}, /*Under=*/true)) {
    case SolveResult::Sat:
      Result.Outcome = Verdict::Bug;
      extractTrace();
      return;
    case SolveResult::Unsat:
      Result.Outcome = Verdict::Safe;
      return;
    case SolveResult::Unknown:
      Result.Outcome = Budget.expired() ? Verdict::Timeout : Verdict::Unknown;
      return;
    }
  }

  void runStratified(NodeId /*Root*/) {
    for (;;) {
      ++Result.NumIterations;
      TraceSpan Iter(Opts.Telemetry, "engine.iteration",
                     {{"iteration", Result.NumIterations},
                      {"open_edges", Vc.openEdges().size()},
                      {"inlined", Vc.numInlined()}});
      std::vector<EdgeId> Frontier;
      bool Settled = runChecks(Frontier);
      Iter.note({"frontier", Frontier.size()});
      if (Settled)
        return;
      for (EdgeId E : Frontier) {
        if (outOfTime() || overInlineLimit())
          return;
        resolveEdge(E);
      }
    }
  }

  /// The checks of one stratified iteration. Returns true once they settle
  /// Result.Outcome; otherwise fills \p Frontier with the open edges the
  /// over-approximate model enters (the ones to inline next) and returns
  /// false.
  bool runChecks(std::vector<EdgeId> &Frontier) {
    if (outOfTime() || overInlineLimit())
      return true;

    // Under-approximate check: block every open call. A model is an
    // execution entirely within the inlined region — a real bug.
    std::vector<TermRef> Blocked;
    for (EdgeId E : Vc.openEdges())
      Blocked.push_back(Arena.mkNot(Vc.edge(E).Control));
    switch (timedCheck(Blocked, /*Under=*/true)) {
    case SolveResult::Sat:
      Result.Outcome = Verdict::Bug;
      extractTrace();
      return true;
    case SolveResult::Unsat:
      break;
    case SolveResult::Unknown:
      Result.Outcome = Budget.expired() ? Verdict::Timeout : Verdict::Unknown;
      return true;
    }

    // Fully inlined and under-approximation unsat: exact answer.
    if (Vc.openEdges().empty()) {
      Result.Outcome = Verdict::Safe;
      return true;
    }

    // Over-approximate check: open calls stay havoc summaries. Unsat here
    // proves safety without further inlining (SI's early stop).
    switch (timedCheck({}, /*Under=*/false)) {
    case SolveResult::Unsat:
      Result.Outcome = Verdict::Safe;
      return true;
    case SolveResult::Unknown:
      Result.Outcome = Budget.expired() ? Verdict::Timeout : Verdict::Unknown;
      return true;
    case SolveResult::Sat:
      break;
    }

    // The frontier: open edges the abstract counterexample enters.
    for (EdgeId E : Vc.openEdges())
      if (Solver->modelBool(Vc.edge(E).Control))
        Frontier.push_back(E);
    // A model avoiding every open call would have satisfied the
    // under-approximate check; re-checking the same VC cannot progress.
    if (Frontier.empty()) {
      fail("over-approximate model enters no open call");
      return true;
    }
    return false;
  }

  /// Per-check solver timeout from the remaining wall budget.
  double checkBudget() {
    if (!Budget.enabled())
      return 0;
    double Left = Budget.remaining();
    return Left < 0.001 ? 0.001 : Left;
  }

  //===--------------------------------------------------------------------===//
  // Trace reconstruction
  //===--------------------------------------------------------------------===//

  void extractTrace() { traceNode(0); }

  void traceNode(NodeId N) {
    const VcNode &Node = Vc.node(N);
    // Guard against pathological model shapes; flow graphs are acyclic so
    // |labels| steps suffice.
    size_t Fuel = Prog.proc(Node.Proc).Labels.size() + 1;
    LabelId Y = Node.Entry;
    if (!Solver->modelBool(Node.BlockConst.at(Y)))
      return;
    while (Fuel--) {
      TraceStep Step{Node.Proc, Y, Prog.label(Y).Loc, {}};
      // Capture the globals' model values at this label's entry state.
      const VarTermMap &Vars = Node.VarsAt.at(Y);
      Step.GlobalValues.reserve(Prog.Globals.size());
      for (const VarDecl &G : Prog.Globals) {
        TermRef T = Vars.at(G.Name);
        if (G.Ty->isBool())
          Step.GlobalValues.push_back(Solver->modelBool(T) ? 1 : 0);
        else if (G.Ty->isInt() || G.Ty->isBv())
          Step.GlobalValues.push_back(Solver->modelInt(T));
        else
          Step.GlobalValues.push_back(0); // arrays are not rendered
      }
      Result.Trace.push_back(std::move(Step));
      const CfgLabel &Lbl = Prog.label(Y);
      if (Lbl.Stmt.Kind == CfgStmtKind::Call) {
        // Control[edge] equals BS[Y]; if the edge is bound and taken,
        // descend into the callee instance.
        for (EdgeId E : Node.OutEdges) {
          const VcEdge &Edge = Vc.edge(E);
          if (Edge.CallSite == Y && !Edge.isOpen() &&
              Solver->modelBool(Edge.Control)) {
            traceNode(Edge.Dest);
            break;
          }
        }
      }
      LabelId Next = InvalidLabel;
      for (LabelId T : Lbl.Targets)
        if (Solver->modelBool(Node.BlockConst.at(T))) {
          Next = T;
          break;
        }
      if (Next == InvalidLabel)
        return; // procedure exit
      Y = Next;
    }
  }

  const AstContext &Ctx;
  const CfgProgram &Prog;
  ProcId Entry;
  std::optional<Symbol> ErrGlobal;
  const EngineOptions &Opts;
  Deadline Budget;
  TermArena Arena;
  std::unique_ptr<rmt::Solver> Solver;
  VcContext Vc;
  DisjointAnalysis Disj;
  ConsistencyChecker Checker;
  std::unique_ptr<MergeStrategy> Strategy;
  VerifyResult Result;
};

} // namespace

VerifyResult rmt::solveReachability(const AstContext &Ctx,
                                    const CfgProgram &Prog, ProcId Entry,
                                    std::optional<Symbol> ErrGlobal,
                                    const EngineOptions &Opts) {
  // Construction is the Z3 context, VcContext, the Disj_blk precompute and
  // the strategy: a fixed cost per verify that the checks do not show.
  TraceSpan SetupSpan(Opts.Telemetry, "engine.setup");
  std::optional<Engine> E(std::in_place, Ctx, Prog, Entry, ErrGlobal, Opts);
  SetupSpan.close();
  VerifyResult R = E->run();
  // Destruction frees the Z3 context, the term arena and the VC: a fixed
  // cost per verify like construction, paid after the verdict is known.
  TraceSpan TeardownSpan(Opts.Telemetry, "engine.teardown");
  E.reset();
  return R;
}
