//===- bench_micro.cpp - Microbenchmarks (google-benchmark) -----------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// Microbenchmarks for the paper's complexity claims (Section 3.3): the
// Disj_blk preprocessing is quadratic per procedure and linear in the
// number of procedures; a disjointness query is O(1) after preprocessing;
// the incremental compatibility check is cheap enough that "one can invest
// in more aggressive merging without adding overhead". Plus throughput
// baselines for pVC generation, term construction, parsing, the
// evaluator, and the fixed cost of one incremental solver check.
//
//===--------------------------------------------------------------------===//

#include "ast/AstPrinter.h"
#include "ast/Eval.h"
#include "cfg/Lower.h"
#include "core/Consistency.h"
#include "core/Engine.h"
#include "core/Strategies.h"
#include "parser/Parser.h"
#include "smt/Z3Solver.h"
#include "support/Timer.h"
#include "transform/Transforms.h"
#include "workload/Chain.h"
#include "workload/SdvGen.h"

#include <benchmark/benchmark.h>

using namespace rmt;

namespace {

struct Prepared {
  AstContext Ctx;
  CfgProgram Cfg;
  ProcId Root = InvalidProc;
};

std::unique_ptr<Prepared> prepareDriver(unsigned Depth) {
  auto P = std::make_unique<Prepared>();
  SdvParams Params;
  Params.Seed = 5;
  Params.NumHandlers = 4;
  Params.NumUtils = 5;
  Params.UtilDepth = Depth;
  Program Prog = makeSdvProgram(P->Ctx, Params);
  BoundedInstance B = prepareBounded(P->Ctx, Prog, P->Ctx.sym("main"), 1);
  P->Cfg = lowerToCfg(P->Ctx, B.Prog);
  P->Root = P->Cfg.findProc(P->Ctx.sym("main"));
  return P;
}

void BM_DisjBlkPrecompute(benchmark::State &State) {
  auto P = prepareDriver(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    DisjointAnalysis D(P->Cfg);
    benchmark::DoNotOptimize(&D);
  }
  State.SetLabel(std::to_string(P->Cfg.Labels.size()) + " labels");
}
BENCHMARK(BM_DisjBlkPrecompute)->Arg(3)->Arg(5)->Arg(7);

void BM_DisjBlkQuery(benchmark::State &State) {
  auto P = prepareDriver(5);
  DisjointAnalysis D(P->Cfg);
  // Collect call labels of main for querying.
  std::vector<LabelId> Calls;
  for (LabelId L : P->Cfg.proc(P->Root).Labels)
    if (P->Cfg.label(L).Stmt.Kind == CfgStmtKind::Call)
      Calls.push_back(L);
  size_t I = 0;
  for (auto _ : State) {
    LabelId A = Calls[I % Calls.size()];
    LabelId B = Calls[(I + 1) % Calls.size()];
    benchmark::DoNotOptimize(D.disjointLabels(A, B));
    ++I;
  }
}
BENCHMARK(BM_DisjBlkQuery);

void BM_GenPvc(benchmark::State &State) {
  auto P = prepareDriver(4);
  for (auto _ : State) {
    TermArena Arena;
    VcContext Vc(P->Ctx, P->Cfg, Arena, EngineOptions().Pvc);
    benchmark::DoNotOptimize(Vc.genPvc(P->Root));
  }
}
BENCHMARK(BM_GenPvc);

void BM_FullDagInline(benchmark::State &State) {
  auto P = prepareDriver(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    TermArena Arena;
    VcContext Vc(P->Ctx, P->Cfg, Arena, EngineOptions().Pvc);
    DisjointAnalysis Disj(P->Cfg);
    ConsistencyChecker Check(Vc, Disj);
    StrategyOptions Opts;
    std::unique_ptr<MergeStrategy> S =
        createStrategy(Opts, P->Cfg, Disj, P->Root);
    NodeId Root = Vc.genPvc(P->Root);
    Check.onNewNode(Root);
    S->noteNewNode(Root, InvalidEdge);
    while (!Vc.openEdges().empty()) {
      EdgeId E = Vc.openEdges().front();
      std::optional<NodeId> Pick = S->pick(Vc, Check, E);
      NodeId N;
      if (Pick) {
        N = *Pick;
      } else {
        N = Vc.genPvc(Vc.edge(E).Callee);
        Check.onNewNode(N);
        S->noteNewNode(N, E);
      }
      Vc.bindEdge(E, N);
      Check.onBind(E, N);
    }
    State.counters["nodes"] = static_cast<double>(Vc.numInlined());
  }
}
BENCHMARK(BM_FullDagInline)->Arg(3)->Arg(5);

void BM_ConsistencyFullCheck(benchmark::State &State) {
  auto P = prepareDriver(5);
  TermArena Arena;
  VcContext Vc(P->Ctx, P->Cfg, Arena, EngineOptions().Pvc);
  DisjointAnalysis Disj(P->Cfg);
  ConsistencyChecker Check(Vc, Disj);
  StrategyOptions Opts;
  std::unique_ptr<MergeStrategy> S =
      createStrategy(Opts, P->Cfg, Disj, P->Root);
  NodeId Root = Vc.genPvc(P->Root);
  Check.onNewNode(Root);
  while (!Vc.openEdges().empty()) {
    EdgeId E = Vc.openEdges().front();
    std::optional<NodeId> Pick = S->pick(Vc, Check, E);
    NodeId N = InvalidNode;
    if (Pick) {
      N = *Pick;
    } else {
      N = Vc.genPvc(Vc.edge(E).Callee);
      Check.onNewNode(N);
    }
    Vc.bindEdge(E, N);
    Check.onBind(E, N);
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(Check.isConsistentFull());
  State.SetLabel(std::to_string(Vc.numNodes()) + " nodes");
}
BENCHMARK(BM_ConsistencyFullCheck);

void BM_TermConstruction(benchmark::State &State) {
  AstContext Ctx;
  for (auto _ : State) {
    TermArena Arena;
    TermRef X = Arena.freshConst(Ctx.intType(), "x");
    TermRef Acc = Arena.intLit(0);
    for (int I = 0; I < 1000; ++I)
      Acc = Arena.mkAdd(Acc, Arena.mkMul(X, Arena.intLit(I)));
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_TermConstruction);

void BM_ParseAndCheck(benchmark::State &State) {
  AstContext GenCtx;
  Program Chain = makeChainProgram(GenCtx, 20);
  std::string Source = printProgram(GenCtx, Chain);
  for (auto _ : State) {
    AstContext Ctx;
    DiagEngine Diags;
    auto P = parseAndCheck(Source, Ctx, Diags);
    benchmark::DoNotOptimize(P);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Source.size()));
}
BENCHMARK(BM_ParseAndCheck);

void BM_Evaluator(benchmark::State &State) {
  AstContext Ctx;
  SdvParams Params;
  Params.Seed = 3;
  Program P = makeSdvProgram(Ctx, Params);
  uint64_t Seed = 0;
  for (auto _ : State) {
    EvalOptions Opts;
    Opts.Seed = Seed++;
    benchmark::DoNotOptimize(evaluate(Ctx, P, Ctx.sym("main"), Opts));
  }
}
BENCHMARK(BM_Evaluator);

/// One trivial incremental check under one assumption literal, the shape of
/// most of the engine's checks. Arg 1 passes a per-check budget the way the
/// engine does (the deadline's remaining seconds), Arg 0 passes none. The two
/// should stay within a small factor of each other: setting the budget
/// through Z3_solver_set_params cost about 1.7 ms per check, some thirty
/// times the check itself.
void BM_Z3CheckTrivial(benchmark::State &State) {
  AstContext Ctx;
  TermArena Arena;
  auto S = createZ3Solver(Arena);
  TermRef X = Arena.freshConst(Ctx.intType(), "x");
  TermRef B = Arena.freshConst(Ctx.boolType(), "b");
  S->assertTerm(Arena.mkImplies(B, Arena.mkLt(X, Arena.intLit(0))));
  bool Budgeted = State.range(0) != 0;
  Deadline Budget(3600);
  for (auto _ : State)
    benchmark::DoNotOptimize(S->check({B}, Budgeted ? Budget.remaining() : 0));
  State.SetLabel(Budgeted ? "timeout" : "no timeout");
}
BENCHMARK(BM_Z3CheckTrivial)->Arg(0)->Arg(1);

/// The fixed solver cost of one verify: create a solver, assert one clause,
/// run one check under one assumption literal, destroy it. Z3_mk_solver's
/// combined solver built Z3's whole default tactic on the first assertion,
/// about 6 ms here; the plain incremental solver does not.
void BM_Z3FreshSolver(benchmark::State &State) {
  AstContext Ctx;
  for (auto _ : State) {
    TermArena Arena;
    auto S = createZ3Solver(Arena);
    TermRef X = Arena.freshConst(Ctx.intType(), "x");
    TermRef B = Arena.freshConst(Ctx.boolType(), "b");
    S->assertTerm(Arena.mkImplies(B, Arena.mkLt(X, Arena.intLit(0))));
    benchmark::DoNotOptimize(S->check({B}, 0));
  }
}
BENCHMARK(BM_Z3FreshSolver)->Unit(benchmark::kMillisecond);

/// One incremental Sat check on a fixed chain-shaped formula, then one model
/// read: the shape of the engine's over-approximate checks, which read only
/// a Boolean control or two from a model that Z3 builds over every constant.
/// Arg is the number of links; link i is c_i ==> x_{i+1} = x_i + 1, and the
/// check assumes the last control. Z3's default model.compact=true compacted
/// that whole model on every Sat check, about half of Z3_solver_get_model's
/// time in the engine.
void BM_Z3ModelAfterCheck(benchmark::State &State) {
  AstContext Ctx;
  TermArena Arena;
  auto S = createZ3Solver(Arena);
  TermRef X = Arena.freshConst(Ctx.intType(), "x");
  TermRef C = X;
  for (int64_t I = 0; I < State.range(0); ++I) {
    C = Arena.freshConst(Ctx.boolType(), "c");
    TermRef Next = Arena.freshConst(Ctx.intType(), "x");
    S->assertTerm(Arena.mkImplies(
        C, Arena.mkEq(Next, Arena.mkAdd(X, Arena.intLit(1)))));
    X = Next;
  }
  for (auto _ : State) {
    benchmark::DoNotOptimize(S->check({C}, 0));
    benchmark::DoNotOptimize(S->modelBool(C));
  }
}
BENCHMARK(BM_Z3ModelAfterCheck)->Arg(64)->Arg(512);

} // namespace

BENCHMARK_MAIN();
