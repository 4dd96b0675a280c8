//===- bench_fig3_chain.cpp - Reproduces Fig. 3 ----------------------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// Fig. 3: running time of tree-based BMC tools (CBMC, Corral) vs DAG
// inlining (DI) on the Fig. 2 chain program as N grows, under a timeout.
// Our proxies: EAGER = full tree inlining then one solve (CBMC-style),
// SI = stratified tree inlining (Corral-style), DI = stratified DAG
// inlining with FIRST. The paper's shape: EAGER and SI blow up
// exponentially, DI stays linear.
//
//===--------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"
#include "workload/Chain.h"

#include <cstdio>

using namespace rmt;
using namespace rmt::bench;

namespace {

struct Cell {
  double Seconds = 0;
  size_t Inlined = 0;
  bool TimedOut = false;
};

Cell runChain(unsigned N, bool Eager, MergeStrategyKind Kind,
              double Timeout) {
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, N);
  VerifierOptions Opts;
  Opts.Bound = 1;
  Opts.Engine.Eager = Eager;
  Opts.Engine.Strategy.Kind = Kind;
  Opts.Engine.Pvc = PvcMode::Paper; // Fig. 3 as the paper measures it
  Opts.Engine.TimeoutSeconds = Timeout;
  auto R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
  Cell C;
  C.Seconds = R.Result.Seconds;
  C.Inlined = R.Result.NumInlined;
  C.TimedOut = R.Result.Outcome != Verdict::Safe;
  return C;
}

std::string fmt(const Cell &C) {
  if (C.TimedOut)
    return "T/O";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", C.Seconds);
  return Buf;
}

} // namespace

int main() {
  double Timeout = envTimeout(10);
  unsigned MaxN = envCount(16);

  std::printf("Fig. 3 — chain program of Fig. 2: time (seconds, log-scale "
              "in the paper) vs N, timeout %.0fs\n",
              Timeout);
  std::printf("EAGER = full tree inline + one solve (CBMC proxy); "
              "SI = stratified tree (Corral proxy); DI = DAG inlining\n\n");

  Table T({"N", "EAGER(s)", "SI(s)", "DI(s)", "EAGER#inl", "SI#inl",
           "DI#inl"});
  bool EagerDead = false, SiDead = false;
  for (unsigned N = 4; N <= MaxN; N += 2) {
    Cell Eager = EagerDead
                     ? Cell{Timeout, 0, true}
                     : runChain(N, true, MergeStrategyKind::None, Timeout);
    Cell Si = SiDead ? Cell{Timeout, 0, true}
                     : runChain(N, false, MergeStrategyKind::None, Timeout);
    Cell Di = runChain(N, false, MergeStrategyKind::First, Timeout);
    // Once a tree engine times out, larger N will too: skip, like the
    // paper's truncated curves.
    EagerDead = EagerDead || Eager.TimedOut;
    SiDead = SiDead || Si.TimedOut;

    T.row();
    T.cell(static_cast<int64_t>(N));
    T.cell(fmt(Eager));
    T.cell(fmt(Si));
    T.cell(fmt(Di));
    T.cell(static_cast<uint64_t>(Eager.Inlined));
    T.cell(static_cast<uint64_t>(Si.Inlined));
    T.cell(static_cast<uint64_t>(Di.Inlined));
  }
  std::printf("%s\n", T.str().c_str());
  std::printf("Expected shape: EAGER and SI hit the timeout at small N "
              "(exponential tree), DI scales linearly (N+2 instances).\n");
  return 0;
}
