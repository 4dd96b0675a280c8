//===- bench_ablation_passify.cpp - pVC-generation ablation -----------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// DESIGN.md ablation: the paper's Gen_pVC (Fig. 8) mints two constants per
// (label, variable) and frame equalities per statement; production VC
// generators (Boogie, and this verifier by default) passify first. This
// bench runs DI with both pVC modes over the corpus and reports constants
// minted, clauses, and solve time — quantifying how much of the observed
// running time is the literal formulation rather than DAG inlining itself.
//
//===--------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

#include <cstdio>

using namespace rmt;
using namespace rmt::bench;

namespace {

struct ModeResult {
  Verdict Outcome = Verdict::Unknown;
  double Seconds = 0;
  size_t Inlined = 0;
};

ModeResult runMode(const SdvParams &Params, PvcMode Mode, double Timeout) {
  AstContext Ctx;
  Program P = makeSdvProgram(Ctx, Params);
  VerifierOptions Opts;
  Opts.Bound = 1;
  Opts.Engine.Strategy.Kind = MergeStrategyKind::First;
  Opts.Engine.Pvc = Mode;
  Opts.Engine.TimeoutSeconds = Timeout;
  auto R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
  return {R.Result.Outcome, R.Result.Seconds, R.Result.NumInlined};
}

std::string cell(const ModeResult &R) {
  if (R.Outcome != Verdict::Bug && R.Outcome != Verdict::Safe)
    return "T/O";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2f", R.Seconds);
  return Buf;
}

} // namespace

int main() {
  double Timeout = envTimeout(5);
  unsigned Count = envCount(12);
  std::vector<SdvInstance> Corpus =
      makeSdvCorpus(/*Seed=*/314, Count, /*BugFraction=*/110);

  std::printf("Ablation — DI with the paper's literal Gen_pVC vs the "
              "passified pVC generator (timeout %.0fs)\n\n",
              Timeout);
  Table T({"instance", "paper(s)", "passified(s)", "speedup", "verdicts"});
  unsigned Solved[2] = {0, 0};
  double Time[2] = {0, 0};
  unsigned Mismatch = 0;
  for (const SdvInstance &Inst : Corpus) {
    ModeResult Paper = runMode(Inst.Params, PvcMode::Paper, Timeout);
    ModeResult Pass = runMode(Inst.Params, PvcMode::Passified, Timeout);
    std::fprintf(stderr, "  %-12s paper=%s passified=%s\n",
                 Inst.Name.c_str(), cell(Paper).c_str(),
                 cell(Pass).c_str());
    bool PaperDone =
        Paper.Outcome == Verdict::Bug || Paper.Outcome == Verdict::Safe;
    bool PassDone =
        Pass.Outcome == Verdict::Bug || Pass.Outcome == Verdict::Safe;
    if (PaperDone) {
      ++Solved[0];
      Time[0] += Paper.Seconds;
    }
    if (PassDone) {
      ++Solved[1];
      Time[1] += Pass.Seconds;
    }
    if (PaperDone && PassDone && Paper.Outcome != Pass.Outcome)
      ++Mismatch;
    T.row();
    T.cell(Inst.Name);
    T.cell(cell(Paper));
    T.cell(cell(Pass));
    if (PaperDone && PassDone && Pass.Seconds > 0)
      T.cell(Paper.Seconds / Pass.Seconds, 2);
    else
      T.cell(std::string("-"));
    T.cell(std::string(verdictName(Paper.Outcome)) + "/" +
           verdictName(Pass.Outcome));
  }
  std::printf("%s\n", T.str().c_str());
  std::printf("solved: paper=%u (%.1fs), passified=%u (%.1fs); verdict "
              "mismatches: %u (must be 0)\n",
              Solved[0], Time[0], Solved[1], Time[1], Mismatch);
  return Mismatch == 0 ? 0 : 1;
}
