//===- bench_prepass.cpp - Static-analysis prepass ablation -----------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// Three-way ablation of the prepass pipeline on the SDV-like corpus:
//
//   off  — no prepass at all;
//   base — the structural reductions alone (slice,splice,deadproc);
//   full — the default pipeline, which adds GVN/copy-propagation in front
//          (gvn,slice,splice,deadproc).
//
// For each configuration we report the program size the engine sees and the
// size of the fully inlined VC (hash-consed term count); end-to-end DI verify
// time is measured for off vs full. The base→full delta isolates what value
// numbering buys on top of the established reductions. Exits 1 when two
// configurations disagree on a verdict or the VC terms do not shrink
// off ≥ base ≥ full. Knobs: RMT_BENCH_TIMEOUT, RMT_BENCH_COUNT (see
// BenchCommon.h).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Dataflow.h"
#include "cfg/Lower.h"
#include "core/Consistency.h"
#include "core/Strategies.h"
#include "core/VcGen.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "transform/Transforms.h"

#include <cstdio>

using namespace rmt;
using namespace rmt::bench;

namespace {

/// The reduction pipeline without value numbering.
const char *BaselinePasses = "slice,splice,deadproc";

struct VcSize {
  size_t Labels = 0;
  size_t Procs = 0;
  size_t Terms = 0;
  size_t Inlined = 0;
};

/// Fully inlines the instance (structure-only, DI/First strategy, the
/// production pVC mode) and reports the hash-consed term count — the static
/// formula footprint the solver would be handed if every open edge were
/// expanded. \p Passes is the prepass pipeline spec; null runs no prepass.
VcSize inlinedVcSize(const SdvParams &Params, const char *Passes) {
  AstContext Ctx;
  Program Prog = makeSdvProgram(Ctx, Params);
  BoundedInstance Inst = prepareBounded(Ctx, Prog, Ctx.sym("main"), 1);
  CfgProgram Cfg = lowerToCfg(Ctx, Inst.Prog);
  ProcId Root = Cfg.findProc(Inst.Entry);
  if (Passes) {
    PrepassOptions PO;
    PO.Passes = Passes;
    runPrepass(Ctx, Cfg, Root, Inst.ErrVar, PO);
  }

  TermArena Arena;
  VcContext Vc(Ctx, Cfg, Arena, EngineOptions().Pvc);
  DisjointAnalysis Disj(Cfg);
  ConsistencyChecker Check(Vc, Disj);
  StrategyOptions SOpts;
  SOpts.Kind = MergeStrategyKind::First;
  std::unique_ptr<MergeStrategy> Strategy =
      createStrategy(SOpts, Cfg, Disj, Root);
  NodeId RootNode = Vc.genPvc(Root);
  Check.onNewNode(RootNode);
  Strategy->noteNewNode(RootNode, InvalidEdge);
  while (!Vc.openEdges().empty() && Vc.numInlined() < 20000) {
    EdgeId E = Vc.openEdges().front();
    std::optional<NodeId> Pick = Strategy->pick(Vc, Check, E);
    NodeId N;
    if (Pick) {
      N = *Pick;
    } else {
      N = Vc.genPvc(Vc.edge(E).Callee);
      Check.onNewNode(N);
      Strategy->noteNewNode(N, E);
    }
    Vc.bindEdge(E, N);
    Check.onBind(E, N);
  }

  VcSize S;
  S.Labels = Cfg.Labels.size();
  S.Procs = Cfg.Procs.size();
  S.Terms = Arena.numTerms();
  S.Inlined = Vc.numInlined();
  return S;
}

struct TimedRun {
  Verdict Outcome = Verdict::Unknown;
  double Seconds = 0;
};

TimedRun timedVerify(const SdvParams &Params, const char *Passes,
                     double Timeout) {
  AstContext Ctx;
  Program Prog = makeSdvProgram(Ctx, Params);
  VerifierOptions Opts;
  Opts.Bound = 1; // drivers are loop-free by construction
  Opts.UsePrepass = Passes != nullptr;
  if (Passes)
    Opts.Prepass.Passes = Passes;
  Opts.Engine.Strategy.Kind = MergeStrategyKind::First;
  Opts.Engine.TimeoutSeconds = Timeout;
  Stopwatch W;
  VerifierRunResult R = verifyProgram(Ctx, Prog, Ctx.sym("main"), Opts);
  return {R.Result.Outcome, W.seconds()};
}

bool answered(Verdict V) { return V == Verdict::Safe || V == Verdict::Bug; }

} // namespace

int main() {
  double Timeout = envTimeout(10);
  unsigned Count = envCount(12);

  std::vector<SdvInstance> Corpus =
      makeSdvCorpus(/*Seed=*/2015, Count, /*BugFraction=*/110);

  std::printf("Prepass ablation — %u SDV-like instances, DI (First), "
              "bound 1, timeout %.0fs\n"
              "base = %s\nfull = default pipeline (adds gvn)\n\n",
              Count, Timeout, BaselinePasses);

  Table T({"Instance", "Terms off", "Terms base", "Terms full", "Labels full",
           "Time off(s)", "Time full(s)", "Verdict"});
  size_t TermsOff = 0, TermsBase = 0, TermsFull = 0;
  size_t LabelsOff = 0, LabelsFull = 0;
  double TimeOff = 0, TimeFull = 0;
  unsigned Disagreements = 0;

  for (const SdvInstance &I : Corpus) {
    VcSize Off = inlinedVcSize(I.Params, nullptr);
    VcSize Base = inlinedVcSize(I.Params, BaselinePasses);
    VcSize Full = inlinedVcSize(I.Params, ""); // "" = default pipeline
    TimedRun ROff = timedVerify(I.Params, nullptr, Timeout);
    TimedRun RBase = timedVerify(I.Params, BaselinePasses, Timeout);
    TimedRun RFull = timedVerify(I.Params, "", Timeout);

    // All configurations that answer must answer alike.
    Verdict Ref = Verdict::Unknown;
    for (Verdict V : {ROff.Outcome, RBase.Outcome, RFull.Outcome}) {
      if (!answered(V))
        continue;
      if (!answered(Ref))
        Ref = V;
      else if (V != Ref)
        ++Disagreements;
    }

    TermsOff += Off.Terms;
    TermsBase += Base.Terms;
    TermsFull += Full.Terms;
    LabelsOff += Off.Labels;
    LabelsFull += Full.Labels;
    TimeOff += ROff.Seconds;
    TimeFull += RFull.Seconds;

    T.row();
    T.cell(I.Name);
    T.cell(static_cast<int64_t>(Off.Terms));
    T.cell(static_cast<int64_t>(Base.Terms));
    T.cell(static_cast<int64_t>(Full.Terms));
    T.cell(static_cast<int64_t>(Full.Labels));
    T.cell(ROff.Seconds, 2);
    T.cell(RFull.Seconds, 2);
    T.cell(!answered(Ref) ? "t/o" : verdictName(Ref));
    std::fprintf(stderr,
                 "  %-10s terms %zu -> %zu -> %zu, %.2fs -> %.2fs\n",
                 I.Name.c_str(), Off.Terms, Base.Terms, Full.Terms,
                 ROff.Seconds, RFull.Seconds);
  }

  std::printf("%s\n", T.str().c_str());
  // Signed change: a pass can also grow the VC.
  auto Pct = [](size_t From, size_t To) {
    return From ? 100.0 *
                      (static_cast<double>(To) - static_cast<double>(From)) /
                      static_cast<double>(From)
                : 0.0;
  };
  std::printf("totals: labels %zu -> %zu (%+.1f%%), VC terms off %zu -> "
              "base %zu (%+.1f%%) -> full %zu (%+.1f%% vs base), verify "
              "time %.1fs -> %.1fs\n",
              LabelsOff, LabelsFull, Pct(LabelsOff, LabelsFull), TermsOff,
              TermsBase, Pct(TermsOff, TermsBase), TermsFull,
              Pct(TermsBase, TermsFull), TimeOff, TimeFull);
  std::printf("verdict disagreements: %u (must be 0 — every pipeline is "
              "verdict-preserving)\n",
              Disagreements);

  writeBenchJson(
      "prepass", T,
      {{"count", std::to_string(Count)},
       {"timeout_s", std::to_string(Timeout)},
       {"baseline_passes", BaselinePasses},
       {"terms_off", std::to_string(TermsOff)},
       {"terms_base", std::to_string(TermsBase)},
       {"terms_full", std::to_string(TermsFull)},
       {"labels_off", std::to_string(LabelsOff)},
       {"labels_full", std::to_string(LabelsFull)},
       {"time_off_s", std::to_string(TimeOff)},
       {"time_full_s", std::to_string(TimeFull)},
       {"disagreements", std::to_string(Disagreements)}});

  return Disagreements == 0 && TermsFull <= TermsBase && TermsBase <= TermsOff
             ? 0
             : 1;
}
