//===- strategies_test.cpp - Merging strategies (Section 3.4) ---------------===//

#include "cfg/Lower.h"
#include "core/Strategies.h"
#include "parser/Parser.h"
#include "transform/Transforms.h"
#include "workload/Chain.h"
#include "workload/SdvGen.h"

#include <gtest/gtest.h>

using namespace rmt;

namespace {

struct Inliner {
  AstContext &Ctx;
  CfgProgram &Cfg;
  TermArena Arena;
  VcContext Vc;
  DisjointAnalysis Disj;
  ConsistencyChecker Check;
  std::unique_ptr<MergeStrategy> Strategy;
  size_t Merged = 0;

  Inliner(AstContext &Ctx, CfgProgram &Cfg, const StrategyOptions &Opts,
          ProcId Root)
      : Ctx(Ctx), Cfg(Cfg), Vc(Ctx, Cfg, Arena, PvcMode::Paper), Disj(Cfg),
        Check(Vc, Disj), Strategy(createStrategy(Opts, Cfg, Disj, Root)) {}

  /// Fully inlines from \p Root (the Fig. 17 regime: "keep inlining until
  /// all dynamic instances get inlined"). Returns #nodes.
  size_t fullyInline(ProcId Root) {
    NodeId R = Vc.genPvc(Root);
    Check.onNewNode(R);
    Strategy->noteNewNode(R, InvalidEdge);
    while (!Vc.openEdges().empty()) {
      EdgeId E = Vc.openEdges().front();
      std::optional<NodeId> Pick = Strategy->pick(Vc, Check, E);
      NodeId N;
      if (Pick) {
        EXPECT_TRUE(Check.canBind(E, *Pick))
            << "strategy returned an incompatible candidate";
        N = *Pick;
        ++Merged;
      } else {
        N = Vc.genPvc(Vc.edge(E).Callee);
        Check.onNewNode(N);
        Strategy->noteNewNode(N, E);
      }
      Vc.bindEdge(E, N);
      Check.onBind(E, N);
    }
    EXPECT_TRUE(Check.isConsistentFull());
    return Vc.numInlined();
  }
};

struct ChainFixture {
  AstContext Ctx;
  CfgProgram Cfg;
  ProcId Root;

  explicit ChainFixture(unsigned N) {
    Program P = makeChainProgram(Ctx, N);
    BoundedInstance B = prepareBounded(Ctx, P, Ctx.sym("main"), 1);
    Cfg = lowerToCfg(Ctx, B.Prog);
    Root = Cfg.findProc(Ctx.sym("main"));
  }
};

size_t fullTreeSize(const CfgProgram &Cfg, ProcId Root) {
  // #instances of the fully unrolled call tree.
  std::vector<ProcId> Work{Root};
  size_t Count = 0;
  while (!Work.empty()) {
    ProcId P = Work.back();
    Work.pop_back();
    ++Count;
    for (ProcId C : Cfg.calleesOf(P))
      Work.push_back(C);
  }
  return Count;
}

} // namespace

TEST(StrategyKinds, ParseAndNames) {
  EXPECT_EQ(parseStrategyKind("first"), MergeStrategyKind::First);
  EXPECT_EQ(parseStrategyKind("opt"), MergeStrategyKind::Opt);
  EXPECT_EQ(parseStrategyKind("nope"), std::nullopt);
  EXPECT_STREQ(strategyName(MergeStrategyKind::MaxC), "maxc");
  EXPECT_STREQ(strategyName(MergeStrategyKind::RandomPick), "randompick");
}

TEST(NoneStrategy, ProducesTheFullTree) {
  ChainFixture F(4);
  StrategyOptions Opts;
  Opts.Kind = MergeStrategyKind::None;
  Inliner I(F.Ctx, F.Cfg, Opts, F.Root);
  size_t Nodes = I.fullyInline(F.Root);
  EXPECT_EQ(Nodes, fullTreeSize(F.Cfg, F.Root));
  EXPECT_EQ(I.Merged, 0u);
}

TEST(FirstStrategy, ChainCompressesToLinear) {
  // Fig. 2 / Fig. 3: tree is 2^(N+2)-1-ish, the DAG is N+2 nodes.
  ChainFixture F(6);
  StrategyOptions Opts;
  Opts.Kind = MergeStrategyKind::First;
  Inliner I(F.Ctx, F.Cfg, Opts, F.Root);
  size_t Nodes = I.fullyInline(F.Root);
  EXPECT_EQ(Nodes, 8u); // main, P0..P6
  EXPECT_GT(fullTreeSize(F.Cfg, F.Root), 100u);
}

TEST(MaxCStrategy, AlsoLinearOnChain) {
  ChainFixture F(6);
  StrategyOptions Opts;
  Opts.Kind = MergeStrategyKind::MaxC;
  Inliner I(F.Ctx, F.Cfg, Opts, F.Root);
  EXPECT_EQ(I.fullyInline(F.Root), 8u);
}

TEST(OptStrategy, MatchesFirstOnChain) {
  ChainFixture F(5);
  StrategyOptions Opts;
  Opts.Kind = MergeStrategyKind::Opt;
  Inliner I(F.Ctx, F.Cfg, Opts, F.Root);
  EXPECT_EQ(I.fullyInline(F.Root), 7u);
}

TEST(OptStrategy, PrecomputeSizesOnChain) {
  ChainFixture F(5);
  DisjointAnalysis Disj(F.Cfg);
  OptPrecomputeStats S = precomputeOptDag(F.Cfg, Disj, F.Root, 1u << 20);
  EXPECT_TRUE(S.Succeeded);
  EXPECT_EQ(S.TreeSize, fullTreeSize(F.Cfg, F.Root));
  EXPECT_EQ(S.DagSize, 7u);
}

TEST(OptStrategy, OverflowFallsBackGracefully) {
  ChainFixture F(10);
  DisjointAnalysis Disj(F.Cfg);
  OptPrecomputeStats S = precomputeOptDag(F.Cfg, Disj, F.Root, 100);
  EXPECT_FALSE(S.Succeeded); // the paper's OPT T/O row
  // The strategy still works (FIRST fallback).
  StrategyOptions Opts;
  Opts.Kind = MergeStrategyKind::Opt;
  Opts.MaxTreeNodes = 100;
  Inliner I(F.Ctx, F.Cfg, Opts, F.Root);
  EXPECT_EQ(I.fullyInline(F.Root), 12u);
}

TEST(RandomStrategies, ValidAndDeterministicPerSeed) {
  for (MergeStrategyKind Kind :
       {MergeStrategyKind::Random, MergeStrategyKind::RandomPick}) {
    size_t First = 0;
    for (int Round = 0; Round < 2; ++Round) {
      ChainFixture F(5);
      StrategyOptions Opts;
      Opts.Kind = Kind;
      Opts.Seed = 99;
      Inliner I(F.Ctx, F.Cfg, Opts, F.Root);
      size_t Nodes = I.fullyInline(F.Root);
      if (Round == 0)
        First = Nodes;
      else
        EXPECT_EQ(Nodes, First) << strategyName(Kind);
    }
  }
}

TEST(RandomPick, NeverWorseThanTreeNeverBetterThanOpt) {
  ChainFixture F(5);
  DisjointAnalysis Disj(F.Cfg);
  OptPrecomputeStats Opt = precomputeOptDag(F.Cfg, Disj, F.Root, 1u << 20);
  StrategyOptions Opts;
  Opts.Kind = MergeStrategyKind::RandomPick;
  Opts.Seed = 5;
  Inliner I(F.Ctx, F.Cfg, Opts, F.Root);
  size_t Nodes = I.fullyInline(F.Root);
  EXPECT_LE(Nodes, Opt.TreeSize);
  EXPECT_GE(Nodes, Opt.DagSize);
}

TEST(StrategyOrdering, PaperFig17ShapeOnDriver) {
  // On an SDV-like instance: none (tree) >= random >= randompick >= first,
  // and first is within a small factor of opt. (The exact paper deviations
  // are corpus-dependent; the ordering is the reproducible shape.)
  AstContext Ctx;
  SdvParams Params;
  Params.Seed = 7;
  Params.NumHandlers = 3;
  Params.NumUtils = 3;
  Params.UtilDepth = 4;
  Program P = makeSdvProgram(Ctx, Params);
  BoundedInstance B = prepareBounded(Ctx, P, Ctx.sym("main"), 1);
  CfgProgram Cfg = lowerToCfg(Ctx, B.Prog);
  ProcId Root = Cfg.findProc(Ctx.sym("main"));

  auto SizeWith = [&](MergeStrategyKind Kind) {
    StrategyOptions Opts;
    Opts.Kind = Kind;
    Opts.Seed = 3;
    Inliner I(Ctx, Cfg, Opts, Root);
    return I.fullyInline(Root);
  };

  size_t Tree = SizeWith(MergeStrategyKind::None);
  size_t First = SizeWith(MergeStrategyKind::First);
  size_t Rand = SizeWith(MergeStrategyKind::RandomPick);
  size_t Opt = SizeWith(MergeStrategyKind::Opt);

  EXPECT_GT(Tree, First);
  EXPECT_LE(Opt, First * 2); // first stays close to opt
  EXPECT_LE(First, Rand * 2 + 8);
  EXPECT_LE(Rand, Tree);
}
