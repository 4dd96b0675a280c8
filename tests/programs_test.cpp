//===- programs_test.cpp - File-driven verification of sample programs ------===//
//
// Every `.hbpl` under examples/programs declares its expected verdict in a
// header comment (`// expect: safe bound=2`). This test parses, round-trips
// and verifies each file with SI and DI on the paper's Gen_pVC (the oracle)
// and with DI on the default (passified) pVCs, and checks the expectation —
// the sample corpus doubles as an end-to-end regression suite. It also checks
// the default prepass output of each file for blocked labels left wired, and
// that trace spans account for nearly all of a verify's wall time.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"
#include "ast/AstPrinter.h"
#include "cfg/Lower.h"
#include "core/Verifier.h"
#include "parser/Parser.h"
#include "support/Trace.h"
#include "transform/Transforms.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace rmt;

namespace {

struct Expectation {
  Verdict Outcome = Verdict::Unknown;
  unsigned Bound = 2;
};

std::optional<Expectation> parseExpectation(const std::string &Source) {
  size_t Pos = Source.find("// expect:");
  if (Pos == std::string::npos)
    return std::nullopt;
  std::istringstream Line(Source.substr(Pos + 10, 80));
  std::string VerdictWord;
  Line >> VerdictWord;
  Expectation E;
  if (VerdictWord == "safe")
    E.Outcome = Verdict::Safe;
  else if (VerdictWord == "bug")
    E.Outcome = Verdict::Bug;
  else
    return std::nullopt;
  std::string Rest;
  while (Line >> Rest)
    if (Rest.rfind("bound=", 0) == 0)
      E.Bound = static_cast<unsigned>(std::stoi(Rest.substr(6)));
  return E;
}

std::vector<std::filesystem::path> sampleFiles() {
  std::vector<std::filesystem::path> Files;
  std::filesystem::path Dir = RMT_SAMPLE_PROGRAMS_DIR;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".hbpl")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

class SampleProgram
    : public ::testing::TestWithParam<std::filesystem::path> {};

TEST_P(SampleProgram, ParsesAndRoundTrips) {
  std::string Source = readFile(GetParam());
  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseAndCheck(Source, Ctx, Diags);
  ASSERT_TRUE(P) << GetParam() << "\n" << Diags.str();

  std::string Printed = printProgram(Ctx, *P);
  AstContext Ctx2;
  DiagEngine Diags2;
  auto P2 = parseAndCheck(Printed, Ctx2, Diags2);
  ASSERT_TRUE(P2) << Diags2.str();
  EXPECT_EQ(printProgram(Ctx2, *P2), Printed);
}

TEST_P(SampleProgram, VerdictMatchesExpectation) {
  std::string Source = readFile(GetParam());
  std::optional<Expectation> Expect = parseExpectation(Source);
  ASSERT_TRUE(Expect) << GetParam()
                      << ": missing or malformed `// expect:` header";

  struct Config {
    const char *Name;
    MergeStrategyKind Kind;
    PvcMode Pvc;
  };
  for (Config C : {Config{"SI", MergeStrategyKind::None, PvcMode::Paper},
                   Config{"DI", MergeStrategyKind::First, PvcMode::Paper},
                   Config{"DI/default", MergeStrategyKind::First,
                          EngineOptions().Pvc}}) {
    AstContext Ctx;
    DiagEngine Diags;
    auto P = parseAndCheck(Source, Ctx, Diags);
    ASSERT_TRUE(P) << Diags.str();
    VerifierOptions Opts;
    Opts.Bound = Expect->Bound;
    Opts.Engine.Strategy.Kind = C.Kind;
    Opts.Engine.Pvc = C.Pvc;
    Opts.Engine.TimeoutSeconds = 120;
    auto R = verifyProgram(Ctx, *P, Ctx.sym("main"), Opts);
    EXPECT_EQ(R.Result.Outcome, Expect->Outcome)
        << GetParam() << " with " << C.Name;
    if (Expect->Outcome == Verdict::Bug && C.Kind != MergeStrategyKind::None) {
      EXPECT_FALSE(R.TraceText.empty());
    }
  }
}

TEST_P(SampleProgram, PrepassPreservesVerdict) {
  std::string Source = readFile(GetParam());
  std::optional<Expectation> Expect = parseExpectation(Source);
  ASSERT_TRUE(Expect) << GetParam();

  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseAndCheck(Source, Ctx, Diags);
  ASSERT_TRUE(P) << Diags.str();

  VerifierOptions On;
  On.Bound = Expect->Bound;
  On.Engine.Strategy.Kind = MergeStrategyKind::First;
  On.Engine.TimeoutSeconds = 120;
  VerifierOptions Off = On;
  Off.UsePrepass = false;

  auto ROn = verifyProgram(Ctx, *P, Ctx.sym("main"), On);
  auto ROff = verifyProgram(Ctx, *P, Ctx.sym("main"), Off);
  EXPECT_EQ(ROn.Result.Outcome, Expect->Outcome) << GetParam();
  EXPECT_EQ(ROn.Result.Outcome, ROff.Result.Outcome)
      << GetParam() << ": prepass changed the verdict";
  EXPECT_LE(ROn.NumLabelsSolved, ROn.NumLabels);
}

TEST_P(SampleProgram, DefaultPipelineLeavesNoBlockedAssumeWired) {
  // An `assume false` label never completes, so after the default prepass
  // it must have no successors: whatever it guarded is cut and swept.
  std::string Source = readFile(GetParam());
  std::optional<Expectation> Expect = parseExpectation(Source);
  ASSERT_TRUE(Expect) << GetParam();

  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseAndCheck(Source, Ctx, Diags);
  ASSERT_TRUE(P) << Diags.str();
  BoundedInstance Inst =
      prepareBounded(Ctx, *P, Ctx.sym("main"), Expect->Bound);
  CfgProgram Cfg = lowerToCfg(Ctx, Inst.Prog);
  ProcId Root = Cfg.findProc(Inst.Entry);
  ASSERT_NE(Root, InvalidProc);
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Inst.ErrVar);
  ASSERT_TRUE(R.ok());
  for (const CfgLabel &L : Cfg.Labels) {
    const Expr *E = L.Stmt.E;
    if (L.Stmt.Kind == CfgStmtKind::Assume &&
        E->kind() == ExprKind::BoolLit && !E->boolValue()) {
      EXPECT_TRUE(L.Targets.empty()) << GetParam() << "\n" << Cfg.str(Ctx);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Files, SampleProgram, ::testing::ValuesIn(sampleFiles()),
    [](const ::testing::TestParamInfo<std::filesystem::path> &Info) {
      std::string Name = Info.param.stem().string();
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

TEST(SamplePrograms, SpansCoverVerifyAndEngineRun) {
  // A run's trace should explain where its time went: the direct child spans
  // of `verify` cover nearly all of it, and `engine.iteration` plus the root
  // `vc.gen_pvc` cover nearly all of `engine.run`. Times are summed over the
  // whole corpus, not checked per program, so a few scheduler hiccups on a
  // slow (sanitizer, CI) machine cannot flake the ratio.
  double Verify = 0, VerifyChildren = 0, EngineRun = 0, EngineChildren = 0;
  for (const std::filesystem::path &File : sampleFiles()) {
    std::string Source = readFile(File);
    std::optional<Expectation> Expect = parseExpectation(Source);
    ASSERT_TRUE(Expect) << File;
    AstContext Ctx;
    DiagEngine Diags;
    auto P = parseAndCheck(Source, Ctx, Diags);
    ASSERT_TRUE(P) << Diags.str();

    Trace T(1 << 16);
    T.setEnabled(true);
    VerifierOptions Opts;
    Opts.Bound = Expect->Bound;
    Opts.Engine.TimeoutSeconds = 120;
    Opts.Telemetry = &T;
    auto R = verifyProgram(Ctx, *P, Ctx.sym("main"), Opts);
    EXPECT_EQ(R.Result.Outcome, Expect->Outcome) << File;
    ASSERT_EQ(T.numDropped(), 0u) << File;
    ASSERT_EQ(T.openSpans(), 0u) << File;

    // Replay the begin/end pairs to get each span's duration and parent.
    std::vector<std::pair<std::string, double>> Open;
    for (size_t I = 0; I < T.numEvents(); ++I) {
      const TraceEvent &E = T.event(I);
      if (E.Ph == TraceEvent::Phase::Begin) {
        Open.emplace_back(E.Name, E.Micros);
        continue;
      }
      if (E.Ph != TraceEvent::Phase::End)
        continue;
      ASSERT_FALSE(Open.empty()) << File;
      auto [Name, Start] = Open.back();
      Open.pop_back();
      double Seconds = (E.Micros - Start) * 1e-6;
      std::string Parent = Open.empty() ? "" : Open.back().first;
      if (Name == "verify")
        Verify += Seconds;
      else if (Parent == "verify")
        VerifyChildren += Seconds;
      if (Name == "engine.run")
        EngineRun += Seconds;
      else if (Parent == "engine.run" &&
               (Name == "engine.iteration" || Name == "vc.gen_pvc"))
        EngineChildren += Seconds;
    }
  }
  ASSERT_GT(Verify, 0.0);
  ASSERT_GT(EngineRun, 0.0);
  EXPECT_GE(VerifyChildren / Verify, 0.95)
      << VerifyChildren << " s of " << Verify << " s";
  EXPECT_GE(EngineChildren / EngineRun, 0.95)
      << EngineChildren << " s of " << EngineRun << " s";
}
