//===- passmanager_test.cpp - Pass manager, VerifyCfg, and GVN -------------===//

#include "analysis/Gvn.h"
#include "analysis/PassManager.h"
#include "analysis/VerifyCfg.h"
#include "cfg/Lower.h"
#include "parser/Parser.h"
#include "transform/Transforms.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

using namespace rmt;

namespace {

std::optional<Program> parse(const char *Src, AstContext &Ctx) {
  DiagEngine Diags;
  std::optional<Program> P = parseAndCheck(Src, Ctx, Diags);
  EXPECT_TRUE(P) << Diags.str();
  return P;
}

/// Lowers a checked program through the bounding pipeline, like the verifier
/// does before its prepass.
CfgProgram lower(AstContext &Ctx, const Program &P, ProcId &Root,
                 Symbol &ErrVar, unsigned Bound = 2) {
  BoundedInstance Inst = prepareBounded(Ctx, P, Ctx.sym("main"), Bound);
  CfgProgram Cfg = lowerToCfg(Ctx, Inst.Prog);
  Root = Cfg.findProc(Inst.Entry);
  ErrVar = Inst.ErrVar;
  EXPECT_NE(Root, InvalidProc);
  return Cfg;
}

bool anyDiagContains(const std::vector<std::string> &Diags,
                     const std::string &Needle) {
  for (const std::string &D : Diags)
    if (D.find(Needle) != std::string::npos)
      return true;
  return false;
}

std::string joined(const std::vector<std::string> &Diags) {
  std::string Out;
  for (const std::string &D : Diags)
    Out += D + "\n";
  return Out;
}

LabelId findLabel(const CfgProgram &Cfg, CfgStmtKind Kind) {
  for (LabelId L = 0; L < Cfg.Labels.size(); ++L)
    if (Cfg.Labels[L].Stmt.Kind == Kind)
      return L;
  return InvalidLabel;
}

const char *CallDemo = R"(
  var g: int;
  procedure callee(a: int) returns (r: int) { r := a + g; }
  procedure main() {
    var v: int;
    call v := callee(5);
    g := v;
    assert g >= 0;
  }
)";

} // namespace

//===----------------------------------------------------------------------===//
// VerifyCfg: clean programs pass, each seeded corruption is caught with a
// precise diagnostic
//===----------------------------------------------------------------------===//

TEST(VerifyCfg, CleanLoweredProgramVerifies) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(Diags.empty()) << joined(Diags);
}

TEST(VerifyCfg, CleanProgramStaysVerifiedThroughThePipeline) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  PrepassOptions Opts;
  Opts.VerifyEach = true;
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts);
  EXPECT_TRUE(R.ok()) << joined(R.PipelineErrors);
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(Diags.empty()) << joined(Diags);
}

TEST(VerifyCfg, DetectsDanglingSuccessor) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  Cfg.Labels[Cfg.Procs[Root].Entry].Targets.push_back(999999);
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(Diags, "dangling successor L999999"))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsCrossProcedureSuccessor) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  // Point a root label at another procedure's entry.
  ProcId Other = Root == 0 ? 1 : 0;
  ASSERT_GT(Cfg.Procs.size(), 1u);
  Cfg.Labels[Cfg.Procs[Root].Entry].Targets.push_back(
      Cfg.Procs[Other].Entry);
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(Diags, "cross-procedure successor"))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsFlowCycle) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  LabelId Entry = Cfg.Procs[Root].Entry;
  Cfg.Labels[Entry].Targets.push_back(Entry); // self-loop
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(Diags, "has a cycle through label L" +
                                         std::to_string(Entry)))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsCallGraphCycle) {
  // Hand-built mutual recursion: even calls odd calls even. The lowering
  // never produces this (bounding unrolls recursion), so build it directly.
  AstContext Ctx;
  CfgProgram Cfg;
  Cfg.Procs.resize(2);
  Cfg.Procs[0].Name = Ctx.sym("even");
  Cfg.Procs[1].Name = Ctx.sym("odd");
  for (ProcId P = 0; P < 2; ++P) {
    CfgStmt Call;
    Call.Kind = CfgStmtKind::Call;
    Call.Callee = 1 - P;
    LabelId L = static_cast<LabelId>(Cfg.Labels.size());
    Cfg.Labels.push_back({std::move(Call), {}, P, SrcLoc{}});
    Cfg.Procs[P].Entry = L;
    Cfg.Procs[P].Labels = {L};
  }
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg);
  EXPECT_TRUE(anyDiagContains(Diags, "call graph has a cycle through "
                                     "procedure"))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsCallArityMismatch) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  LabelId CallLabel = findLabel(Cfg, CfgStmtKind::Call);
  ASSERT_NE(CallLabel, InvalidLabel);
  Cfg.Labels[CallLabel].Stmt.Args.clear();
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(
      Diags, "passes 0 arguments but the signature has 1 parameters"))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsCallResultArityMismatch) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  LabelId CallLabel = findLabel(Cfg, CfgStmtKind::Call);
  ASSERT_NE(CallLabel, InvalidLabel);
  Cfg.Labels[CallLabel].Stmt.Vars.clear();
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(
      Diags, "binds 0 results but the signature has 1 returns"))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsOutOfScopeAssignmentTarget) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  LabelId Assign = findLabel(Cfg, CfgStmtKind::Assign);
  ASSERT_NE(Assign, InvalidLabel);
  Cfg.Labels[Assign].Stmt.Target = Ctx.sym("no_such_var");
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(
      Diags, "targets variable 'no_such_var' which is not in scope"))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsNonBoolAssumeCondition) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  LabelId Assume = findLabel(Cfg, CfgStmtKind::Assume);
  ASSERT_NE(Assume, InvalidLabel);
  Cfg.Labels[Assume].Stmt.E = Ctx.tInt(7);
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(Diags, "non-bool condition of type int"))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsHavockedQueryVariable) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  LabelId Assume = findLabel(Cfg, CfgStmtKind::Assume);
  ASSERT_NE(Assume, InvalidLabel);
  CfgStmt Havoc;
  Havoc.Kind = CfgStmtKind::Havoc;
  Havoc.Vars = {Err};
  Cfg.Labels[Assume].Stmt = std::move(Havoc);
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(Diags, "is havocked at label"))
      << joined(Diags);
  // Without the query variable the shape check is off.
  EXPECT_TRUE(verifyCfg(Ctx, Cfg, Root).empty());
}

TEST(VerifyCfg, DetectsEntryNotOwnedAndBadBackPointer) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  ASSERT_GT(Cfg.Procs.size(), 1u);
  ProcId Other = Root == 0 ? 1 : 0;
  CfgProgram Bad = Cfg;
  Bad.Procs[Root].Entry = Bad.Procs[Other].Entry;
  EXPECT_TRUE(anyDiagContains(verifyCfg(Ctx, Bad, Root, Err),
                              "is not among the labels it owns"));

  CfgProgram Bad2 = Cfg;
  Bad2.Labels[Bad2.Procs[Root].Entry].Proc = Other;
  EXPECT_TRUE(anyDiagContains(verifyCfg(Ctx, Bad2, Root, Err),
                              "Proc back-pointer"));
}

TEST(VerifyCfg, DetectsRootOutOfRange) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  EXPECT_TRUE(anyDiagContains(verifyCfg(Ctx, Cfg, 12345, Err),
                              "root procedure id 12345 out of range"));
}

//===----------------------------------------------------------------------===//
// GVN
//===----------------------------------------------------------------------===//

TEST(Gvn, PropagatesCopyChains) {
  // `y := x; z := y + 1` — the add's operand should be rewritten to the
  // chain head `x` once y and x share a value number.
  AstContext Ctx;
  auto P = parse(R"(
    procedure main() {
      var x: int;
      var y: int;
      var z: int;
      havoc x;
      y := x;
      z := y + 1;
      assert z > x;
    }
  )",
                 Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  GvnReport R = runGvn(Ctx, Cfg);
  EXPECT_GE(R.PropagatedExprs, 1u);
  bool SawRewrittenAdd = false;
  for (const CfgLabel &L : Cfg.Labels) {
    const CfgStmt &S = L.Stmt;
    if (S.Kind != CfgStmtKind::Assign || !S.E ||
        S.E->kind() != ExprKind::Binary || S.E->binOp() != BinOp::Add)
      continue;
    if (S.E->op1() && S.E->op1()->kind() == ExprKind::IntLit &&
        S.E->op1()->intValue() == 1) {
      ASSERT_EQ(S.E->op0()->kind(), ExprKind::Var);
      EXPECT_EQ(Ctx.name(S.E->op0()->var()), "x");
      SawRewrittenAdd = true;
    }
  }
  EXPECT_TRUE(SawRewrittenAdd);
  // GVN must leave the program structurally sound.
  EXPECT_TRUE(verifyCfg(Ctx, Cfg, Root, Err).empty());
}

TEST(Gvn, FoldsLiteralsThroughCopies) {
  AstContext Ctx;
  auto P = parse(R"(
    procedure main() {
      var x: int;
      var y: int;
      x := 2;
      y := x + 3;
      assert y > 0;
    }
  )",
                 Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  GvnReport R = runGvn(Ctx, Cfg);
  EXPECT_GE(R.PropagatedExprs, 1u);
  bool SawFoldedStore = false;
  for (const CfgLabel &L : Cfg.Labels) {
    const CfgStmt &S = L.Stmt;
    if (S.Kind == CfgStmtKind::Assign && Ctx.name(S.Target) == "y") {
      ASSERT_EQ(S.E->kind(), ExprKind::IntLit);
      EXPECT_EQ(S.E->intValue(), 5);
      SawFoldedStore = true;
    }
  }
  EXPECT_TRUE(SawFoldedStore);
}

//===----------------------------------------------------------------------===//
// Registry and pipelines
//===----------------------------------------------------------------------===//

TEST(PassRegistry, ListsBuiltinsInDefaultPipelineOrder) {
  std::vector<std::string> Names = PassRegistry::instance().names();
  std::vector<std::string> Builtins = {"gvn",  "slice", "splice", "deadproc",
                                       "lint", "inv"};
  // Tests may append more; the builtin prefix is stable.
  ASSERT_GE(Names.size(), Builtins.size());
  for (size_t I = 0; I < Builtins.size(); ++I)
    EXPECT_EQ(Names[I], Builtins[I]);
  for (const std::string &N : Builtins) {
    std::unique_ptr<Pass> P = PassRegistry::instance().create(N);
    ASSERT_TRUE(P);
    EXPECT_EQ(P->name(), N);
    EXPECT_FALSE(P->description().empty());
  }
  EXPECT_EQ(PassRegistry::instance().create("nope"), nullptr);
}

TEST(PassPipeline, ParsesSpecsAndRoundTrips) {
  std::optional<PassPipeline> PL = PassPipeline::parse(" gvn , slice ,");
  ASSERT_TRUE(PL);
  EXPECT_EQ(PL->size(), 2u);
  EXPECT_EQ(PL->str(), "gvn,slice");

  std::string Error;
  EXPECT_FALSE(PassPipeline::parse("gvn,bogus", &Error));
  EXPECT_NE(Error.find("unknown pass 'bogus'"), std::string::npos);
  EXPECT_NE(Error.find("gvn"), std::string::npos) << Error;
  // There is no separate constant-propagation pass: GVN folds literals.
  EXPECT_FALSE(PassPipeline::parse("constprop"));

  EXPECT_TRUE(PassPipeline::parse("")->empty());
}

TEST(PassPipeline, RecordsPerPassStats) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  Stats S;
  PrepassOptions Opts;
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts, &S);
  EXPECT_TRUE(R.ok());
  for (const char *Name : {"gvn", "slice", "splice", "deadproc"})
    EXPECT_EQ(S.get("pass." + std::string(Name) + ".runs"), 1)
        << Name;
  // The demo program has skip labels to splice, so at least one pass reports
  // a change.
  EXPECT_GE(S.get("pass.splice.changed"), 1);
  EXPECT_EQ(S.get("pass.inv.runs"), 0);
  EXPECT_NE(R.str().find("contradicted assumes"), std::string::npos);
}

TEST(PassPipeline, LintAuditCountsResidualDeadStores) {
  const char *Src = R"(
    var g: int;
    procedure main() {
      var dead: int;
      var x: int;
      x := 1;
      dead := x + 41;
      g := x;
      assert g == 1;
    }
  )";
  // The lint audit alone sees the store to `dead` (no later statement reads
  // it)...
  {
    AstContext Ctx;
    auto P = parse(Src, Ctx);
    ProcId Root;
    Symbol Err;
    CfgProgram Cfg = lower(Ctx, *P, Root, Err);
    PrepassOptions Opts;
    Opts.Passes = "lint";
    Opts.VerifyEach = true;
    size_t LabelsBefore = Cfg.Labels.size();
    PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts);
    ASSERT_TRUE(R.ok()) << joined(R.PipelineErrors);
    EXPECT_GE(R.AuditDeadStores, 1u);
    EXPECT_EQ(R.AuditUnreachableLabels, 0u);
    // Read-only: the program itself is untouched.
    EXPECT_EQ(Cfg.Labels.size(), LabelsBefore);
    EXPECT_NE(R.str().find("lint audit"), std::string::npos);
  }
  // ...and running it after the default pipeline finds nothing left to flag.
  {
    AstContext Ctx;
    auto P = parse(Src, Ctx);
    ProcId Root;
    Symbol Err;
    CfgProgram Cfg = lower(Ctx, *P, Root, Err);
    PrepassOptions Opts;
    Opts.Passes = "gvn,slice,splice,deadproc,lint";
    Opts.VerifyEach = true;
    PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts);
    ASSERT_TRUE(R.ok()) << joined(R.PipelineErrors);
    EXPECT_EQ(R.AuditDeadStores, 0u);
    EXPECT_EQ(R.AuditUnreachableLabels, 0u);
  }
}

TEST(PassPipeline, LintAuditFlagsUnreachableLabels) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  // Graft a structurally valid but entry-unreachable label onto the root.
  CfgLabel Orphan;
  Orphan.Stmt.Kind = CfgStmtKind::Assume;
  Orphan.Stmt.E = Ctx.tBool(true);
  Orphan.Proc = Root;
  LabelId L = static_cast<LabelId>(Cfg.Labels.size());
  Cfg.Labels.push_back(Orphan);
  Cfg.Procs[Root].Labels.push_back(L);
  PrepassOptions Opts;
  Opts.Passes = "lint";
  Opts.VerifyEach = true;
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts);
  ASSERT_TRUE(R.ok()) << joined(R.PipelineErrors);
  EXPECT_EQ(R.AuditUnreachableLabels, 1u);
}

TEST(PassPipeline, PassesOverrideRunsOnlyTheListedPasses) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  Stats S;
  PrepassOptions Opts;
  Opts.Passes = "splice,splice";
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts, &S);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(S.get("pass.splice.runs"), 2);
  EXPECT_EQ(S.get("pass.gvn.runs"), 0);
  EXPECT_EQ(S.get("pass.slice.runs"), 0);
}

TEST(PassPipeline, UnknownPassNameAbortsBeforeRunningAnything) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  size_t LabelsBefore = Cfg.Labels.size();
  PrepassOptions Opts;
  Opts.Passes = "gvn,bogus";
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts);
  EXPECT_FALSE(R.ok());
  ASSERT_EQ(R.PipelineErrors.size(), 1u);
  EXPECT_NE(R.PipelineErrors[0].find("unknown pass 'bogus'"),
            std::string::npos);
  EXPECT_EQ(Cfg.Labels.size(), LabelsBefore);
  // The summary line surfaces the abort.
  EXPECT_NE(R.str().find("PIPELINE ABORTED"), std::string::npos);
}

namespace {

/// Test-only pass that corrupts the flow graph, for --verify-each coverage.
class CorruptingPass : public Pass {
public:
  std::string_view name() const override { return "corrupt"; }
  std::string_view description() const override {
    return "test pass that plants a dangling successor";
  }
  bool run(PassContext &PC) override {
    PC.Prog.Labels[PC.Prog.Procs[PC.Root].Entry].Targets.push_back(
        static_cast<LabelId>(PC.Prog.Labels.size() + 7));
    return true;
  }
};

std::unique_ptr<Pass> makeCorruptingPass() {
  return std::make_unique<CorruptingPass>();
}

} // namespace

TEST(PassPipeline, VerifyEachCatchesACorruptingPass) {
  PassRegistry::instance().registerPass("corrupt", makeCorruptingPass);
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);

  PrepassOptions Opts;
  Opts.Passes = "gvn,corrupt,splice";
  Opts.VerifyEach = true;
  Stats S;
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts, &S);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.PipelineErrors[0].find("VerifyCfg after pass 'corrupt'"),
            std::string::npos)
      << R.PipelineErrors[0];
  EXPECT_NE(R.PipelineErrors[0].find("dangling successor"),
            std::string::npos);
  // The pipeline stopped at the offending pass.
  EXPECT_EQ(S.get("pass.corrupt.runs"), 1);
  EXPECT_EQ(S.get("pass.splice.runs"), 0);
}

TEST(PassPipeline, VerifyEachChecksThePipelineInputToo) {
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  Cfg.Labels[Cfg.Procs[Root].Entry].Targets.push_back(999999);

  PrepassOptions Opts;
  Opts.VerifyEach = true;
  Stats S;
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts, &S);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.PipelineErrors[0].find("VerifyCfg after pipeline input"),
            std::string::npos)
      << R.PipelineErrors[0];
  EXPECT_EQ(S.get("pass.gvn.runs"), 0);
}

namespace {

/// Unsets an environment variable for one scope and restores it afterwards.
class ScopedUnsetEnv {
public:
  explicit ScopedUnsetEnv(const char *Name) : Name(Name) {
    if (const char *V = std::getenv(Name))
      Saved = V;
    unsetenv(Name);
  }
  ~ScopedUnsetEnv() {
    if (Saved)
      setenv(Name, Saved->c_str(), /*overwrite=*/1);
  }

private:
  const char *Name;
  std::optional<std::string> Saved;
};

} // namespace

TEST(PassPipeline, WithoutVerifyEachCorruptionGoesUnnoticed) {
  // Sanity-check the control: the corrupting pass only trips the pipeline
  // when verification is requested (the verifier's Unknown-on-abort path
  // depends on this distinction). RMT_VERIFY_EACH would request it too, so
  // the test runs with the variable unset whatever its environment.
  ScopedUnsetEnv NoVerifyEach("RMT_VERIFY_EACH");
  PassRegistry::instance().registerPass("corrupt", makeCorruptingPass);
  AstContext Ctx;
  auto P = parse(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  PrepassOptions Opts;
  Opts.Passes = "corrupt";
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts);
  EXPECT_TRUE(R.ok());
  EXPECT_FALSE(verifyCfg(Ctx, Cfg, Root, Err).empty());
}
