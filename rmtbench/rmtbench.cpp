//===- rmtbench.cpp - The repository benchmark harness --------------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
//
// Runs one workload as a closed loop with a single client on one thread:
// the next verification starts when the previous verdict returns. Each
// verification is the user's path through the library: parseAndCheck on the
// input's source text, then verifyProgram with the CLI's default options
// (DI with the FIRST strategy, the default pVC mode and prepass; +Inv only on
// sdv_inv). Every verdict is checked against the input's known answer.
//
//   rmtbench --workload sdv|sdv_inv|chain|programs --seed N --seconds T
//            --trace 0|1 --programs DIR [--results FILE] [--git DESCRIBE]
//
// The run makes whole passes over the workload's inputs, each pass in a
// seed-shuffled order, while the next pass is expected to end within T
// seconds (at least one pass always runs). An input's time to verdict is the
// median over its passes. About once a second between verifications the run
// makes a set-up tick: a fixed Z3 reference solve, a set-up, and another
// reference solve. For the gated end-to-end metrics each verification is
// divided by the reference solves of the ticks just before and after it, and
// each set-up by the two solves around it, so they follow the verifier and
// not the speed of a shared machine.
//
// --trace 0 reports the end-to-end metrics. --trace 1 verifies every input
// twice per pass, once untraced and once with an rmt::Trace attached through
// VerifierOptions::Telemetry, and reports the per-layer metrics from the
// spans the library already emits plus the harness's own bench.parse span
// around the call into the parser.
//
// The last line on stdout is one JSON object with the keys correct,
// attempted, failed and metrics. A human-readable report goes to stderr and
// the full result (run metadata, every metric, one row per input) to
// --results. The exit code is 1 on a wrong verdict or a count that differs
// between two verifications of one input, and 2 on a usage or input error.
//
//===----------------------------------------------------------------------===//

#include "ast/AstPrinter.h"
#include "core/Verifier.h"
#include "parser/Parser.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "workload/Chain.h"
#include "workload/SdvGen.h"

#include <z3.h>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace rmt;

namespace {

//===-- Workloads ---------------------------------------------------------===//

struct Input {
  std::string Name;
  std::string Source;
  unsigned Bound = 1;
  bool ExpectBug = false;
};

struct Workload {
  std::string Name;
  bool UseInvariants = false;
  /// Per-input engine timeout. Every input decides far inside it.
  double TimeoutSeconds = 20;
  std::vector<Input> Inputs;
};

/// The SDV-like corpus. Its driver structure is fixed rather than drawn from
/// --seed: corpora of 16 drivers drawn from different seeds, or with their
/// procedures shuffled, moved total_s by 17% and the bug-only sum by 46%
/// (quartile spread over median), because the solver's search time swings
/// with every detail of a driver. A fixed corpus
/// makes the run measure the verifier, not the draw. The shapes are the
/// smallest the corpus generator draws (3-4 handlers, 3-4 utilities, depth
/// 3, 2 calls per handler), each driver once safe and once buggy, so a
/// driver decides in 0.1-1.5 s at bound 1 and a run makes several passes.
std::vector<Input> sdvInputs() {
  constexpr unsigned Pairs = 6;
  std::vector<Input> Out;
  for (unsigned K = 0; K < Pairs; ++K) {
    for (bool Bug : {false, true}) {
      SdvParams P;
      P.Seed = 1000 + K;
      P.NumHandlers = 3 + K % 2;
      P.NumUtils = 3 + (K / 2) % 2;
      P.UtilDepth = 3;
      P.CallsPerHandler = 2;
      P.InjectBug = Bug;
      AstContext Ctx;
      Program Prog = makeSdvProgram(Ctx, P);
      Out.push_back({"drv" + std::to_string(K) + (Bug ? "_bug" : "_safe"),
                     printProgram(Ctx, Prog), 1, Bug});
    }
  }
  return Out;
}

/// The Fig. 2 chain at several N, safe and buggy.
std::vector<Input> chainInputs() {
  std::vector<Input> Out;
  for (unsigned N : {8u, 16u, 24u, 32u, 40u, 48u}) {
    for (bool Bug : {false, true}) {
      AstContext Ctx;
      Program Prog = makeChainProgram(Ctx, N, Bug);
      Out.push_back({"chain" + std::to_string(N) + (Bug ? "_bug" : "_safe"),
                     printProgram(Ctx, Prog), 1, Bug});
    }
  }
  return Out;
}

/// Parses a `// expect: safe|bug bound=N` header line.
bool parseExpectHeader(const std::string &Source, bool &ExpectBug,
                       unsigned &Bound) {
  size_t Pos = Source.find("// expect:");
  if (Pos == std::string::npos)
    return false;
  std::istringstream Line(
      Source.substr(Pos + 10, Source.find('\n', Pos) - Pos - 10));
  std::string Verdict, BoundField;
  Line >> Verdict >> BoundField;
  if ((Verdict != "bug" && Verdict != "safe") ||
      BoundField.rfind("bound=", 0) != 0)
    return false;
  int B = std::atoi(BoundField.c_str() + 6);
  if (B < 1)
    return false;
  ExpectBug = Verdict == "bug";
  Bound = static_cast<unsigned>(B);
  return true;
}

/// The sample programs, sorted by name. Empty on any read or header error.
std::vector<Input> programInputs(const std::string &Dir, std::string &Error) {
  std::vector<std::filesystem::path> Files;
  std::error_code EC;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, EC))
    if (Entry.path().extension() == ".hbpl")
      Files.push_back(Entry.path());
  if (EC || Files.empty()) {
    Error = "no .hbpl files in '" + Dir + "'";
    return {};
  }
  std::sort(Files.begin(), Files.end());
  std::vector<Input> Out;
  for (const auto &F : Files) {
    std::ifstream In(F);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Input I;
    I.Name = F.stem().string();
    I.Source = Buf.str();
    if (!In || !parseExpectHeader(I.Source, I.ExpectBug, I.Bound)) {
      Error = "cannot read an `// expect:` header from '" + F.string() + "'";
      return {};
    }
    Out.push_back(std::move(I));
  }
  return Out;
}

std::optional<Workload> makeWorkload(const std::string &Name,
                                     const std::string &ProgramsDir,
                                     std::string &Error) {
  Workload W;
  W.Name = Name;
  if (Name == "sdv" || Name == "sdv_inv") {
    W.UseInvariants = Name == "sdv_inv";
    W.Inputs = sdvInputs();
  } else if (Name == "chain") {
    W.Inputs = chainInputs();
  } else if (Name == "programs") {
    W.Inputs = programInputs(ProgramsDir, Error);
    if (W.Inputs.empty())
      return std::nullopt;
  } else {
    Error = "unknown workload '" + Name + "'";
    return std::nullopt;
  }
  return W;
}

//===-- One verification --------------------------------------------------===//

/// The counts a verification reports. They repeat exactly from run to run,
/// so two decided verifications of one input must agree on all of them.
struct Counts {
  size_t Inlined = 0, Merged = 0, Checks = 0, Iterations = 0, Labels = 0;
  bool operator==(const Counts &) const = default;
};

struct Sample {
  Verdict Outcome = Verdict::Unknown;
  bool ParseFailed = false;
  /// Source text to verdict: parseAndCheck plus verifyProgram.
  double Seconds = 0;
  /// The set-up tick that last ran before this verification.
  size_t Tick = 0;
  Counts C;
  size_t LabelsSolved = 0;
  unsigned InvConjuncts = 0;
  double MergeLookupSeconds = 0;
  uint64_t DisjQueries = 0;
  /// Traced only: seconds under each span name during this verification.
  std::map<std::string, double> Spans;
};

bool decided(Verdict V) { return V == Verdict::Bug || V == Verdict::Safe; }

/// A verification that did not decide counts at the timeout.
double timeToVerdict(const Sample &S, double TimeoutSeconds) {
  return decided(S.Outcome) ? S.Seconds : TimeoutSeconds;
}

Sample verifyOnce(const Workload &W, const Input &In, Trace *T) {
  std::map<std::string, double> Before;
  if (T)
    for (const auto &[Name, Agg] : T->spanAggregates())
      Before[Name] = Agg.Seconds;

  Sample S;
  Stopwatch Watch;
  AstContext Ctx;
  DiagEngine Diags;
  std::optional<Program> Prog;
  {
    TraceSpan Span(T, "bench.parse");
    Prog = parseAndCheck(In.Source, Ctx, Diags);
  }
  if (!Prog) {
    S.ParseFailed = true;
    S.Seconds = Watch.seconds();
    return S;
  }
  VerifierOptions Opts;
  Opts.Bound = In.Bound;
  Opts.UseInvariants = W.UseInvariants;
  Opts.Engine.TimeoutSeconds = W.TimeoutSeconds;
  Opts.Telemetry = T;
  VerifierRunResult R = verifyProgram(Ctx, *Prog, Ctx.sym("main"), Opts);
  S.Seconds = Watch.seconds();

  const VerifyResult &V = R.Result;
  S.Outcome = V.Outcome;
  S.C = {V.NumInlined, V.NumMerged, V.NumSolverChecks, V.NumIterations,
         R.NumLabels};
  S.LabelsSolved = R.NumLabelsSolved;
  S.InvConjuncts = R.InvariantConjuncts;
  S.MergeLookupSeconds = V.MergeLookupSeconds;
  S.DisjQueries = V.NumDisjQueries;
  if (T)
    for (const auto &[Name, Agg] : T->spanAggregates())
      S.Spans[Name] = Agg.Seconds - Before[Name];
  return S;
}

//===-- Machine-speed reference -------------------------------------------===//

/// Seconds the reference solve takes on the unloaded 4-vCPU VM the benchmark
/// was built on. setup_s is a set-up's share of the reference solves around
/// it, times this constant: set-up seconds at that machine's speed.
constexpr double NominalRefSeconds = 0.030;

/// Solves a fixed random 3-SAT instance (200 variables, 850 clauses, a
/// satisfiable draw near the phase transition) with Z3 through its C API and
/// returns the seconds taken, or a negative value if Z3 does not answer sat.
/// It runs none of this repository's code, so a change to the verifier
/// cannot move it; it moves only with the speed of the machine. On a shared
/// host that speed drifts by half over minutes, and the reference drifts with
/// it, so times divided by the reference stay put.
double referenceSolve() {
  constexpr unsigned Vars = 200, Clauses = 850;
  Stopwatch Watch;
  Z3_config Cfg = Z3_mk_config();
  Z3_context C = Z3_mk_context(Cfg);
  Z3_del_config(Cfg);
  Z3_solver S = Z3_mk_solver(C);
  Z3_solver_inc_ref(C, S);
  std::vector<Z3_ast> V;
  for (unsigned I = 0; I < Vars; ++I)
    V.push_back(Z3_mk_const(C, Z3_mk_int_symbol(C, static_cast<int>(I)),
                            Z3_mk_bool_sort(C)));
  uint64_t X = 42; // xorshift64: the instance must not depend on anything
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  for (unsigned K = 0; K < Clauses; ++K) {
    Z3_ast Lits[3];
    for (Z3_ast &L : Lits) {
      Z3_ast Var = V[Next() % Vars];
      L = Next() & 1 ? Var : Z3_mk_not(C, Var);
    }
    Z3_solver_assert(C, S, Z3_mk_or(C, 3, Lits));
  }
  bool Sat = Z3_solver_check(C, S) == Z3_L_TRUE;
  Z3_solver_dec_ref(C, S);
  Z3_del_context(C);
  return Sat ? Watch.seconds() : -1;
}

//===-- Statistics --------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile \p P in [0, 1].
double percentile(std::vector<double> V, double P) {
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

/// Median of \p Value over \p Samples.
template <typename F>
double medianOver(const std::vector<Sample> &Samples, F Value) {
  std::vector<double> V;
  for (const Sample &S : Samples)
    V.push_back(Value(S));
  return median(V);
}

double spanOf(const Sample &S, const std::string &Name) {
  auto It = S.Spans.find(Name);
  return It == S.Spans.end() ? 0 : It->second;
}

/// Time the library's verify span spends outside the named layer spans. That
/// is the engine's set-up (the Z3 context, Disj_blk precompute and the
/// strategy) and teardown, plus rendering the counterexample of a Bug
/// verdict. None of these has a span of its own inside the library yet.
double uncoveredOf(const Sample &S) {
  return spanOf(S, "verify") - spanOf(S, "verify.bound") -
         spanOf(S, "verify.lower") - spanOf(S, "prepass.pipeline") -
         spanOf(S, "engine.run");
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

//===-- Output ------------------------------------------------------------===//

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.9g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::string numList(const std::vector<double> &Vs) {
  std::string Out = "[";
  for (size_t I = 0; I < Vs.size(); ++I)
    Out += (I ? ", " : "") + num(Vs[I]);
  return Out + "]";
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (size_t I = 0; I < Ms.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + jsonEscape(Ms[I].Name) + "\": {\"value\": " +
           num(Ms[I].Value) + ", \"unit\": \"" + jsonEscape(Ms[I].Unit) +
           "\"}";
  }
  return Out + "}";
}

std::string z3Version() {
  unsigned Major = 0, Minor = 0, Build = 0, Rev = 0;
  Z3_get_version(&Major, &Minor, &Build, &Rev);
  return std::to_string(Major) + "." + std::to_string(Minor) + "." +
         std::to_string(Build);
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Args {
  std::string Workload, ProgramsDir, ResultsPath, GitDescribe = "unknown";
  uint64_t Seed = 0;
  double Seconds = 0;
  int TraceMode = -1;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      A.Workload = Val;
    else if (Key == "--seed")
      A.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      A.Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      A.TraceMode = Val == "0" ? 0 : Val == "1" ? 1 : -1;
    else if (Key == "--programs")
      A.ProgramsDir = Val;
    else if (Key == "--results")
      A.ResultsPath = Val;
    else if (Key == "--git")
      A.GitDescribe = Val;
    else
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty() && A.Seconds > 0 &&
         A.TraceMode >= 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: rmtbench --workload sdv|sdv_inv|chain|programs "
                 "--seed N --seconds T --trace 0|1 --programs DIR "
                 "[--results FILE] [--git DESCRIBE]\n");
    return 2;
  }
  const bool Traced = A.TraceMode == 1;

  // A set-up tick: a reference solve, a set-up, and another reference solve.
  // The set-up makes the inputs (generate and print, or read files) and
  // verifies one fixed small program, which creates a Z3 context. Ticks run
  // a few times here and then about once a second between verifications.
  // The host's speed drifts by half over minutes, and the two solves taken
  // just before and after a set-up share its speed, so a set-up divided by
  // them is steady where its seconds are not. The reference solves also feed
  // the reference of the verifications around the tick: TickRefs holds each
  // tick's mean solve.
  std::vector<double> SetupTimes, SetupRatios, RefTimes, TickRefs;
  std::string Error;
  std::optional<Workload> W;
  auto Tick = [&]() -> bool {
    double Before = referenceSolve();
    Stopwatch Watch;
    std::optional<Workload> Made =
        makeWorkload(A.Workload, A.ProgramsDir, Error);
    if (!Made)
      return false;
    AstContext Ctx;
    Program Warm = makeChainProgram(Ctx, 4);
    Workload WarmW{"warmup", false, 20, {}};
    Sample S = verifyOnce(WarmW, {"warmup", printProgram(Ctx, Warm), 1, false},
                          nullptr);
    if (S.Outcome != Verdict::Safe) {
      Error = "warm-up verify did not return safe";
      return false;
    }
    double Setup = Watch.seconds();
    double After = referenceSolve();
    if (Before < 0 || After < 0) {
      Error = "the reference instance is not sat";
      return false;
    }
    RefTimes.insert(RefTimes.end(), {Before, After});
    TickRefs.push_back((Before + After) / 2);
    SetupTimes.push_back(Setup);
    SetupRatios.push_back(Setup / TickRefs.back());
    if (!W)
      W = std::move(Made);
    return true;
  };
  for (int Rep = 0; Rep < 5; ++Rep)
    if (!Tick()) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
  const std::vector<Input> &Inputs = W->Inputs;

  // Closed loop over whole passes.
  std::vector<std::vector<Sample>> Plain(Inputs.size()), Tr(Inputs.size());
  Trace Telemetry(1 << 12);
  Telemetry.setEnabled(true);
  Rng OrderGen(A.Seed);
  std::vector<size_t> Order(Inputs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  Stopwatch TickWatch, RunWatch;
  double LastPass = 0;
  unsigned Passes = 0;
  while (Passes == 0 || RunWatch.seconds() + LastPass <= A.Seconds) {
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[OrderGen.below(I)]);
    Stopwatch PassWatch;
    for (size_t Idx : Order) {
      if (TickWatch.seconds() >= 1.0) {
        if (!Tick()) {
          std::fprintf(stderr, "error: %s\n", Error.c_str());
          return 2;
        }
        TickWatch.reset();
      }
      // Alternate which of the pair runs first, so neither side always
      // follows the other.
      bool TracedFirst = Traced && Passes % 2 == 1;
      if (TracedFirst)
        Tr[Idx].push_back(verifyOnce(*W, Inputs[Idx], &Telemetry));
      Plain[Idx].push_back(verifyOnce(*W, Inputs[Idx], nullptr));
      Plain[Idx].back().Tick = TickRefs.size() - 1;
      if (Traced && !TracedFirst)
        Tr[Idx].push_back(verifyOnce(*W, Inputs[Idx], &Telemetry));
    }
    LastPass = PassWatch.seconds();
    ++Passes;
  }
  const double MeasuredSeconds = RunWatch.seconds();
  // A closing tick, so the last verifications have a reference after them.
  if (!Tick()) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  // The machine's speed during a verification: the mean of the ticks just
  // before and just after it.
  auto RefOf = [&](const Sample &S) {
    return (TickRefs[S.Tick] + TickRefs[S.Tick + 1]) / 2;
  };

  // Check every verification and reduce each input to its medians.
  bool Correct = true;
  unsigned Attempted = 0, Failed = 0, Solved = 0;
  std::vector<double> AllTimes, AllRefTimes, Medians(Inputs.size()),
      RefMedians(Inputs.size());
  std::vector<std::string> Rows;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    const Input &In = Inputs[I];
    const Verdict Expected = In.ExpectBug ? Verdict::Bug : Verdict::Safe;
    std::optional<Counts> First;
    bool AllDecided = true, InputOk = true;
    std::vector<double> Times, RefTimesOfInput;
    for (const std::vector<Sample> *Side : {&Plain[I], &Tr[I]}) {
      for (const Sample &S : *Side) {
        ++Attempted;
        if (S.ParseFailed) {
          std::fprintf(stderr, "WRONG: %s does not parse\n", In.Name.c_str());
          InputOk = false;
          continue;
        }
        if (!decided(S.Outcome)) {
          ++Failed;
          AllDecided = false;
          continue;
        }
        if (S.Outcome != Expected) {
          std::fprintf(stderr, "WRONG: %s returned %s, expected %s\n",
                       In.Name.c_str(), verdictName(S.Outcome),
                       verdictName(Expected));
          InputOk = false;
          continue;
        }
        if (!First) {
          First = S.C;
        } else if (!(S.C == *First)) {
          std::fprintf(stderr, "NONDETERMINISTIC: %s counts differ between "
                               "two verifications\n",
                       In.Name.c_str());
          InputOk = false;
        }
      }
    }
    for (const Sample &S : Plain[I]) {
      Times.push_back(timeToVerdict(S, W->TimeoutSeconds));
      AllTimes.push_back(Times.back());
      RefTimesOfInput.push_back(Times.back() / RefOf(S));
      AllRefTimes.push_back(RefTimesOfInput.back());
    }
    Medians[I] = median(Times);
    RefMedians[I] = median(RefTimesOfInput);
    Correct = Correct && InputOk;
    if (AllDecided && InputOk)
      ++Solved;
    const Sample &S0 = Plain[I].front();
    Rows.push_back("{\"input\": \"" + jsonEscape(In.Name) +
                   "\", \"expected\": \"" + verdictName(Expected) +
                   "\", \"verdict\": \"" + verdictName(S0.Outcome) +
                   "\", \"bound\": " + std::to_string(In.Bound) +
                   ", \"median_s\": " + num(Medians[I]) +
                   ", \"times_s\": " + numList(Times) +
                   ", \"inlined\": " + std::to_string(S0.C.Inlined) +
                   ", \"merged\": " + std::to_string(S0.C.Merged) +
                   ", \"checks\": " + std::to_string(S0.C.Checks) +
                   ", \"iterations\": " + std::to_string(S0.C.Iterations) +
                   ", \"labels\": " + std::to_string(S0.C.Labels));
    if (Traced) {
      // Where this input's verify time goes, as medians over its traced
      // verifications.
      auto Of = [&](auto &&Value) { return num(medianOver(Tr[I], Value)); };
      Rows.back() +=
          ", \"verify_s\": " +
          Of([](const Sample &S) { return spanOf(S, "verify"); }) +
          ", \"prepass_s\": " +
          Of([](const Sample &S) { return spanOf(S, "prepass.pipeline"); }) +
          ", \"core_setup_s\": " + Of(uncoveredOf) +
          ", \"nonsolver_s\": " + Of([](const Sample &S) {
            return spanOf(S, "engine.run") - spanOf(S, "z3.check_sat");
          }) +
          ", \"check_s\": " +
          Of([](const Sample &S) { return spanOf(S, "z3.check_sat"); });
    }
    Rows.back() += "}";
  }

  // Sum over inputs of the median of Value over the input's traced
  // verifications.
  auto SumMedians = [&](auto &&Value) {
    double Sum = 0;
    for (const std::vector<Sample> &Samples : Tr)
      Sum += medianOver(Samples, Value);
    return Sum;
  };

  double TotalPlain = 0, TotalBug = 0, TotalSafe = 0;
  double RefTotal = 0, RefBug = 0, RefSafe = 0;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    TotalPlain += Medians[I];
    (Inputs[I].ExpectBug ? TotalBug : TotalSafe) += Medians[I];
    RefTotal += RefMedians[I];
    (Inputs[I].ExpectBug ? RefBug : RefSafe) += RefMedians[I];
  }

  // End-to-end metrics. The gated times are in units of the reference solve
  // around each verification ("ref"), and setup_s is in seconds at the
  // nominal reference speed; the same times in seconds follow them.
  // verdict_s.p90 needs at least 10 samples beyond it.
  const double RefS = median(RefTimes);
  const double VerdictP50 = median(AllTimes);
  std::vector<Metric> EndToEnd = {
      {"total_ref", RefTotal, "ref"},
      {"total_ref.bug", RefBug, "ref"},
      {"total_ref.safe", RefSafe, "ref"},
      {"verdict_ref.p50", median(AllRefTimes), "ref"},
      {"solved", static_cast<double>(Solved), "count"},
      {"setup_s", median(SetupRatios) * NominalRefSeconds, "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
  std::vector<Metric> Extra = {
      {"total_s", TotalPlain, "s"},
      {"total_s.bug", TotalBug, "s"},
      {"total_s.safe", TotalSafe, "s"},
      {"verdict_s.p50", VerdictP50, "s"},
      {"ref_s", RefS, "s"},
      {"setup_wall_s", median(SetupTimes), "s"},
      {"verdicts", static_cast<double>(AllTimes.size()), "count"},
      {"failed_frac", Attempted ? double(Failed) / Attempted : 0, "ratio"},
  };
  if (AllTimes.size() >= 100)
    Extra.push_back({"verdict_s.p90", percentile(AllTimes, 0.9), "s"});

  // Per-layer metrics from the traced verifications: each is the sum over
  // inputs of the input's median, like total_s.
  std::vector<Metric> Layers;
  if (Traced) {
    auto Span = [&](const char *Name) {
      return SumMedians([&](const Sample &S) { return spanOf(S, Name); });
    };
    auto Count = [&](auto Field) {
      return SumMedians([&](const Sample &S) { return double(Field(S)); });
    };
    double TracedTotal = SumMedians([&](const Sample &S) {
      return timeToVerdict(S, W->TimeoutSeconds);
    });
    double ParseS = Span("bench.parse");
    double SourceBytes = 0;
    for (const Input &In : Inputs)
      SourceBytes += static_cast<double>(In.Source.size());
    double VerifyS = Span("verify");
    double EngineS = Span("engine.run");
    double CheckS = Span("z3.check_sat");
    double Labels = Count([](const Sample &S) { return S.C.Labels; });
    double Inlined = Count([](const Sample &S) { return S.C.Inlined; });
    double Merged = Count([](const Sample &S) { return S.C.Merged; });
    double Checks = Count([](const Sample &S) { return S.C.Checks; });
    double Uncovered = SumMedians(uncoveredOf);
    Layers = {
        {"parser.s", ParseS, "s"},
        {"parser.mb_per_s", ParseS > 0 ? SourceBytes / ParseS / 1e6 : 0,
         "MB/s"},
        {"transform.bound_s", Span("verify.bound"), "s"},
        {"transform.labels", Labels, "count"},
        {"cfg.lower_s", Span("verify.lower"), "s"},
        {"analysis.prepass_s", Span("prepass.pipeline"), "s"},
    };
    for (const char *Pass : {"constprop", "gvn", "assumeelim", "slice",
                             "splice", "deadproc", "inv"})
      Layers.push_back({std::string("analysis.pass.") + Pass + "_s",
                        Span((std::string("pass.") + Pass).c_str()), "s"});
    std::vector<Metric> Rest = {
        {"analysis.labels_kept_frac",
         Labels > 0
             ? Count([](const Sample &S) { return S.LabelsSolved; }) / Labels
             : 0,
         "ratio"},
        {"analysis.inv_conjuncts",
         Count([](const Sample &S) { return S.InvConjuncts; }), "count"},
        {"core.setup_s", Uncovered, "s"},
        {"core.engine_s", EngineS, "s"},
        {"core.nonsolver_s",
         SumMedians(
             [](const Sample &S) {
               return spanOf(S, "engine.run") - spanOf(S, "z3.check_sat");
             }),
         "s"},
        {"core.iterations",
         Count([](const Sample &S) { return S.C.Iterations; }), "count"},
        {"core.inlined", Inlined, "count"},
        {"core.merged", Merged, "count"},
        // Every open edge is resolved by a merge or by inlining a fresh
        // node; only the root is inlined without one.
        {"core.merge_frac",
         Merged + Inlined > double(Inputs.size())
             ? Merged / (Merged + Inlined - double(Inputs.size()))
             : 0,
         "ratio"},
        {"core.merge_lookup_s",
         SumMedians([](const Sample &S) { return S.MergeLookupSeconds; }),
         "s"},
        {"core.disj_queries",
         Count([](const Sample &S) { return S.DisjQueries; }), "count"},
        {"smt.check_s", CheckS, "s"},
        {"smt.checks", Checks, "count"},
        {"smt.under_check_s", Span("engine.under_check"), "s"},
        {"smt.over_check_s", Span("engine.over_check"), "s"},
        {"smt.s_per_check", Checks > 0 ? CheckS / Checks : 0, "s"},
        {"trace.overhead_frac",
         TotalPlain > 0 ? TracedTotal / TotalPlain - 1 : 0, "ratio"},
        {"trace.coverage", VerifyS > 0 ? 1 - Uncovered / VerifyS : 0,
         "ratio"},
    };
    Layers.insert(Layers.end(), Rest.begin(), Rest.end());
  }

  // Human-readable report.
  std::fprintf(stderr, "workload %s  seed %llu  passes %u  measured %.2f s\n",
               W->Name.c_str(), static_cast<unsigned long long>(A.Seed),
               Passes, MeasuredSeconds);
  std::fprintf(stderr, "  %-24s %-6s %-8s %10s %7s %7s %6s\n", "input",
               "expect", "verdict", "median_s", "inlined", "merged",
               "checks");
  for (size_t I = 0; I < Inputs.size(); ++I) {
    const Sample &S0 = Plain[I].front();
    std::fprintf(stderr, "  %-24s %-6s %-8s %10.4f %7zu %7zu %6zu\n",
                 Inputs[I].Name.c_str(), Inputs[I].ExpectBug ? "bug" : "safe",
                 verdictName(S0.Outcome), Medians[I], S0.C.Inlined,
                 S0.C.Merged, S0.C.Checks);
  }
  for (const std::vector<Metric> *Group : {&EndToEnd, &Extra, &Layers})
    for (const Metric &M : *Group)
      std::fprintf(stderr, "  %-28s %14.6f %s\n", M.Name.c_str(), M.Value,
                   M.Unit.c_str());
  if (AllTimes.size() < 100)
    std::fprintf(stderr, "  %-28s %14s (needs 100 verdicts, have %zu)\n",
                 "verdict_s.p90", "n/a", AllTimes.size());

  if (!A.ResultsPath.empty()) {
    std::vector<Metric> Everything = EndToEnd;
    Everything.insert(Everything.end(), Extra.begin(), Extra.end());
    Everything.insert(Everything.end(), Layers.begin(), Layers.end());
    std::string Doc =
        "{\"meta\": {\"workload\": \"" + jsonEscape(W->Name) +
        "\", \"seed\": " + std::to_string(A.Seed) +
        ", \"seconds\": " + num(A.Seconds) +
        ", \"trace\": " + std::to_string(A.TraceMode) +
        ", \"timeout_s\": " + num(W->TimeoutSeconds) +
        ", \"passes\": " + std::to_string(Passes) +
        ", \"measured_s\": " + num(MeasuredSeconds) +
        ", \"setup_times_s\": " + numList(SetupTimes) +
        ", \"ref_times_s\": " + numList(RefTimes) +
        ", \"z3\": \"" + z3Version() + "\", \"build_type\": \"" +
        jsonEscape(RMT_BUILD_TYPE) + "\", \"compiler\": \"" +
        jsonEscape(RMT_COMPILER) + "\", \"git\": \"" +
        jsonEscape(A.GitDescribe) + "\", \"nproc\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        "}, \"correct\": " + (Correct ? "true" : "false") +
        ", \"metrics\": " + metricsJson(Everything) + ", \"rows\": [";
    for (size_t I = 0; I < Rows.size(); ++I)
      Doc += (I ? ", " : "") + Rows[I];
    Doc += "]}\n";
    std::ofstream Out(A.ResultsPath);
    Out << Doc;
    if (!Out)
      std::fprintf(stderr, "warning: cannot write '%s'\n",
                   A.ResultsPath.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false", Attempted, Failed,
              metricsJson(Traced ? Layers : EndToEnd).c_str());
  return Correct ? 0 : 1;
}
