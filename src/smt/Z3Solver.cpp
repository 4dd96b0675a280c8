//===- Z3Solver.cpp -------------------------------------------------------===//

#include "smt/Z3Solver.h"

#include "support/Trace.h"

#include <z3.h>

#include <cassert>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

using namespace rmt;

Solver::~Solver() = default;

const char *rmt::solveResultName(SolveResult R) {
  switch (R) {
  case SolveResult::Sat:
    return "sat";
  case SolveResult::Unsat:
    return "unsat";
  case SolveResult::Unknown:
    return "unknown";
  }
  return "?";
}

namespace {

/// Z3 reports API misuse through an error handler; we record and keep going
/// (checks then return Unknown). Using a thread-unsafe global is acceptable:
/// each Z3SolverImpl owns its own context, and the handler only flags.
void z3ErrorHandler(Z3_context Ctx, Z3_error_code Code) {
  std::fprintf(stderr, "z3 error %d: %s\n", static_cast<int>(Code),
               Z3_get_error_msg(Ctx, Code));
}

/// Stops Z3 compacting every model it builds. By default Z3 4.8.12's
/// Z3_solver_get_model compresses the model of every constant in the VC
/// (model.compact=true): about half of get_model's time, paid on every Sat
/// check, while the engine reads only a few Boolean values from each model.
/// Compaction only changes how the model stores function graphs; constant
/// values and the solver's state are the same without it. The setting has to
/// be global: Z3 4.8.12 rejects model.compact as a context config
/// (Z3_set_param_value: "unknown parameter"), through Z3_update_param_value
/// alike, and as a solver param (Z3_solver_set_params fails validation, after
/// about 1.7 ms spent on it). Z3 reads the global value whenever it builds a
/// model, so setting it once per process, before the first solver, covers
/// every solver.
void disableModelCompaction() {
  static std::once_flag Once;
  std::call_once(Once, [] { Z3_global_param_set("model.compact", "false"); });
}

class Z3SolverImpl final : public Solver {
public:
  Z3SolverImpl(const TermArena &Arena, Trace *Telemetry)
      : Arena(Arena), Telemetry(Telemetry) {
    disableModelCompaction();
    Z3_config Config = Z3_mk_config();
    Z3_set_param_value(Config, "model", "true");
    Ctx = Z3_mk_context(Config);
    Z3_del_config(Config);
    Z3_set_error_handler(Ctx, z3ErrorHandler);
    // Z3's plain incremental SMT core. Z3_mk_solver's combined solver hands
    // every incremental check to this same core, but on the first assertion
    // it also builds Z3's whole default tactic as a second, non-incremental
    // solver: about 6 ms per solver against Z3 4.8.12, plus about 1 ms more
    // at Z3_del_context, and the engine never uses it after its first check.
    // The one behaviour lost is the combined solver's retry on that tactic
    // of an assumption-free check whose answer is Unknown without a timeout
    // (combined_solver.solver2_unknown); here such a check stays Unknown.
    Sol = Z3_mk_simple_solver(Ctx);
    Z3_solver_inc_ref(Ctx, Sol);
  }

  ~Z3SolverImpl() override {
    clearModel();
    Z3_solver_dec_ref(Ctx, Sol);
    Z3_del_context(Ctx);
  }

  void assertTerm(TermRef T) override {
    ++NumAsserts;
    Z3_solver_assert(Ctx, Sol, translate(T));
  }

  void push() override { Z3_solver_push(Ctx, Sol); }
  void pop() override { Z3_solver_pop(Ctx, Sol, 1); }

  SolveResult check(const std::vector<TermRef> &Assumptions,
                    double TimeoutSeconds) override {
    ++NumChecks;
    TraceSpan Span(Telemetry, "z3.check_sat",
                   {{"asserts", NumAsserts},
                    {"assumptions", Assumptions.size()}});
    clearModel();
    setTimeout(TimeoutSeconds);
    std::vector<Z3_ast> Lits;
    Lits.reserve(Assumptions.size());
    for (TermRef A : Assumptions)
      Lits.push_back(translate(A));
    Z3_lbool R = Z3_solver_check_assumptions(
        Ctx, Sol, static_cast<unsigned>(Lits.size()), Lits.data());
    SolveResult Out = SolveResult::Unknown;
    if (R == Z3_L_TRUE) {
      TraceSpan ModelSpan(Telemetry, "z3.model");
      Model = Z3_solver_get_model(Ctx, Sol);
      Z3_model_inc_ref(Ctx, Model);
      Out = SolveResult::Sat;
    } else if (R == Z3_L_FALSE) {
      Out = SolveResult::Unsat;
    }
    Span.note({"result", solveResultName(Out)});
    return Out;
  }

  bool modelBool(TermRef ConstTerm) override {
    Z3_ast Value = evalInModel(ConstTerm);
    return Value && Z3_get_bool_value(Ctx, Value) == Z3_L_TRUE;
  }

  int64_t modelInt(TermRef ConstTerm) override {
    Z3_ast Value = evalInModel(ConstTerm);
    int64_t Out = 0;
    if (Value && !Z3_get_numeral_int64(Ctx, Value, &Out)) {
      // Wide bitvector values may only fit unsigned extraction.
      uint64_t U = 0;
      if (Z3_get_numeral_uint64(Ctx, Value, &U))
        Out = static_cast<int64_t>(U);
    }
    return Out;
  }

private:
  /// Z3's "no timeout" value for the timeout parameter.
  static constexpr unsigned NoTimeoutMs = 4294967295u;

  /// Passes one check's budget to Z3 as the "timeout" parameter of this
  /// solver's private context, which the next check reads. The obvious route,
  /// Z3_solver_set_params, re-validates and re-applies the solver's whole
  /// parameter set: about 1.7 ms per call against Z3 4.8.12, some thirty
  /// times a trivial incremental check, and the engine checks twice per
  /// iteration. With the one context value updated instead, a budgeted
  /// trivial check costs within 1.5x of an unbudgeted one (bench_micro's
  /// BM_Z3CheckTrivial). The budget is rounded up to whole milliseconds, so
  /// Z3's own timer never fires before the caller's deadline: an Unknown on a
  /// spent budget then reads as a timeout there, not as an early give-up. A
  /// non-positive budget resets the value to unlimited, since it would
  /// otherwise stay at the last check's limit.
  void setTimeout(double TimeoutSeconds) {
    unsigned Ms = NoTimeoutMs;
    if (TimeoutSeconds > 0 && TimeoutSeconds * 1000.0 < NoTimeoutMs)
      Ms = static_cast<unsigned>(std::ceil(TimeoutSeconds * 1000.0));
    Z3_update_param_value(Ctx, "timeout", std::to_string(Ms).c_str());
  }

  void clearModel() {
    if (Model) {
      Z3_model_dec_ref(Ctx, Model);
      Model = nullptr;
    }
  }

  Z3_ast evalInModel(TermRef T) {
    assert(Model && "model access without a preceding Sat result");
    Z3_ast Out = nullptr;
    if (!Z3_model_eval(Ctx, Model, translate(T), /*model_completion=*/true,
                       &Out))
      return nullptr;
    return Out;
  }

  Z3_sort sortOf(const Type *Ty) {
    if (!Ty || Ty->isInt())
      return Z3_mk_int_sort(Ctx);
    if (Ty->isBool())
      return Z3_mk_bool_sort(Ctx);
    if (Ty->isBv())
      return Z3_mk_bv_sort(Ctx, Ty->bvWidth());
    return Z3_mk_array_sort(Ctx, sortOf(Ty->indexType()),
                            sortOf(Ty->elementType()));
  }

  /// True when the value sort of \p T is a bitvector (arithmetic then uses
  /// the bv variants). Sorts are propagated bottom-up by the arena.
  bool isBvValued(TermRef T) {
    const Type *S = Arena.sort(T);
    return S && S->isBv();
  }

  /// Translates \p T, memoizing per TermRef. Iterative worklist: VC terms
  /// can be deep (long implication chains), so no recursion.
  Z3_ast translate(TermRef Root) {
    if (Root.id() < Cache.size() && Cache[Root.id()])
      return Cache[Root.id()];
    std::vector<TermRef> Work{Root};
    while (!Work.empty()) {
      TermRef T = Work.back();
      if (T.id() < Cache.size() && Cache[T.id()]) {
        Work.pop_back();
        continue;
      }
      bool KidsReady = true;
      for (unsigned I = 0, N = Arena.numKids(T); I < N; ++I) {
        TermRef K = Arena.kid(T, I);
        if (K.id() >= Cache.size() || !Cache[K.id()]) {
          Work.push_back(K);
          KidsReady = false;
        }
      }
      if (!KidsReady)
        continue;
      Work.pop_back();
      if (T.id() >= Cache.size())
        Cache.resize(Arena.numTerms(), nullptr);
      Cache[T.id()] = build(T);
    }
    return Cache[Root.id()];
  }

  Z3_ast kidAst(TermRef T, unsigned I) {
    return Cache[Arena.kid(T, I).id()];
  }

  Z3_ast build(TermRef T) {
    const TermNode &N = Arena.node(T);
    switch (N.Op) {
    case TermOp::Const: {
      Z3_symbol Name =
          Z3_mk_string_symbol(Ctx, Arena.constName(T).c_str());
      return Z3_mk_const(Ctx, Name, sortOf(N.Sort));
    }
    case TermOp::IntLit:
      if (N.Sort && N.Sort->isBv())
        return Z3_mk_unsigned_int64(Ctx, static_cast<uint64_t>(N.Payload),
                                    sortOf(N.Sort));
      return Z3_mk_int64(Ctx, N.Payload, Z3_mk_int_sort(Ctx));
    case TermOp::BoolLit:
      return N.Payload ? Z3_mk_true(Ctx) : Z3_mk_false(Ctx);
    case TermOp::Not:
      return Z3_mk_not(Ctx, kidAst(T, 0));
    case TermOp::And: {
      Z3_ast Args[2] = {kidAst(T, 0), kidAst(T, 1)};
      return Z3_mk_and(Ctx, 2, Args);
    }
    case TermOp::Or: {
      Z3_ast Args[2] = {kidAst(T, 0), kidAst(T, 1)};
      return Z3_mk_or(Ctx, 2, Args);
    }
    case TermOp::Implies:
      return Z3_mk_implies(Ctx, kidAst(T, 0), kidAst(T, 1));
    case TermOp::Eq:
      return Z3_mk_eq(Ctx, kidAst(T, 0), kidAst(T, 1));
    case TermOp::Lt:
      if (isBvValued(Arena.kid(T, 0)) || isBvValued(Arena.kid(T, 1)))
        return Z3_mk_bvult(Ctx, kidAst(T, 0), kidAst(T, 1));
      return Z3_mk_lt(Ctx, kidAst(T, 0), kidAst(T, 1));
    case TermOp::Le:
      if (isBvValued(Arena.kid(T, 0)) || isBvValued(Arena.kid(T, 1)))
        return Z3_mk_bvule(Ctx, kidAst(T, 0), kidAst(T, 1));
      return Z3_mk_le(Ctx, kidAst(T, 0), kidAst(T, 1));
    case TermOp::Neg:
      if (isBvValued(T))
        return Z3_mk_bvneg(Ctx, kidAst(T, 0));
      return Z3_mk_unary_minus(Ctx, kidAst(T, 0));
    case TermOp::Add: {
      if (isBvValued(T))
        return Z3_mk_bvadd(Ctx, kidAst(T, 0), kidAst(T, 1));
      Z3_ast Args[2] = {kidAst(T, 0), kidAst(T, 1)};
      return Z3_mk_add(Ctx, 2, Args);
    }
    case TermOp::Sub: {
      if (isBvValued(T))
        return Z3_mk_bvsub(Ctx, kidAst(T, 0), kidAst(T, 1));
      Z3_ast Args[2] = {kidAst(T, 0), kidAst(T, 1)};
      return Z3_mk_sub(Ctx, 2, Args);
    }
    case TermOp::Mul: {
      if (isBvValued(T))
        return Z3_mk_bvmul(Ctx, kidAst(T, 0), kidAst(T, 1));
      Z3_ast Args[2] = {kidAst(T, 0), kidAst(T, 1)};
      return Z3_mk_mul(Ctx, 2, Args);
    }
    case TermOp::Div:
      if (isBvValued(T))
        return Z3_mk_bvudiv(Ctx, kidAst(T, 0), kidAst(T, 1));
      return Z3_mk_div(Ctx, kidAst(T, 0), kidAst(T, 1));
    case TermOp::Mod:
      if (isBvValued(T))
        return Z3_mk_bvurem(Ctx, kidAst(T, 0), kidAst(T, 1));
      return Z3_mk_mod(Ctx, kidAst(T, 0), kidAst(T, 1));
    case TermOp::Ite:
      return Z3_mk_ite(Ctx, kidAst(T, 0), kidAst(T, 1), kidAst(T, 2));
    case TermOp::Select:
      return Z3_mk_select(Ctx, kidAst(T, 0), kidAst(T, 1));
    case TermOp::Store:
      return Z3_mk_store(Ctx, kidAst(T, 0), kidAst(T, 1), kidAst(T, 2));
    }
    assert(false && "unhandled term op");
    return nullptr;
  }

  const TermArena &Arena;
  Trace *Telemetry = nullptr;
  Z3_context Ctx = nullptr;
  Z3_solver Sol = nullptr;
  Z3_model Model = nullptr;
  /// TermRef id -> Z3 ast. Z3_mk_context (non-rc mode) keeps all ASTs alive
  /// for the context's lifetime, so caching plain pointers is safe.
  std::vector<Z3_ast> Cache;
};

} // namespace

std::unique_ptr<Solver> rmt::createZ3Solver(const TermArena &Arena,
                                            Trace *Telemetry) {
  return std::make_unique<Z3SolverImpl>(Arena, Telemetry);
}
