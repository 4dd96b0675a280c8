//===- VcGen.cpp ----------------------------------------------------------===//

#include "core/VcGen.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace rmt;

VcContext::VcContext(const AstContext &Ctx, const CfgProgram &Prog,
                     TermArena &Arena, PvcMode Mode,
                     std::function<void(TermRef)> Sink)
    : Ctx(Ctx), Prog(Prog), Arena(Arena), Sink(std::move(Sink)), Mode(Mode) {}

void VcContext::push(TermRef Clause) {
  AllClauses.push_back(Clause);
  if (Sink)
    Sink(Clause);
}

const std::vector<VarDecl> &VcContext::scopeVars(ProcId Q) {
  auto It = ScopeCache.find(Q);
  if (It != ScopeCache.end())
    return It->second;
  std::vector<VarDecl> Scope;
  for (const VarDecl &G : Prog.Globals)
    Scope.push_back(G);
  const CfgProc &P = Prog.proc(Q);
  for (const auto *Decls : {&P.Params, &P.Returns, &P.Locals})
    for (const VarDecl &D : *Decls)
      Scope.push_back(D);
  return ScopeCache.emplace(Q, std::move(Scope)).first->second;
}

const std::vector<NodeId> &VcContext::instancesOf(ProcId Q) const {
  auto It = Instances.find(Q);
  return It == Instances.end() ? NoInstances : It->second;
}

namespace {

/// Conjunction of m1[v] == m2[v] over \p Vars, skipping those in \p Except.
TermRef eqVarsExcept(TermArena &Arena, const VarTermMap &M1,
                     const VarTermMap &M2, const std::vector<VarDecl> &Vars,
                     const std::unordered_set<Symbol> &Except) {
  TermRef Acc = Arena.mkTrue();
  for (const VarDecl &D : Vars) {
    if (Except.count(D.Name))
      continue;
    Acc = Arena.mkAnd(Acc, Arena.mkEq(M1.at(D.Name), M2.at(D.Name)));
  }
  return Acc;
}

TermRef eqVars(TermArena &Arena, const VarTermMap &M1, const VarTermMap &M2,
               const std::vector<VarDecl> &Vars) {
  return eqVarsExcept(Arena, M1, M2, Vars, {});
}

} // namespace

NodeId VcContext::genPvc(ProcId Q) {
  return Mode == PvcMode::Paper ? genPvcPaper(Q) : genPvcPassified(Q);
}

NodeId VcContext::genPvcPaper(ProcId Q) {
  const CfgProc &P = Prog.proc(Q);
  const std::vector<VarDecl> &Scope = scopeVars(Q);
  size_t NumGlobals = Prog.Globals.size();

  NodeId NId = static_cast<NodeId>(Nodes.size());
  Nodes.emplace_back();
  VcNode &N = Nodes.back();
  N.Proc = Q;
  N.Entry = P.Entry;
  Instances[Q].push_back(NId);

  // Lines 39–46: fresh BS[y], VS[y][v], VS'[y][v] for every label y and
  // every variable v in scope.
  std::unordered_map<LabelId, VarTermMap> VSOut;
  std::string Prefix = "n" + std::to_string(NId);
  for (LabelId Y : P.Labels) {
    std::string LTag = Prefix + ".L" + std::to_string(Y);
    N.BlockConst[Y] = Arena.freshConst(Ctx.boolType(), LTag + ".bs");
    VarTermMap &In = N.VarsAt[Y];
    VarTermMap &Out = VSOut[Y];
    for (const VarDecl &D : Scope) {
      std::string VTag = LTag + ".v" + std::to_string(D.Name.id());
      In[D.Name] = Arena.freshConst(D.Ty, VTag);
      Out[D.Name] = Arena.freshConst(D.Ty, VTag + "'");
    }
  }

  // Lines 47–49: entry control and input interface (globals ⧺ params).
  N.Control = N.BlockConst.at(P.Entry);
  const VarTermMap &EntryVars = N.VarsAt.at(P.Entry);
  for (const VarDecl &G : Prog.Globals)
    N.In.push_back(EntryVars.at(G.Name));
  for (const VarDecl &D : P.Params)
    N.In.push_back(EntryVars.at(D.Name));

  // Lines 50–51: fresh output interface (globals ⧺ returns).
  for (const VarDecl &G : Prog.Globals)
    N.Out.push_back(
        Arena.freshConst(G.Ty, Prefix + ".out.v" + std::to_string(G.Name.id())));
  for (const VarDecl &D : P.Returns)
    N.Out.push_back(
        Arena.freshConst(D.Ty, Prefix + ".out.v" + std::to_string(D.Name.id())));

  auto PushClause = [&](TermRef Clause) {
    N.Clauses.push_back(Clause);
    push(Clause);
  };

  // Lines 52–72: one transition clause and one successor clause per label.
  for (LabelId Y : P.Labels) {
    const CfgLabel &Lbl = Prog.label(Y);
    TermRef BS = N.BlockConst.at(Y);
    const VarTermMap &VY = N.VarsAt.at(Y);
    const VarTermMap &VYp = VSOut.at(Y);

    switch (Lbl.Stmt.Kind) {
    case CfgStmtKind::Assume: {
      TermRef Cond = translateExpr(Arena, Lbl.Stmt.E, VY);
      PushClause(Arena.mkImplies(
          BS, Arena.mkAnd(Cond, eqVars(Arena, VYp, VY, Scope))));
      break;
    }
    case CfgStmtKind::Assign: {
      TermRef Value = translateExpr(Arena, Lbl.Stmt.E, VY);
      TermRef Frame = eqVarsExcept(Arena, VYp, VY, Scope, {Lbl.Stmt.Target});
      PushClause(Arena.mkImplies(
          BS,
          Arena.mkAnd(Arena.mkEq(VYp.at(Lbl.Stmt.Target), Value), Frame)));
      break;
    }
    case CfgStmtKind::Havoc: {
      std::unordered_set<Symbol> Havocked(Lbl.Stmt.Vars.begin(),
                                          Lbl.Stmt.Vars.end());
      PushClause(
          Arena.mkImplies(BS, eqVarsExcept(Arena, VYp, VY, Scope, Havocked)));
      break;
    }
    case CfgStmtKind::Call: {
      // Lines 60–67: mint the open edge.
      EdgeId CId = static_cast<EdgeId>(Edges.size());
      VcEdge E;
      E.Src = NId;
      E.Callee = Lbl.Stmt.Callee;
      E.CallSite = Y;
      E.Control = BS;
      for (const VarDecl &G : Prog.Globals)
        E.In.push_back(VY.at(G.Name));
      for (const Expr *Arg : Lbl.Stmt.Args)
        E.In.push_back(translateExpr(Arena, Arg, VY));
      for (const VarDecl &G : Prog.Globals)
        E.Out.push_back(VYp.at(G.Name));
      for (Symbol Lhs : Lbl.Stmt.Vars)
        E.Out.push_back(VYp.at(Lhs));
      Edges.push_back(std::move(E));
      Open.push_back(CId);
      N.OutEdges.push_back(CId);

      // Line 68: locals are preserved across the call, except result
      // bindings; globals at VYp are the call's outputs (unconstrained until
      // the edge is bound — this is exactly the havoc summary Proc'(n) of
      // Section 3.2 when the edge stays open).
      std::unordered_set<Symbol> Except(Lbl.Stmt.Vars.begin(),
                                        Lbl.Stmt.Vars.end());
      for (const VarDecl &G : Prog.Globals)
        Except.insert(G.Name);
      PushClause(
          Arena.mkImplies(BS, eqVarsExcept(Arena, VYp, VY, Scope, Except)));
      break;
    }
    }

    // Lines 69–72: successor clause.
    if (Lbl.Targets.empty()) {
      TermRef Eq = Arena.mkTrue();
      for (size_t I = 0; I < NumGlobals; ++I)
        Eq = Arena.mkAnd(
            Eq, Arena.mkEq(VYp.at(Prog.Globals[I].Name), N.Out[I]));
      for (size_t I = 0; I < P.Returns.size(); ++I)
        Eq = Arena.mkAnd(Eq, Arena.mkEq(VYp.at(P.Returns[I].Name),
                                        N.Out[NumGlobals + I]));
      PushClause(Arena.mkImplies(BS, Eq));
    } else {
      TermRef Disj = Arena.mkFalse();
      for (LabelId X : Lbl.Targets) {
        TermRef Step = Arena.mkAnd(N.BlockConst.at(X),
                                   eqVars(Arena, VYp, N.VarsAt.at(X), Scope));
        Disj = Arena.mkOr(Disj, Step);
      }
      PushClause(Arena.mkImplies(BS, Disj));
    }
  }
  return NId;
}

NodeId VcContext::genPvcPassified(ProcId Q) {
  const CfgProc &P = Prog.proc(Q);
  const std::vector<VarDecl> &Scope = scopeVars(Q);
  size_t NumGlobals = Prog.Globals.size();

  NodeId NId = static_cast<NodeId>(Nodes.size());
  Nodes.emplace_back();
  VcNode &N = Nodes.back();
  N.Proc = Q;
  N.Entry = P.Entry;
  Instances[Q].push_back(NId);

  std::string Prefix = "n" + std::to_string(NId);
  auto FreshVars = [&](LabelId Y) {
    VarTermMap M;
    std::string LTag = Prefix + ".L" + std::to_string(Y);
    for (const VarDecl &D : Scope)
      M[D.Name] = Arena.freshConst(
          D.Ty, LTag + ".v" + std::to_string(D.Name.id()));
    return M;
  };

  // Predecessor counts decide which labels need join constants.
  std::unordered_map<LabelId, unsigned> PredCount;
  for (LabelId Y : P.Labels)
    PredCount[Y];
  for (LabelId Y : P.Labels)
    for (LabelId T : Prog.label(Y).Targets)
      ++PredCount[T];

  // BS constants for every label; entry/join/orphan labels get fresh
  // variable incarnations, everything else inherits its predecessor's
  // outgoing terms.
  for (LabelId Y : P.Labels) {
    N.BlockConst[Y] = Arena.freshConst(
        Ctx.boolType(), Prefix + ".L" + std::to_string(Y) + ".bs");
    if (Y == P.Entry || PredCount[Y] != 1)
      N.VarsAt[Y] = FreshVars(Y);
  }

  N.Control = N.BlockConst.at(P.Entry);
  const VarTermMap &EntryVars = N.VarsAt.at(P.Entry);
  for (const VarDecl &G : Prog.Globals)
    N.In.push_back(EntryVars.at(G.Name));
  for (const VarDecl &D : P.Params)
    N.In.push_back(EntryVars.at(D.Name));
  for (const VarDecl &G : Prog.Globals)
    N.Out.push_back(Arena.freshConst(
        G.Ty, Prefix + ".out.v" + std::to_string(G.Name.id())));
  for (const VarDecl &D : P.Returns)
    N.Out.push_back(Arena.freshConst(
        D.Ty, Prefix + ".out.v" + std::to_string(D.Name.id())));

  auto PushClause = [&](TermRef Clause) {
    if (Arena.isTrue(Clause))
      return;
    N.Clauses.push_back(Clause);
    push(Clause);
  };

  // Topological walk: each label's outgoing environment is a term map, not
  // a fresh constant vector, so straight-line code contributes no frame
  // equalities at all.
  for (LabelId Y : Prog.topoOrder(Q)) {
    const CfgLabel &Lbl = Prog.label(Y);
    TermRef BS = N.BlockConst.at(Y);
    const VarTermMap &VY = N.VarsAt.at(Y);
    VarTermMap Out = VY;

    switch (Lbl.Stmt.Kind) {
    case CfgStmtKind::Assume:
      PushClause(
          Arena.mkImplies(BS, translateExpr(Arena, Lbl.Stmt.E, VY)));
      break;
    case CfgStmtKind::Assign:
      Out[Lbl.Stmt.Target] = translateExpr(Arena, Lbl.Stmt.E, VY);
      break;
    case CfgStmtKind::Havoc: {
      std::string LTag = Prefix + ".L" + std::to_string(Y) + ".hv";
      for (Symbol Var : Lbl.Stmt.Vars)
        Out[Var] = Arena.freshConst(P.typeOf(Var),
                                    LTag + std::to_string(Var.id()));
      break;
    }
    case CfgStmtKind::Call: {
      EdgeId CId = static_cast<EdgeId>(Edges.size());
      VcEdge E;
      E.Src = NId;
      E.Callee = Lbl.Stmt.Callee;
      E.CallSite = Y;
      E.Control = BS;
      for (const VarDecl &G : Prog.Globals)
        E.In.push_back(VY.at(G.Name));
      for (const Expr *Arg : Lbl.Stmt.Args)
        E.In.push_back(translateExpr(Arena, Arg, VY));
      // Call outputs are genuinely fresh (the open edge is the havoc
      // summary); locals flow through untouched.
      std::string LTag = Prefix + ".L" + std::to_string(Y) + ".co";
      for (const VarDecl &G : Prog.Globals) {
        TermRef Fresh =
            Arena.freshConst(G.Ty, LTag + std::to_string(G.Name.id()));
        Out[G.Name] = Fresh;
        E.Out.push_back(Fresh);
      }
      for (Symbol Lhs : Lbl.Stmt.Vars) {
        TermRef Fresh = Arena.freshConst(P.typeOf(Lhs),
                                         LTag + std::to_string(Lhs.id()));
        Out[Lhs] = Fresh;
        E.Out.push_back(Fresh);
      }
      Edges.push_back(std::move(E));
      Open.push_back(CId);
      N.OutEdges.push_back(CId);
      break;
    }
    }

    if (Lbl.Targets.empty()) {
      TermRef Eq = Arena.mkTrue();
      for (size_t I = 0; I < NumGlobals; ++I)
        Eq = Arena.mkAnd(Eq,
                         Arena.mkEq(Out.at(Prog.Globals[I].Name), N.Out[I]));
      for (size_t I = 0; I < P.Returns.size(); ++I)
        Eq = Arena.mkAnd(Eq, Arena.mkEq(Out.at(P.Returns[I].Name),
                                        N.Out[NumGlobals + I]));
      PushClause(Arena.mkImplies(BS, Eq));
    } else {
      TermRef Disj = Arena.mkFalse();
      for (LabelId X : Lbl.Targets) {
        TermRef Step = N.BlockConst.at(X);
        if (PredCount[X] != 1) {
          // Join: bind the join incarnations to this path's values.
          TermRef Eq = Arena.mkTrue();
          const VarTermMap &JoinVars = N.VarsAt.at(X);
          for (const VarDecl &D : Scope)
            Eq = Arena.mkAnd(
                Eq, Arena.mkEq(Out.at(D.Name), JoinVars.at(D.Name)));
          Step = Arena.mkAnd(Step, Eq);
        } else {
          // Single predecessor: the successor reads our terms directly.
          N.VarsAt[X] = Out;
        }
        Disj = Arena.mkOr(Disj, Step);
      }
      PushClause(Arena.mkImplies(BS, Disj));
    }
  }
  return NId;
}

TermRef VcContext::bindEdge(EdgeId C, NodeId N) {
  VcEdge &E = Edges[C];
  assert(E.isOpen() && "edge already bound");
  const VcNode &Target = Nodes[N];
  assert(E.Callee == Target.Proc && "binding to an instance of the wrong "
                                    "procedure");
  assert(E.In.size() == Target.In.size() &&
         E.Out.size() == Target.Out.size() && "interface shape mismatch");

  E.Dest = N;
  Open.erase(std::find(Open.begin(), Open.end(), C));

  // Line 25: Control[c] ⇒ Control[n] ∧ In[c] = In[n] ∧ Out[c] = Out[n].
  TermRef Eq = Target.Control;
  for (size_t I = 0; I < E.In.size(); ++I)
    Eq = Arena.mkAnd(Eq, Arena.mkEq(E.In[I], Target.In[I]));
  for (size_t I = 0; I < E.Out.size(); ++I)
    Eq = Arena.mkAnd(Eq, Arena.mkEq(E.Out[I], Target.Out[I]));
  TermRef Clause = Arena.mkImplies(E.Control, Eq);
  push(Clause);
  return Clause;
}
