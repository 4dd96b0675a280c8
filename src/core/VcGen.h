//===- VcGen.h - Fig. 8: pVC generation and the inlining DAG ----*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The imperative state of the paper's Fig. 8: nodes are dynamic procedure
/// instances, edges are calls, and the maps Src/Dest/Entry/Callee/CallSite/
/// Control/In/Out hang off them. genPvc() is Gen_pVC (lines 31–75): it mints
/// the BS/VS/VS' symbolic constants for every label of a procedure and emits
/// the procedural VC clauses. bindEdge() is lines 24–25: binding an open
/// edge to a node and emitting Control[c] ⇒ (Control[n] ∧ In[c] = In[n] ∧
/// Out[c] = Out[n]).
///
/// One generalization over the paper's formal language: procedures carry
/// parameters and returns, so a node interface is globals⧺params on entry
/// and globals⧺returns on exit, and an edge interface is the globals at the
/// call site ⧺ the actual-argument terms / the globals after the call ⧺ the
/// result-binding constants. This matches the worked VC of Fig. 6
/// (v1 == a1 ∧ r == b1). Merging only relates instances of one procedure,
/// so interfaces always have equal shape.
///
/// Emitted clauses are recorded on their node/edge *and* handed to a sink
/// callback, so engines can assert them into an incremental solver as they
/// are produced (the paper's Push).
///
//===----------------------------------------------------------------------===//

#ifndef RMT_CORE_VCGEN_H
#define RMT_CORE_VCGEN_H

#include "ast/AstContext.h"
#include "cfg/Cfg.h"
#include "smt/Term.h"
#include "smt/Translate.h"

#include <functional>
#include <unordered_map>
#include <vector>

namespace rmt {

/// Index of a node / edge in the VcContext.
using NodeId = uint32_t;
using EdgeId = uint32_t;
constexpr NodeId InvalidNode = ~0u;
constexpr EdgeId InvalidEdge = ~0u;

/// A dynamic procedure instance (a DAG node).
struct VcNode {
  ProcId Proc = InvalidProc;
  LabelId Entry = InvalidLabel;
  TermRef Control;
  /// Interface: [globals..., params...] on entry.
  std::vector<TermRef> In;
  /// Interface: [globals..., returns...] on exit.
  std::vector<TermRef> Out;
  /// Out-going call edges, in call-site order.
  std::vector<EdgeId> OutEdges;
  /// The pVC clauses pushed for this node.
  std::vector<TermRef> Clauses;
  /// BS[y] for every label y of the procedure (trace reconstruction).
  std::unordered_map<LabelId, TermRef> BlockConst;
  /// VS[y] for every label y (model inspection / trace values).
  std::unordered_map<LabelId, VarTermMap> VarsAt;
};

/// A call (a DAG edge). Open until Dest is bound.
struct VcEdge {
  NodeId Src = InvalidNode;
  NodeId Dest = InvalidNode;
  ProcId Callee = InvalidProc;
  LabelId CallSite = InvalidLabel;
  TermRef Control;
  std::vector<TermRef> In;
  std::vector<TermRef> Out;

  bool isOpen() const { return Dest == InvalidNode; }
};

/// How procedural VCs are generated.
enum class PvcMode {
  /// The paper's Fig. 8 Gen_pVC, literally: fresh VS[y]/VS'[y] constants
  /// for every label and variable, frame equalities per statement. Kept as
  /// the oracle the agreement tests and the figure benches run against.
  Paper,
  /// Boogie-style passification: values flow through terms; fresh
  /// constants only at procedure entry, join labels, havocs and call
  /// outputs. Same models, far fewer constants — the engineering the paper
  /// alludes to with "inlining at the VC level". The production mode
  /// (EngineOptions::Pvc defaults to it).
  Passified,
};

/// Fig. 8's global state plus the pVC generator.
class VcContext {
public:
  /// \p Mode picks the pVC generator; there is no default, so every caller
  /// states it. \p Sink receives every pushed clause (may be empty). \p Ctx
  /// provides the canonical types (for the boolean control constants).
  VcContext(const AstContext &Ctx, const CfgProgram &Prog, TermArena &Arena,
            PvcMode Mode, std::function<void(TermRef)> Sink = {});

  /// Gen_pVC(q): creates a fresh node with fresh constants and pushes its
  /// procedural VC. New out-edges start open.
  NodeId genPvc(ProcId Q);

  /// Binds open edge \p C to node \p N (Dest[c] = n) and pushes the
  /// interface-equality clause. \p N must be an instance of Callee[c].
  /// Returns the pushed clause.
  TermRef bindEdge(EdgeId C, NodeId N);

  const VcNode &node(NodeId N) const { return Nodes[N]; }
  const VcEdge &edge(EdgeId E) const { return Edges[E]; }
  size_t numNodes() const { return Nodes.size(); }
  size_t numEdges() const { return Edges.size(); }

  /// Ids of currently open edges, in creation order.
  const std::vector<EdgeId> &openEdges() const { return Open; }

  /// All nodes that are instances of \p Q, in creation order (merge-candidate
  /// lists for the strategies).
  const std::vector<NodeId> &instancesOf(ProcId Q) const;

  const CfgProgram &program() const { return Prog; }
  TermArena &arena() { return Arena; }

  /// Number of Gen_pVC invocations == number of procedures inlined — the
  /// size metric of Figs. 4 and 17.
  size_t numInlined() const { return Nodes.size(); }

  /// Every clause pushed so far (pVCs and bindings), for dumping complete
  /// SMT-LIB scripts.
  const std::vector<TermRef> &allClauses() const { return AllClauses; }

  PvcMode mode() const { return Mode; }

private:
  void push(TermRef Clause);
  NodeId genPvcPaper(ProcId Q);
  NodeId genPvcPassified(ProcId Q);

  /// Scope variables of \p Q in canonical order: globals, params, returns,
  /// locals (cached).
  const std::vector<VarDecl> &scopeVars(ProcId Q);

  const AstContext &Ctx;
  const CfgProgram &Prog;
  TermArena &Arena;
  std::function<void(TermRef)> Sink;
  PvcMode Mode;
  std::vector<VcNode> Nodes;
  std::vector<VcEdge> Edges;
  std::vector<EdgeId> Open;
  std::vector<TermRef> AllClauses;
  std::unordered_map<ProcId, std::vector<VarDecl>> ScopeCache;
  std::unordered_map<ProcId, std::vector<NodeId>> Instances;
  std::vector<NodeId> NoInstances;
};

} // namespace rmt

#endif // RMT_CORE_VCGEN_H
