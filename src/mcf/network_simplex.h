// Primal network simplex for min-cost flow.
//
// This is the production solver used by the D-phase. The paper's complexity
// citation [9] (Goldberg/Grigoriadis/Tarjan) is a network-simplex variant;
// like LEMON's implementation we use a spanning-tree basis with big-M
// artificial arcs rooted at a virtual node and the "strongly feasible"
// leaving-arc tie-break that prevents cycling.
//
// Performance architecture:
//  - The basis lives in flat per-node arrays: parent, tree arc, depth and
//    dual, plus the tree as intrusive child lists (first child, next and
//    previous sibling). The cycle join of a pivot is found by a two-pointer
//    walk on depths (no mark array). A pivot unlinks the leaving subtree in
//    O(1), relinks only the stem from the entering arc's endpoint up to the
//    old subtree root, and then walks the moved subtree once in preorder,
//    with no stack, to shift its duals by one constant and fix its depths.
//  - Candidate-list pricing (LEMON's CandidateListPivotRule): a shortlist
//    of violating arcs is served between full scans. A full scan reads one
//    packed {tail, head, cost} record per arc over two linear ranges.
//  - All solver state can live in a caller-owned McfWorkspace so repeated
//    solves (100 D-phase iterations on one netlist) never reallocate.
//
// All arithmetic is exact int64 (the D-phase integerizes its costs by
// power-of-ten scaling per §2.3.1 before calling this). Costs too large for
// the big-M start to keep every dual inside int64 are refused with
// EngineError(kInvalidInput); see network_simplex.cc for the bound.
#pragma once

#include "mcf/mcf.h"
#include "mcf/workspace.h"

namespace mft {

struct NetworkSimplexOptions {
  /// Shortlist capacity of the pricing rule; 0 picks ~1.25*sqrt(num arcs).
  int candidate_list_size = 0;
  /// Pivots served from one shortlist before a rebuild; 0 picks size/10.
  int minor_limit = 0;
  /// Hard safety cap on pivots (guards against a cycling bug, not expected
  /// to trigger). 0 picks 50*m + 1000.
  std::int64_t max_pivots = 0;
};

/// Solves `p` to optimality. Returns flows, total cost, and node potentials
/// satisfying the contract documented in mcf.h. If `ws` is non-null, all
/// solver arrays live in (and are reused from) the workspace;
/// `ws->ns_pivots` reports the pivot count of this run and
/// `ws->ns_pivots_total` accumulates it.
McfSolution solve_network_simplex(const McfProblem& p,
                                  const NetworkSimplexOptions& opt = {},
                                  McfWorkspace* ws = nullptr);

}  // namespace mft
