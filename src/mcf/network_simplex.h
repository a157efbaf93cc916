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
//  - Warm start. A workspace keeps the last optimal basis, and a solve of a
//    problem with the same nodes and arc endpoints starts from it instead
//    of the big-M star (workspace.h says when). Tree flows are recomputed
//    bottom-up for the new supplies and duals top-down for the new costs.
//    The leaving-arc tie-break prevents cycling only from a strongly
//    feasible tree, one where every tree arc can carry more flow toward the
//    root; a tree arc that now needs negative flow, or zero flow on an arc
//    pointing away from the root, breaks that. Such an arc is swapped for
//    its antiparallel twin at arc id a ^ 1 (the D-phase emits each vertex's
//    two trust-region constraints back to back) when that twin is free,
//    else its subtree re-hangs from the root by its artificial arc. A
//    c6288 job at 0.6 Dmin takes 126,846 pivots this way, against 521,222
//    from cold starts and 188,471 with re-hanging alone. Warm trees are
//    deep, so a pivot moves larger subtrees and walks longer cycles: on
//    the traced table1 benchmark a pivot costs 5.7 us warm against 3.0 us
//    cold.
//
// All arithmetic is exact int64 (the D-phase integerizes its costs by
// power-of-ten scaling per §2.3.1 before calling this). Costs too large for
// the big-M start to keep every dual inside int64 are refused with
// EngineError(kInvalidInput); see network_simplex.cc for the bound.
#pragma once

#include "mcf/mcf.h"
#include "mcf/workspace.h"

namespace mft {

/// Empty: the solver has no settable options. The pricing shortlist of
/// ~1.25*sqrt(arcs) entries, the pivots served from it between rebuilds
/// and the pivot safety cap are fixed in network_simplex.cc. The struct
/// stays because its name is part of solve_network_simplex's linker
/// symbol, which the repo benchmark's tracer interposes.
struct NetworkSimplexOptions {};

/// Solves `p` to optimality. Returns flows, total cost, and node potentials
/// satisfying the contract documented in mcf.h. If `ws` is non-null, all
/// solver arrays live in (and are reused from) the workspace, the solve
/// warm-starts from the basis it kept (see above), and an optimal solve
/// leaves its basis there; `ws->ns_pivots` reports the pivot count of this
/// run and `ws->ns_pivots_total` accumulates it. Which optimal flow and
/// potentials come back can depend on the start basis;
/// canonicalize_potentials (mcf.h) removes that dependence from the duals.
McfSolution solve_network_simplex(const McfProblem& p,
                                  const NetworkSimplexOptions& opt = {},
                                  McfWorkspace* ws = nullptr);

}  // namespace mft
