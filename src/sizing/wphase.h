// W-phase (paper §2.3.2): minimum-area sizes meeting fixed delay budgets.
//
//     minimize Σ x_i   s.t.  (a_self_i·x_i + Σ a_ij x_j + b_i)/x_i ≤ d_i,
//                            minsize ≤ x_i ≤ maxsize
//
// equivalently x_i ≥ (Σ a_ij x_j + b_i)/(d_i − a_self_i), a Simple
// Monotonic Program (ref [10]): the right-hand side is monotone increasing
// in every x_j, so the unique minimum-area solution is the least fixpoint,
// reached by Gauss–Seidel relaxation. A single reverse-topological pass is
// exact for gate sizing (loads point strictly downstream — the start point
// is irrelevant); mutually-loading transistor blocks converge geometrically
// (the coupling is the weak parasitic term), so any start in the basin
// reaches the same fixpoint. Worst case O(|V||E|), matching the paper.
//
// Two starts:
//  - solve_wphase(net, budget): cold, from all-minimum sizes (the paper's
//    construction of the least fixpoint).
//  - solve_wphase(net, budget, start): warm, from a previous iterate.
//    Inside the D/W refinement consecutive budgets move only slightly, so
//    warm sweeps converge in fewer passes; for triangular (gate) networks
//    the result is bit-identical to cold.
//
// Layout: the relaxation runs entirely in sweep-position order on the
// frozen SweepPlan (budgets and sizes gathered once at entry, scattered
// once at exit), streaming the flat load CSR instead of chasing per-vertex
// heap vectors. Because loads strictly cross levels, the reverse-position
// walk reads exactly the values the historical reverse-topological walk
// read — the result is bit-identical (tests/layout_test.cc pins it).
//
// Parallelism: with a multi-thread ThreadArena the sweep runs one
// levelization level at a time (contiguous position ranges), concurrent
// within a level. Same-level vertices share no load term, so the result is
// bit-identical to sequential at any thread count (tests/parallel_test.cc).
//
// Fast math: the trailing fast_math flag switches the load fold to the
// FP-reassociated two-accumulator form (SweepPlan::delay_at_fast's fold).
// Off by default and never enabled on determinism-gated paths.
#pragma once

#include "timing/sizing_network.h"

namespace mft {

class AbortToken;
class ThreadArena;

struct WPhaseResult {
  std::vector<double> sizes;
  /// False if some budget is unachievable: d_i ≤ a_self_i (no size works)
  /// or the required size exceeds maxsize. Sizes are still returned,
  /// clamped, so the caller can inspect how close the solution came.
  bool feasible = true;
  int sweeps = 0;
};

/// Cold start from net.min_sizes(). `abort` (optional) is checked once per
/// sweep; a trip stops the relaxation and reports feasible=false so the
/// caller rejects the half-converged iterate.
///
/// `pins` (optional, id-indexed, entry > 0 means "hold this vertex at that
/// size") freezes the pinned vertices for the whole relaxation: they enter
/// at the pinned size and are never updated, so the fixpoint is the minimum
///-area solution *conditioned on* the pins. ECO size pins ride on this.
WPhaseResult solve_wphase(const SizingNetwork& net,
                          const std::vector<double>& delay_budget,
                          ThreadArena* arena = nullptr,
                          AbortToken* abort = nullptr,
                          bool fast_math = false,
                          const std::vector<double>* pins = nullptr);

/// Warm start from `start` (one full per-vertex size vector, sources 0).
WPhaseResult solve_wphase(const SizingNetwork& net,
                          const std::vector<double>& delay_budget,
                          const std::vector<double>& start,
                          ThreadArena* arena = nullptr,
                          AbortToken* abort = nullptr,
                          bool fast_math = false,
                          const std::vector<double>* pins = nullptr);

}  // namespace mft
