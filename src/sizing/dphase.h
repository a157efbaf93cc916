// D-phase (paper §2.3.1): redistribute delay budgets at fixed sizes.
//
// Construction, following the paper exactly:
//  1. STA + delay balancing capture all slack as FSDUs (Fig. 3/4).
//  2. Every vertex i gets a dummy companion Dmy(i) (Fig. 5); the FSDU
//     displacement r(Dmy(i)) − r(i) is the change in i's delay budget.
//  3. Linearization (eq. (7)): Σδx_i = −Σ C_i·δd_i with positive weights
//     C_i = x_i·y_i, (D−A)^T y = 1 — so minimizing the area change means
//     maximizing Σ C_i·(r(Dmy(i)) − r(i)).
//  4. Constraints: |δd_i| bounded by MINΔD/MAXΔD (trust region, ±β·delay,
//     floored so the W-phase stays solvable), every original edge keeps a
//     non-negative displaced FSDU (causality), and r is pinned to 0 at the
//     primary inputs and the dummy output O (Corollary 1: CP unchanged).
//  5. The LP is the dual of a min-cost flow (eq. (10)); costs are decimally
//     integerized and solved by network simplex (or an ablation solver).
//
// The result is a delay budget vector d with the same critical path that a
// W-phase call turns back into (smaller) sizes.
#pragma once

#include "mcf/dual_lp.h"
#include "timing/delay_balance.h"
#include "timing/sta.h"

namespace mft {

struct DPhaseOptions {
  double beta = 0.25;  ///< trust bound: δd_i ∈ [−β, +β]·delay(i)
  FlowSolver solver = FlowSolver::kNetworkSimplex;
  int cost_digits = 4;    ///< decimal scaling of constraint bounds (§2.3.1)
  int supply_digits = 3;  ///< decimal scaling of objective weights
  BalanceMode balance = BalanceMode::kAsap;
  /// Ablation switch: replace the C_i = x_i·y_i linearization weights of
  /// eq. (7) with uniform weights (maximize total budget movement instead
  /// of predicted area decrease). Exists to quantify how much of the win
  /// comes from the paper's sensitivity-weighted objective.
  bool uniform_weights = false;
};

struct DPhaseResult {
  bool solved = false;
  std::vector<double> budget;      ///< new per-vertex delay budgets d_i
  double objective = 0.0;          ///< Σ C_i·δd_i = predicted area decrease
  int num_constraints = 0;
  int num_moved = 0;               ///< vertices with |δd_i| > 0
};

/// Reusable state for repeated D-phase calls on one netlist topology. The
/// LP structure (constraint/objective endpoints) and the derived flow
/// network are built on the first call and only their bounds/coefficients
/// are rewritten afterwards; `problem_builds()` stays at 1 as long as the
/// topology is unchanged (the tier-1 suite asserts this). The embedded
/// TimingScratch makes the per-iteration STA incremental as well (in a
/// SizingContext it is the context's one scratch). A new network serial
/// rebuilds the LP and flow state but keeps the scratch, which re-times.
struct DPhaseWorkspace {
  DualFlowLp lp{0};
  DualFlowLp::Workspace flow;
  TimingScratch timing;
  bool built = false;
  std::uint64_t net_serial = 0;  ///< SizingNetwork::serial() of the build

  /// How many times the underlying McfProblem was constructed.
  int problem_builds() const { return flow.problem_builds; }
};

/// `changed` (optional) is a superset of the vertices whose size differs
/// from the sizes the workspace's scratch last timed — forwarded to
/// run_sta's changed-hint overload so the internal STA skips its O(n)
/// size-diff scan. DPhasePass passes an empty hint when the acceptance STA
/// has just timed `sizes` on the same scratch, and nullptr whenever the
/// diff is not known (fresh workspace, re-anchored iterate); the scan
/// fallback is always correct. Results are identical either way.
DPhaseResult run_dphase(const SizingNetwork& net,
                        const std::vector<double>& sizes,
                        const DPhaseOptions& opt = {},
                        DPhaseWorkspace* ws = nullptr,
                        const std::vector<NodeId>* changed = nullptr);

}  // namespace mft
