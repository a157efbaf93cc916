// The D-phase LP (paper eq. (10)) is a maximization over difference
// constraints:
//
//     maximize   Σ c_k · r_k
//     subject to r_a − r_b ≤ w_ab          (one per constraint)
//                r_k = 0 for "grounded" variables (PIs and the dummy
//                                                  output O, Corollary 1)
//
// Its dual is a min-cost network flow: each constraint becomes an
// uncapacitated arc a→b of cost w_ab, each objective coefficient a node
// supply, and all grounded variables collapse into one ground node. The
// optimal node potentials of the flow are an optimal r. Of the optimal r,
// solve() returns the pointwise-maximal one with ground = 0
// (canonicalize_potentials in mcf.h): a function of the integerized LP
// alone, bit-identical across the three solvers and across warm and cold
// starts of the network simplex.
//
// Costs and supplies are integerized by decimal scaling exactly as §2.3.1
// prescribes; objective terms are added as ±pairs so supplies stay balanced
// after rounding.
//
// Reuse: the flow-network *structure* depends only on the constraint and
// objective endpoints — for a fixed netlist topology the D-phase produces
// the same structure every iteration, only bounds and coefficients move.
// A caller-owned DualFlowLp::Workspace caches the built McfProblem (plus
// the solver's McfWorkspace); solve() detects structure changes via a
// fingerprint and otherwise just rewrites arc costs and node supplies.
// `Workspace::problem_builds` counts the reconstructions (1 == perfect
// reuse), which the tier-1 suite asserts on.
#pragma once

#include <cstdint>
#include <vector>

#include "mcf/mcf.h"
#include "mcf/workspace.h"

namespace mft {

/// Which flow solver backs the LP. NetworkSimplex is the production choice;
/// the others exist for cross-checking and the solver-ablation bench.
enum class FlowSolver { kNetworkSimplex, kSsp, kCycleCanceling };

const char* to_string(FlowSolver s);

/// Builder + solver for the difference-constraint dual LP above.
class DualFlowLp {
 public:
  explicit DualFlowLp(int num_vars);

  /// Pin variable `v` to zero (PIs / dummy output in the D-phase).
  void fix_zero(int v);

  /// Add constraint  r_a − r_b ≤ w. Returns the constraint index.
  int add_constraint(int a, int b, double w);

  /// Add objective term  coeff · (r_plus − r_minus), coeff of either sign.
  /// Keeping the ± pair together guarantees exact supply balance after
  /// integer scaling. Returns the term index.
  int add_objective_difference(int plus, int minus, double coeff);

  /// Rewrite the bound of constraint `i` (endpoints unchanged). Lets a
  /// caller keep one built LP per topology and only move the bounds.
  void set_constraint_bound(int i, double w);

  /// Rewrite the coefficient of objective term `i` (endpoints unchanged).
  void set_objective_coeff(int i, double coeff);

  struct Result {
    bool solved = false;        ///< false => flow infeasible (LP unbounded)
    McfStatus flow_status = McfStatus::kInfeasible;
    std::vector<double> r;      ///< canonical optimal values (grounded = 0)
    double objective = 0.0;     ///< Σ c_k r_k at the optimum
    Cost flow_cost = 0;         ///< integerized flow cost (diagnostics)
  };

  /// Reusable flow-problem skeleton + solver arena. See file comment; the
  /// arena also keeps the network simplex's last optimal basis, which the
  /// next solve on the same structure starts from.
  struct Workspace {
    McfProblem problem{0};
    McfWorkspace mcf;
    std::vector<NodeId> node;     ///< variable -> flow node
    std::vector<ArcId> cons_arc;  ///< constraint -> arc (kInvalidArc if
                                  ///< collapsed onto the ground node)
    NodeId ground = kInvalidNode;
    std::uint64_t fingerprint = 0;  ///< structure hash of the cached build
    int problem_builds = 0;         ///< times `problem` was reconstructed
  };

  /// Solve with decimal scaling 10^cost_digits for constraint bounds and
  /// 10^supply_digits for objective coefficients. With `ws`, the flow
  /// problem is rebuilt only when the LP structure changed since the
  /// workspace's last use. A bound or coefficient too large for exact
  /// int64 flow arithmetic after scaling throws
  /// EngineError(kInvalidInput).
  Result solve(FlowSolver solver = FlowSolver::kNetworkSimplex,
               int cost_digits = 4, int supply_digits = 3,
               Workspace* ws = nullptr) const;

  int num_vars() const { return num_vars_; }
  int num_constraints() const { return static_cast<int>(cons_.size()); }
  int num_objective_terms() const { return static_cast<int>(obj_.size()); }

 private:
  struct Constraint {
    int a, b;
    double w;
  };
  struct ObjTerm {
    int plus, minus;
    double coeff;
  };

  std::uint64_t structure_fingerprint() const;

  int num_vars_;
  std::vector<bool> fixed_;
  std::vector<Constraint> cons_;
  std::vector<ObjTerm> obj_;
};

}  // namespace mft
