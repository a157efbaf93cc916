// Minimum-cost network flow: problem definition, solution container, and
// optimality verification.
//
// This is the engine behind the paper's D-phase (§2.3.1): the delay-budget
// LP of eq. (10) is the dual of a min-cost flow, and the paper prescribes
// integerized costs ("multiplying every constant term by some power of 10"),
// so the solvers here work in exact 64-bit integer arithmetic.
//
// Conventions
//  - Arcs have lower bound 0, an upper capacity (possibly kInfFlow) and a
//    cost per unit of flow (may be negative).
//  - Node "supply" is positive for sources, negative for sinks; a feasible
//    flow satisfies, at every node v:  outflow(v) - inflow(v) = supply(v).
//  - A solution's `potential` vector satisfies the complementary-slackness
//    contract: for every arc a,
//        flow[a] < capacity[a]  =>  potential[tail] - potential[head] <= cost[a]
//        flow[a] > 0            =>  potential[tail] - potential[head] >= cost[a]
//    which makes `potential` an optimal solution of the dual LP
//        max Σ supply(v)·π(v)  s.t.  π(u) - π(v) <= cost(u,v).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/digraph.h"

namespace mft {

using Flow = std::int64_t;
using Cost = std::int64_t;

/// Sentinel for uncapacitated arcs. Kept far from the int64 limit so that
/// residual arithmetic cannot overflow.
inline constexpr Flow kInfFlow = std::numeric_limits<Flow>::max() / 4;

/// One directed arc of a min-cost flow problem.
struct McfArc {
  NodeId tail = kInvalidNode;
  NodeId head = kInvalidNode;
  Flow capacity = 0;
  Cost cost = 0;
};

/// A min-cost flow instance. Nodes are 0..num_nodes()-1.
class McfProblem {
 public:
  explicit McfProblem(int num_nodes);

  /// Add an arc tail->head; self-loops are rejected. Returns the arc id.
  ArcId add_arc(NodeId tail, NodeId head, Flow capacity, Cost cost);

  void set_supply(NodeId v, Flow s);
  void add_supply(NodeId v, Flow s);

  /// Rewrite the cost of an existing arc (topology/capacity unchanged).
  /// This is what lets a reused problem skeleton absorb fresh D-phase
  /// bounds each iteration without reconstruction.
  void set_arc_cost(ArcId a, Cost cost);

  /// Reset every supply to zero, keeping all arcs.
  void clear_supplies();

  int num_nodes() const { return static_cast<int>(supply_.size()); }
  int num_arcs() const { return static_cast<int>(arcs_.size()); }
  const McfArc& arc(ArcId a) const { return arcs_[static_cast<std::size_t>(a)]; }
  const std::vector<McfArc>& arcs() const { return arcs_; }
  Flow supply(NodeId v) const { return supply_[static_cast<std::size_t>(v)]; }
  const std::vector<Flow>& supplies() const { return supply_; }

  /// Sum of all supplies; a feasible instance needs this to be zero.
  Flow total_supply() const;

  /// Largest |cost| over all arcs (0 if no arcs).
  Cost max_abs_cost() const;

 private:
  std::vector<McfArc> arcs_;
  std::vector<Flow> supply_;
};

enum class McfStatus {
  kOptimal,     ///< feasible and a minimum-cost flow was found
  kInfeasible,  ///< supplies cannot be routed
  kUnbounded,   ///< a negative-cost cycle of infinite capacity exists
};

const char* to_string(McfStatus s);

/// Result of a solver run. `flow` and `potential` are only meaningful when
/// `status == kOptimal`.
struct McfSolution {
  McfStatus status = McfStatus::kInfeasible;
  Cost total_cost = 0;
  std::vector<Flow> flow;       ///< per arc
  std::vector<Cost> potential;  ///< per node; see contract above
};

/// Verifies conservation and capacity constraints of `flow`.
/// On failure returns false and, if `why` != nullptr, a diagnostic.
bool check_flow_feasible(const McfProblem& p, const std::vector<Flow>& flow,
                         std::string* why = nullptr);

/// Verifies that `sol` is an optimal solution: feasibility plus the
/// complementary-slackness conditions between flow and potential.
bool check_flow_optimal(const McfProblem& p, const McfSolution& sol,
                        std::string* why = nullptr);

/// Recomputes Σ flow[a]·cost[a] in 128-bit arithmetic; checks it fits int64.
Cost flow_cost(const McfProblem& p, const std::vector<Flow>& flow);

/// The big-M cost A = (max|cost| + 1)(n + 1) of the network simplex's
/// artificial arcs. Throws EngineError(kInvalidInput) when A exceeds
/// INT64_MAX / 5. Every solver calls it before touching a cost, so all of
/// them admit the same inputs; the bound keeps their duals (|π| < 2A, see
/// network_simplex.cc and ssp.h) and canonicalize_potentials inside int64.
Cost big_m_cost(const McfProblem& p);

/// Replaces the potentials of an optimal `sol` of `p` by the canonical
/// optimal dual: the pointwise maximum over all optimal potentials with
/// potential[ground] = 0. The set of optimal potentials is the same for
/// every optimal flow, so the result depends on `p` alone, not on the
/// solver, its pivot rule or its start. A node the optimal face leaves
/// unbounded above is capped at 2A (the face then meets potential <= 2A);
/// nodes with a bounded maximum never reach the cap. Costs one Dijkstra over
/// the optimal residual arcs, with the solver's potentials as Johnson
/// potentials; requires |potential| < 2A, which every solver here meets.
void canonicalize_potentials(const McfProblem& p, NodeId ground,
                             McfSolution& sol);

}  // namespace mft
