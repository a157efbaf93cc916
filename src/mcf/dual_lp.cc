#include "mcf/dual_lp.h"

#include <cmath>
#include <string>

#include "mcf/network_simplex.h"
#include "mcf/ssp.h"
#include "util/status.h"

namespace mft {
namespace {

// Range guards for the integerization. A scaled constraint bound becomes an
// arc cost: |x| <= 2^62 converts to Cost exactly, and the flow solver then
// applies its own node-count dependent bound (network_simplex.cc). Scaled
// objective terms add up into node supplies, and in this uncapacitated
// network every flow is at most their sum: Σ|s| <= kInfFlow / 4 keeps each
// supply, each partial sum and each flow below kInfFlow / 2, where the
// network simplex's unboundedness test starts.
constexpr double kMaxScaledCost = 0x1p62;
constexpr Flow kMaxSupplyTotal = kInfFlow / 4;

[[noreturn]] void refuse_scaled(const char* what, double value) {
  throw EngineError(EngineStatus::kInvalidInput,
                    std::string("dual LP ") + what + " " +
                        std::to_string(value) +
                        " is out of range after integer scaling");
}

}  // namespace

const char* to_string(FlowSolver s) {
  switch (s) {
    case FlowSolver::kNetworkSimplex:
      return "network-simplex";
    case FlowSolver::kSsp:
      return "ssp";
    case FlowSolver::kCycleCanceling:
      return "cycle-canceling";
  }
  return "?";
}

DualFlowLp::DualFlowLp(int num_vars) : num_vars_(num_vars) {
  MFT_CHECK(num_vars >= 0);
  fixed_.assign(static_cast<std::size_t>(num_vars), false);
}

void DualFlowLp::fix_zero(int v) {
  MFT_CHECK(v >= 0 && v < num_vars_);
  fixed_[static_cast<std::size_t>(v)] = true;
}

int DualFlowLp::add_constraint(int a, int b, double w) {
  MFT_CHECK(a >= 0 && a < num_vars_ && b >= 0 && b < num_vars_);
  MFT_CHECK_MSG(std::isfinite(w), "constraint bound must be finite");
  cons_.push_back(Constraint{a, b, w});
  return static_cast<int>(cons_.size()) - 1;
}

int DualFlowLp::add_objective_difference(int plus, int minus, double coeff) {
  MFT_CHECK(plus >= 0 && plus < num_vars_ && minus >= 0 && minus < num_vars_);
  MFT_CHECK(std::isfinite(coeff));
  obj_.push_back(ObjTerm{plus, minus, coeff});
  return static_cast<int>(obj_.size()) - 1;
}

void DualFlowLp::set_constraint_bound(int i, double w) {
  MFT_CHECK(i >= 0 && i < num_constraints());
  MFT_CHECK_MSG(std::isfinite(w), "constraint bound must be finite");
  cons_[static_cast<std::size_t>(i)].w = w;
}

void DualFlowLp::set_objective_coeff(int i, double coeff) {
  MFT_CHECK(i >= 0 && i < num_objective_terms());
  MFT_CHECK(std::isfinite(coeff));
  obj_[static_cast<std::size_t>(i)].coeff = coeff;
}

// FNV-1a over everything that determines the flow network's shape: the
// variable count, the grounded set, and the endpoints (not bounds /
// coefficients) of constraints and objective terms, in order.
std::uint64_t DualFlowLp::structure_fingerprint() const {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(num_vars_));
  for (int v = 0; v < num_vars_; ++v)
    if (fixed_[static_cast<std::size_t>(v)]) mix(static_cast<std::uint64_t>(v) + 1);
  mix(cons_.size());
  for (const Constraint& c : cons_) {
    mix(static_cast<std::uint64_t>(c.a));
    mix(static_cast<std::uint64_t>(c.b) << 32);
  }
  mix(obj_.size());
  for (const ObjTerm& t : obj_) {
    mix(static_cast<std::uint64_t>(t.plus));
    mix(static_cast<std::uint64_t>(t.minus) << 32);
  }
  return h;
}

DualFlowLp::Result DualFlowLp::solve(FlowSolver solver, int cost_digits,
                                     int supply_digits, Workspace* ws) const {
  MFT_CHECK(cost_digits >= 0 && cost_digits <= 9);
  MFT_CHECK(supply_digits >= 0 && supply_digits <= 9);
  const double cost_scale = std::pow(10.0, cost_digits);
  const double supply_scale = std::pow(10.0, supply_digits);

  Workspace local;
  Workspace& w = ws ? *ws : local;

  const std::uint64_t fp = structure_fingerprint();
  if (w.problem_builds == 0 || w.fingerprint != fp) {
    // (Re)build the structure: flow node per free variable; all fixed
    // variables share one ground node.
    w.node.assign(static_cast<std::size_t>(num_vars_), kInvalidNode);
    int next = 0;
    for (int v = 0; v < num_vars_; ++v)
      if (!fixed_[static_cast<std::size_t>(v)])
        w.node[static_cast<std::size_t>(v)] = next++;
    w.ground = next;
    for (int v = 0; v < num_vars_; ++v)
      if (fixed_[static_cast<std::size_t>(v)])
        w.node[static_cast<std::size_t>(v)] = w.ground;

    w.problem = McfProblem(next + 1);
    w.cons_arc.assign(cons_.size(), kInvalidArc);
    for (std::size_t i = 0; i < cons_.size(); ++i) {
      const Constraint& c = cons_[i];
      const NodeId na = w.node[static_cast<std::size_t>(c.a)];
      const NodeId nb = w.node[static_cast<std::size_t>(c.b)];
      if (na == nb) continue;  // grounded-grounded: validated below
      w.cons_arc[i] = w.problem.add_arc(na, nb, kInfFlow, 0);
    }
    w.fingerprint = fp;
    ++w.problem_builds;
  }

  // Rewrite the integerized costs and supplies in place. Rounding *down*
  // keeps every integerized constraint at least as tight as the real one,
  // so the returned r never violates the true LP.
  for (std::size_t i = 0; i < cons_.size(); ++i) {
    const Constraint& c = cons_[i];
    if (w.cons_arc[i] == kInvalidArc) {
      // Constraint between two grounded variables (or a variable and
      // itself): 0 <= w must hold or the LP is infeasible; the D-phase
      // never produces a violating one, so treat it as a hard error.
      MFT_CHECK_MSG(c.w >= -1e-12, "infeasible grounded constraint");
      continue;
    }
    const double scaled = std::floor(c.w * cost_scale);
    if (!(std::fabs(scaled) <= kMaxScaledCost))
      refuse_scaled("constraint bound", c.w);
    w.problem.set_arc_cost(w.cons_arc[i], static_cast<Cost>(scaled));
  }
  w.problem.clear_supplies();
  Flow supply_total = 0;
  for (const ObjTerm& t : obj_) {
    const double scaled = t.coeff * supply_scale;
    if (!(std::fabs(scaled) <= static_cast<double>(kMaxSupplyTotal)))
      refuse_scaled("objective coefficient", t.coeff);
    const Flow s = std::llround(scaled);
    supply_total += s < 0 ? -s : s;
    if (supply_total > kMaxSupplyTotal)
      refuse_scaled("objective coefficient", t.coeff);
    if (s == 0) continue;
    w.problem.add_supply(w.node[static_cast<std::size_t>(t.plus)], s);
    w.problem.add_supply(w.node[static_cast<std::size_t>(t.minus)], -s);
  }

  McfSolution sol;
  switch (solver) {
    case FlowSolver::kNetworkSimplex:
      sol = solve_network_simplex(w.problem, {}, &w.mcf);
      break;
    case FlowSolver::kSsp:
      sol = solve_ssp(w.problem, w.mcf);
      break;
    case FlowSolver::kCycleCanceling:
      sol = solve_cycle_canceling(w.problem);
      break;
  }

  Result res;
  res.flow_status = sol.status;
  if (sol.status != McfStatus::kOptimal) return res;
  res.solved = true;
  res.flow_cost = sol.total_cost;

  // Optimal r: shift potentials so ground sits at exactly 0, then unscale.
  const Cost base = sol.potential[static_cast<std::size_t>(w.ground)];
  res.r.assign(static_cast<std::size_t>(num_vars_), 0.0);
  for (int v = 0; v < num_vars_; ++v) {
    const NodeId nv = w.node[static_cast<std::size_t>(v)];
    res.r[static_cast<std::size_t>(v)] =
        static_cast<double>(sol.potential[static_cast<std::size_t>(nv)] - base) /
        cost_scale;
  }
  for (const ObjTerm& t : obj_)
    res.objective += t.coeff * (res.r[static_cast<std::size_t>(t.plus)] -
                                res.r[static_cast<std::size_t>(t.minus)]);
  return res;
}

}  // namespace mft
