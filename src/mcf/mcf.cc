#include "mcf/mcf.h"

#include <algorithm>
#include <sstream>

namespace mft {

McfProblem::McfProblem(int num_nodes) {
  MFT_CHECK(num_nodes >= 0);
  supply_.assign(static_cast<std::size_t>(num_nodes), 0);
}

ArcId McfProblem::add_arc(NodeId tail, NodeId head, Flow capacity, Cost cost) {
  MFT_CHECK(tail >= 0 && tail < num_nodes());
  MFT_CHECK(head >= 0 && head < num_nodes());
  MFT_CHECK_MSG(tail != head, "self-loop arcs are not supported");
  MFT_CHECK(capacity >= 0);
  arcs_.push_back(McfArc{tail, head, capacity, cost});
  return static_cast<ArcId>(arcs_.size() - 1);
}

void McfProblem::set_supply(NodeId v, Flow s) {
  MFT_CHECK(v >= 0 && v < num_nodes());
  supply_[static_cast<std::size_t>(v)] = s;
}

void McfProblem::add_supply(NodeId v, Flow s) {
  MFT_CHECK(v >= 0 && v < num_nodes());
  supply_[static_cast<std::size_t>(v)] += s;
}

void McfProblem::set_arc_cost(ArcId a, Cost cost) {
  MFT_CHECK(a >= 0 && a < num_arcs());
  arcs_[static_cast<std::size_t>(a)].cost = cost;
}

void McfProblem::clear_supplies() {
  std::fill(supply_.begin(), supply_.end(), 0);
}

Flow McfProblem::total_supply() const {
  Flow t = 0;
  for (Flow s : supply_) t += s;
  return t;
}

Cost McfProblem::max_abs_cost() const {
  Cost m = 0;
  for (const McfArc& a : arcs_) {
    // |INT64_MIN| does not fit; saturate so callers see an out-of-range cost.
    const Cost c = a.cost == std::numeric_limits<Cost>::min()
                       ? std::numeric_limits<Cost>::max()
                       : (a.cost < 0 ? -a.cost : a.cost);
    m = std::max(m, c);
  }
  return m;
}

const char* to_string(McfStatus s) {
  switch (s) {
    case McfStatus::kOptimal:
      return "optimal";
    case McfStatus::kInfeasible:
      return "infeasible";
    case McfStatus::kUnbounded:
      return "unbounded";
  }
  return "?";
}

bool check_flow_feasible(const McfProblem& p, const std::vector<Flow>& flow,
                         std::string* why) {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  if (static_cast<int>(flow.size()) != p.num_arcs())
    return fail("flow vector arity mismatch");
  std::vector<Flow> balance(p.supplies());
  for (ArcId a = 0; a < p.num_arcs(); ++a) {
    const McfArc& arc = p.arc(a);
    const Flow f = flow[static_cast<std::size_t>(a)];
    if (f < 0) return fail("negative flow on arc " + std::to_string(a));
    if (f > arc.capacity)
      return fail("capacity violated on arc " + std::to_string(a));
    balance[static_cast<std::size_t>(arc.tail)] -= f;
    balance[static_cast<std::size_t>(arc.head)] += f;
  }
  for (NodeId v = 0; v < p.num_nodes(); ++v) {
    if (balance[static_cast<std::size_t>(v)] != 0) {
      std::ostringstream os;
      os << "conservation violated at node " << v << " (residual "
         << balance[static_cast<std::size_t>(v)] << ")";
      return fail(os.str());
    }
  }
  return true;
}

bool check_flow_optimal(const McfProblem& p, const McfSolution& sol,
                        std::string* why) {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  if (sol.status != McfStatus::kOptimal) return fail("status not optimal");
  if (!check_flow_feasible(p, sol.flow, why)) return false;
  if (static_cast<int>(sol.potential.size()) != p.num_nodes())
    return fail("potential arity mismatch");
  for (ArcId a = 0; a < p.num_arcs(); ++a) {
    const McfArc& arc = p.arc(a);
    const Flow f = sol.flow[static_cast<std::size_t>(a)];
    const Cost diff = sol.potential[static_cast<std::size_t>(arc.tail)] -
                      sol.potential[static_cast<std::size_t>(arc.head)];
    if (f < arc.capacity && diff > arc.cost) {
      std::ostringstream os;
      os << "dual feasibility violated on unsaturated arc " << a << ": pi("
         << arc.tail << ")-pi(" << arc.head << ")=" << diff << " > cost "
         << arc.cost;
      return fail(os.str());
    }
    if (f > 0 && diff < arc.cost) {
      std::ostringstream os;
      os << "complementary slackness violated on arc " << a << " with flow "
         << f << ": potential difference " << diff << " < cost " << arc.cost;
      return fail(os.str());
    }
  }
  if (flow_cost(p, sol.flow) != sol.total_cost)
    return fail("reported total cost does not match flow");
  return true;
}

Cost flow_cost(const McfProblem& p, const std::vector<Flow>& flow) {
  __int128 total = 0;
  for (ArcId a = 0; a < p.num_arcs(); ++a)
    total += static_cast<__int128>(flow[static_cast<std::size_t>(a)]) *
             p.arc(a).cost;
  MFT_CHECK_MSG(total <= std::numeric_limits<Cost>::max() &&
                    total >= std::numeric_limits<Cost>::min(),
                "total cost overflows int64");
  return static_cast<Cost>(total);
}

}  // namespace mft
