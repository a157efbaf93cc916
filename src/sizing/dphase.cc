#include "sizing/dphase.h"

#include <algorithm>
#include <cmath>

namespace mft {

DPhaseResult run_dphase(const SizingNetwork& net,
                        const std::vector<double>& sizes,
                        const DPhaseOptions& opt, DPhaseWorkspace* ws,
                        const std::vector<NodeId>* changed) {
  MFT_CHECK(net.frozen());
  MFT_CHECK(opt.beta > 0.0);
  const Digraph& g = net.dag();
  const int n = net.num_vertices();

  DPhaseWorkspace local;
  DPhaseWorkspace& w = ws ? *ws : local;
  if (w.built && w.net_serial != net.serial()) {
    // A different network than the cached build: rebuild the LP (below)
    // and the flow state. The timing scratch stays: it belongs to the
    // owning context (arena, delay mode) and re-times on a new serial.
    w.flow = DualFlowLp::Workspace{};
    w.built = false;
  }

  const TimingReport& timing = changed != nullptr
                                   ? run_sta(net, sizes, w.timing, *changed)
                                   : run_sta(net, sizes, w.timing);
  const DelayBalance bal = compute_delay_balance(net, timing, opt.balance);
  std::vector<double> weights;
  if (opt.uniform_weights) {
    weights.assign(static_cast<std::size_t>(n), 1.0);
  } else {
    weights = net.area_delay_weights(sizes);
  }

  // Variable layout: r(v) = v, r(Dmy(v)) = n + v, dummy output O = 2n.
  const int var_dmy = n;
  const int var_o = 2 * n;

  // On the first call the LP structure is built; afterwards the emission
  // below re-walks the identical deterministic order and only rewrites
  // bounds and objective coefficients in place.
  const bool build = !w.built;
  if (build) {
    w.lp = DualFlowLp(2 * n + 1);
    w.lp.fix_zero(var_o);
    for (NodeId v = 0; v < n; ++v)
      if (net.is_source(v)) w.lp.fix_zero(v);
    w.net_serial = net.serial();
    w.built = true;
  }
  DualFlowLp& lp = w.lp;
  int ci = 0;  // constraint cursor (must match the build order exactly)
  int oi = 0;  // objective-term cursor
  auto constraint = [&](int a, int b, double bound) {
    if (build)
      lp.add_constraint(a, b, bound);
    else
      lp.set_constraint_bound(ci, bound);
    ++ci;
  };
  auto objective = [&](int plus, int minus, double coeff) {
    if (build)
      lp.add_objective_difference(plus, minus, coeff);
    else
      lp.set_objective_coeff(oi, coeff);
    ++oi;
  };

  for (NodeId v = 0; v < n; ++v) {
    if (net.is_source(v)) continue;
    const double d = timing.delay[static_cast<std::size_t>(v)];
    const double a_self = net.vertex(v).a_self;
    // Trust bounds; the lower one keeps d_new comfortably above the
    // self-loading floor so the W-phase SMP stays solvable.
    const double max_dd = opt.beta * d;
    const double min_dd = -std::min(opt.beta * d, 0.95 * (d - a_self));
    // FSDU(i→Dmy(i)) = 0 under both canonical schedules. The pair stays
    // back to back: it becomes flow arcs 2k and 2k + 1, where the network
    // simplex's warm start looks up a tree arc's antiparallel twin.
    constraint(var_dmy + v, v, max_dd);   // δd_v <= MAXΔD
    constraint(v, var_dmy + v, -min_dd);  // δd_v >= MINΔD
    objective(var_dmy + v, v, weights[static_cast<std::size_t>(v)]);
  }

  // Causality: displaced FSDUs on all original edges stay non-negative.
  // Edges leave Dmy(i) (Fig. 5); edges out of sources use r(source) itself.
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const NodeId i = g.tail(a);
    const NodeId j = g.head(a);
    const int from = net.is_source(i) ? i : var_dmy + i;
    constraint(from, j, bal.arc_fsdu[static_cast<std::size_t>(a)]);
  }
  // PO edges to the dummy output O (Corollary 1 pins CP).
  for (NodeId v = 0; v < n; ++v) {
    if (net.is_source(v)) continue;
    if (net.vertex(v).is_po || g.out_degree(v) == 0) {
      constraint(var_dmy + v, var_o,
                 bal.po_fsdu[static_cast<std::size_t>(v)]);
    }
  }

  MFT_CHECK_MSG(ci == lp.num_constraints() && oi == lp.num_objective_terms(),
                "D-phase emission order diverged from the cached LP");

  DPhaseResult res;
  res.num_constraints = lp.num_constraints();
  const DualFlowLp::Result sol =
      lp.solve(opt.solver, opt.cost_digits, opt.supply_digits, &w.flow);
  if (!sol.solved) return res;

  res.solved = true;
  res.objective = sol.objective;
  res.budget = timing.delay;
  for (NodeId v = 0; v < n; ++v) {
    if (net.is_source(v)) continue;
    const double dd = sol.r[static_cast<std::size_t>(var_dmy + v)] -
                      sol.r[static_cast<std::size_t>(v)];
    if (std::abs(dd) > 1e-12) ++res.num_moved;
    res.budget[static_cast<std::size_t>(v)] += dd;
  }
  return res;
}

}  // namespace mft
