#include "sizing/wphase.h"

#include <algorithm>
#include <cmath>

#include "util/abort.h"

namespace mft {

namespace {

WPhaseResult solve_wphase_impl(const SizingNetwork& net,
                               const std::vector<double>& delay_budget,
                               const std::vector<double>& start,
                               AbortToken* abort,
                               const std::vector<double>* pins) {
  MFT_CHECK(net.frozen());
  MFT_CHECK(static_cast<int>(delay_budget.size()) == net.num_vertices());
  MFT_CHECK(static_cast<int>(start.size()) == net.num_vertices());
  const Tech& tech = net.tech();
  const SweepPlan& pl = net.plan();
  WPhaseResult res;

  // The relaxation state lives in sweep-position order: gather once here,
  // scatter once after convergence. Multiple Gauss–Seidel sweeps amortize
  // the two permutes.
  std::vector<double> sizes_pos;
  std::vector<double> budget_pos;
  pl.gather(start, sizes_pos);
  pl.gather(delay_budget, budget_pos);

  // Pinned vertices enter at the pinned size and are excluded from the
  // update, so the relaxation solves the conditional SMP. Monotonicity is
  // preserved — a pin is just a constant in every other vertex's load fold.
  std::vector<unsigned char> pinned_pos;
  if (pins != nullptr) {
    MFT_CHECK(static_cast<int>(pins->size()) == net.num_vertices());
    pinned_pos.assign(static_cast<std::size_t>(pl.n), 0);
    for (int p = 0; p < pl.n; ++p) {
      const std::size_t pi = static_cast<std::size_t>(p);
      if (pl.source[pi]) continue;
      const double x =
          (*pins)[static_cast<std::size_t>(pl.vid[pi])];
      if (x > 0.0) {
        pinned_pos[pi] = 1;
        sizes_pos[pi] = x;
      }
    }
  }

  const int n = pl.n;
  const int max_sweeps = std::max(4, net.num_vertices());
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (abort != nullptr && abort->step()) {
      // Interrupted mid-relaxation: the iterate may not satisfy the
      // budgets, so report it infeasible and let the caller discard it.
      res.feasible = false;
      break;
    }
    ++res.sweeps;
    double max_rel_change = 0.0;
    // Reverse sweep-position order — a reverse topological order whose
    // levels are contiguous, so fanout sizes settle before their drivers
    // read them (exact first sweep in the triangular case) and memory
    // streams linearly. The load fold streams the flat CSR in original
    // term order, so the sum is bit-identical to the historical AoS walk.
    for (int p = n - 1; p >= 0; --p) {
      const std::size_t pi = static_cast<std::size_t>(p);
      if (pl.source[pi]) continue;
      if (!pinned_pos.empty() && pinned_pos[pi]) continue;
      const double d = budget_pos[pi];
      if (d <= pl.a_self[pi]) {
        // No finite size meets this budget (self-loading already exceeds
        // it); clamp to max and report infeasibility.
        res.feasible = false;
        sizes_pos[pi] = tech.max_size;
        continue;
      }
      double load = pl.b[pi];
      for (int k = pl.load_off[pi]; k < pl.load_off[pi + 1]; ++k)
        load += pl.load_coeff[static_cast<std::size_t>(k)] *
                sizes_pos[static_cast<std::size_t>(
                    pl.load_pos[static_cast<std::size_t>(k)])];
      double x = load / (d - pl.a_self[pi]);
      if (x > tech.max_size) {
        res.feasible = false;
        x = tech.max_size;
      }
      x = std::max(x, tech.min_size);
      const double old = sizes_pos[pi];
      max_rel_change = std::max(max_rel_change, std::abs(x - old) / old);
      sizes_pos[pi] = x;
    }
    if (max_rel_change < 1e-12) break;
  }

  pl.scatter(sizes_pos, res.sizes);
  return res;
}

}  // namespace

WPhaseResult solve_wphase(const SizingNetwork& net,
                          const std::vector<double>& delay_budget,
                          AbortToken* abort, const std::vector<double>* pins) {
  return solve_wphase_impl(net, delay_budget, net.min_sizes(), abort, pins);
}

WPhaseResult solve_wphase(const SizingNetwork& net,
                          const std::vector<double>& delay_budget,
                          const std::vector<double>& start, ThreadArena*,
                          AbortToken* abort, bool,
                          const std::vector<double>* pins) {
  return solve_wphase_impl(net, delay_budget, start, abort, pins);
}

}  // namespace mft
