#include "sizing/wphase.h"

#include <algorithm>
#include <cmath>

#include "util/abort.h"
#include "util/parallel.h"

namespace mft {

namespace {

/// Minimum vertices per arena chunk for a level sweep (cutoff below which
/// dispatch overhead beats the per-vertex load fold; results unaffected).
constexpr int kWPhaseGrain = 64;

/// Per-sweep reduction state, one cache line per thread: max is exact under
/// any association, and infeasibility is a sticky OR, so merging the
/// per-thread values in thread-index order reproduces the sequential sweep
/// bit for bit.
struct alignas(64) SweepLocal {
  double max_rel_change = 0.0;
  char infeasible = 0;
};

WPhaseResult solve_wphase_impl(const SizingNetwork& net,
                               const std::vector<double>& delay_budget,
                               const std::vector<double>& start,
                               ThreadArena* arena, AbortToken* abort,
                               bool fast_math,
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

  // One Gauss–Seidel update of the vertex at position p from the current
  // sizes_pos. Both the sequential and the level-parallel sweep run exactly
  // this body; the load fold streams the flat CSR in original term order,
  // so the sum is bit-identical to the historical AoS walk (or, under
  // fast_math, the documented two-accumulator reassociation).
  auto update = [&](int p, double& max_rel_change, char& infeasible) {
    const std::size_t pi = static_cast<std::size_t>(p);
    if (pl.source[pi]) return;
    if (!pinned_pos.empty() && pinned_pos[pi]) return;
    const double d = budget_pos[pi];
    if (d <= pl.a_self[pi]) {
      // No finite size meets this budget (self-loading already exceeds
      // it); clamp to max and report infeasibility.
      infeasible = 1;
      sizes_pos[pi] = tech.max_size;
      return;
    }
    double load;
    if (fast_math) {
      double acc0 = pl.b[pi];
      double acc1 = 0.0;
      int k = pl.load_off[pi];
      const int end = pl.load_off[pi + 1];
      for (; k + 1 < end; k += 2) {
        acc0 += pl.load_coeff[static_cast<std::size_t>(k)] *
                sizes_pos[static_cast<std::size_t>(
                    pl.load_pos[static_cast<std::size_t>(k)])];
        acc1 += pl.load_coeff[static_cast<std::size_t>(k + 1)] *
                sizes_pos[static_cast<std::size_t>(
                    pl.load_pos[static_cast<std::size_t>(k + 1)])];
      }
      if (k < end)
        acc0 += pl.load_coeff[static_cast<std::size_t>(k)] *
                sizes_pos[static_cast<std::size_t>(
                    pl.load_pos[static_cast<std::size_t>(k)])];
      load = acc0 + acc1;
    } else {
      load = pl.b[pi];
      for (int k = pl.load_off[pi]; k < pl.load_off[pi + 1]; ++k)
        load += pl.load_coeff[static_cast<std::size_t>(k)] *
                sizes_pos[static_cast<std::size_t>(
                    pl.load_pos[static_cast<std::size_t>(k)])];
    }
    double x = load / (d - pl.a_self[pi]);
    if (x > tech.max_size) {
      infeasible = 1;
      x = tech.max_size;
    }
    x = std::max(x, tech.min_size);
    const double old = sizes_pos[pi];
    max_rel_change = std::max(max_rel_change, std::abs(x - old) / old);
    sizes_pos[pi] = x;
  };

  const bool parallel = arena != nullptr && arena->threads() > 1;
  std::vector<SweepLocal> locals(
      parallel ? static_cast<std::size_t>(arena->threads()) : 0);
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
    char infeasible = 0;
    if (parallel) {
      for (SweepLocal& l : locals) l = SweepLocal{};
      // Levels settle top-down, each level concurrently; within a level no
      // vertex loads another, so every update reads exactly the values the
      // sequential reverse sweep would read.
      const auto& off = net.level_offsets();
      for (int l = net.num_levels() - 1; l >= 0; --l) {
        const int base = off[static_cast<std::size_t>(l)];
        const int width = off[static_cast<std::size_t>(l) + 1] - base;
        arena->parallel_for(width, kWPhaseGrain,
                            [&](int thread, int begin, int end) {
                              SweepLocal& local =
                                  locals[static_cast<std::size_t>(thread)];
                              for (int i = end - 1; i >= begin; --i)
                                update(base + i, local.max_rel_change,
                                       local.infeasible);
                            });
      }
      for (const SweepLocal& l : locals) {
        max_rel_change = std::max(max_rel_change, l.max_rel_change);
        infeasible |= l.infeasible;
      }
    } else {
      // Reverse sweep-position order — a reverse topological order whose
      // levels are contiguous, so fanout sizes settle before their drivers
      // read them (exact first sweep in the triangular case) and memory
      // streams linearly.
      for (int p = n - 1; p >= 0; --p)
        update(p, max_rel_change, infeasible);
    }
    if (infeasible) res.feasible = false;
    if (max_rel_change < 1e-12) break;
  }

  pl.scatter(sizes_pos, res.sizes);
  return res;
}

}  // namespace

WPhaseResult solve_wphase(const SizingNetwork& net,
                          const std::vector<double>& delay_budget,
                          ThreadArena* arena, AbortToken* abort,
                          bool fast_math, const std::vector<double>* pins) {
  return solve_wphase_impl(net, delay_budget, net.min_sizes(), arena, abort,
                           fast_math, pins);
}

WPhaseResult solve_wphase(const SizingNetwork& net,
                          const std::vector<double>& delay_budget,
                          const std::vector<double>& start,
                          ThreadArena* arena, AbortToken* abort,
                          bool fast_math, const std::vector<double>* pins) {
  return solve_wphase_impl(net, delay_budget, start, arena, abort, fast_math,
                           pins);
}

}  // namespace mft
