#include "sizing/tilos.h"

#include <algorithm>
#include <cmath>

#include "util/abort.h"

namespace mft {

double min_sized_delay(const SizingNetwork& net) {
  return run_sta(net, net.min_sizes()).critical_path;
}

TilosResult run_tilos(const SizingNetwork& net, double target_delay,
                      const TilosOptions& opt, ThreadArena*,
                      AbortToken* abort) {
  MFT_CHECK(opt.bumpsize > 1.0);
  const Tech& tech = net.tech();
  const SweepPlan& pl = net.plan();
  TilosResult res;
  res.sizes = net.min_sizes();
  if (opt.pins != nullptr) {
    MFT_CHECK(static_cast<int>(opt.pins->size()) == net.num_vertices());
    for (NodeId v = 0; v < net.num_vertices(); ++v) {
      const double x = (*opt.pins)[static_cast<std::size_t>(v)];
      if (x > 0.0 && !net.is_source(v))
        res.sizes[static_cast<std::size_t>(v)] = x;
    }
  }
  const std::int64_t max_bumps =
      kMaxBumpsPerSizeable * std::max(1, net.num_sizeable());

  // All per-bump state is kept in sweep-position order so the candidate
  // evaluation streams the plan's flat reverse-load CSR: the STA scratch's
  // sizes_pos holds res.sizes after every run (read-only here: it is the
  // scratch's change detector), on_path marks the positions of `path`, the
  // current critical path.
  std::vector<char> on_path(static_cast<std::size_t>(net.num_vertices()), 0);
  std::vector<NodeId> path;
  // The first STA is a full run_sta. After that one vertex is bumped per
  // iteration and TILOS reads only delays, ATs and the critical path, so
  // each bump takes the arrival-only update: O(loaders of the bumped
  // vertex) delay recompute, then one AT fold from the first re-delayed
  // position to the end.
  TimingScratch sta;
  std::vector<NodeId> bumped;
  const std::vector<double>& sizes_pos = sta.sizes_pos;
  while (true) {
    const TimingReport& timing =
        bumped.empty() ? run_sta(net, res.sizes, sta)
                       : run_arrivals(net, res.sizes, sta, bumped);
    res.achieved_delay = timing.critical_path;
    if (timing.critical_path <= target_delay) {
      res.met_target = true;
      break;
    }
    if (res.bumps >= max_bumps) break;
    if (abort != nullptr && abort->step()) break;

    for (NodeId v : path)
      on_path[static_cast<std::size_t>(
          pl.pos_of[static_cast<std::size_t>(v)])] = 0;
    path = timing.critical_vertices(net);
    for (NodeId v : path)
      on_path[static_cast<std::size_t>(
          pl.pos_of[static_cast<std::size_t>(v)])] = 1;

    // Pick the on-path element with the best (most negative) change in path
    // delay per unit of added area. Walked in path order (source→sink),
    // strict-improvement tie-break — same winner as the historical
    // id-space walk.
    NodeId best = kInvalidNode;
    double best_sens = 0.0;
    for (NodeId v : path) {
      const std::size_t p =
          static_cast<std::size_t>(pl.pos_of[static_cast<std::size_t>(v)]);
      if (pl.source[p]) continue;
      if (opt.pins != nullptr &&
          (*opt.pins)[static_cast<std::size_t>(v)] > 0.0)
        continue;  // pinned: never a bump candidate
      const double x = sizes_pos[p];
      const double nx = x * opt.bumpsize;
      if (nx > tech.max_size) continue;

      // Own-stage speedup: delay(v) = a_self + L/x with L independent of x.
      const double load = (timing.delay_pos[p] - pl.a_self[p]) * x;
      double dpath = load * (1.0 / nx - 1.0 / x);
      // Upstream penalty: every on-path vertex u with a load term a_uv sees
      // Δdelay(u) = a_uv·(nx − x)/x_u.
      for (int k = pl.rload_off[p]; k < pl.rload_off[p + 1]; ++k) {
        const std::size_t u =
            static_cast<std::size_t>(pl.rload_pos[static_cast<std::size_t>(k)]);
        if (!on_path[u]) continue;
        dpath += pl.rload_coeff[static_cast<std::size_t>(k)] * (nx - x) /
                 sizes_pos[u];
      }
      const double sens = dpath / (nx - x);
      if (sens < best_sens) {
        best_sens = sens;
        best = v;
      }
    }
    if (best == kInvalidNode) break;  // nothing improves: infeasible target
    res.sizes[static_cast<std::size_t>(best)] *= opt.bumpsize;
    bumped.assign(1, best);
    ++res.bumps;
  }
  res.area = net.area(res.sizes);
  return res;
}

}  // namespace mft
