// Inner-loop benchmark: the three hot kernels (STA full, incremental STA
// sweeps, W-phase Gauss–Seidel) on the largest generated instance, on one
// thread, with per-kernel throughput: vertices/second and effective GB/s
// (documented byte model below) so regressions show up as bandwidth, not
// just time.
//
// Emits BENCH_inner.json with min/median wall times per phase
// (RepeatTiming — robust to CI noise) and hw_concurrency; the committed
// bench/results/BENCH_inner.json is the no-regression baseline.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "sizing/wphase.h"
#include "timing/sta.h"
#include "util/str.h"

using namespace mft;
using namespace mft::bench;

namespace {

// ---------------------------------------------------------------------------
// Effective-bandwidth model
// ---------------------------------------------------------------------------
// Bytes each kernel must move per run, counting every array element the
// streaming kernels touch exactly once (8 bytes per double, 4 per int,
// 1 per byte mask; gathers counted once — no cache modeling). A crude
// lower bound on real traffic, but stable across machines, so
// GB/s = bytes / median_seconds tracks layout efficiency over PRs.

double sweeps_bytes(int n, int arcs) {
  const double nd = n, ed = arcs;
  // Forward: fanin offsets + targets, AT+delay gathered per arc, delay +
  // topo_pos per vertex, AT written.           Backward: mirrored with RT.
  const double fwd = 4 * (nd + 1) + 4 * ed + 16 * ed + 8 * nd + 4 * nd + 8 * nd;
  const double bwd = 4 * (nd + 1) + 4 * ed + 8 * ed + 8 * nd + 1 * nd + 8 * nd;
  // Export: pos_of + three reads + three writes per vertex.
  const double exp = 4 * nd + 24 * nd + 24 * nd;
  return fwd + bwd + exp;
}

double full_sta_bytes(int n, int arcs, int load_terms) {
  // Delay init: load offsets + (coeff, target, gathered size) per term +
  // a_self/b/size/source per vertex + delay written; then the sweeps.
  const double nd = n, ld = load_terms;
  const double init = 4 * (nd + 1) + 20 * ld + 25 * nd + 8 * nd;
  return init + sweeps_bytes(n, arcs);
}

double wphase_bytes(int n, int load_terms, int sweeps) {
  const double nd = n, ld = load_terms;
  // Per sweep: load CSR + gathered sizes per term, budget/a_self/b/source
  // per vertex, size read+written.
  const double per_sweep = 4 * (nd + 1) + 20 * ld + 25 * nd + 16 * nd;
  // Gather budgets+start, scatter result.
  const double permute = 3 * (4 * nd + 16 * nd);
  return per_sweep * std::max(1, sweeps) + permute;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int repeats = 40;

  const Netlist nl = make_wide_datapath(/*slices=*/256, /*bits=*/24);
  const LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const SizingNetwork& net = lc.net;
  const int n = net.num_vertices();
  const int arcs = net.dag().num_arcs();
  const int load_terms = net.plan().load_off[static_cast<std::size_t>(n)];

  const int levels = net.num_levels();
  int max_width = 0;
  for (int l = 0; l < levels; ++l)
    max_width = std::max(max_width, net.level_offsets()[l + 1] -
                                        net.level_offsets()[l]);
  std::printf(
      "inner-loop bench: %s, %d vertices, %d arcs, %d load terms, %d levels "
      "(avg width %.0f, max %d), hw concurrency %u\n\n",
      nl.name().c_str(), n, arcs, load_terms, levels,
      levels > 0 ? static_cast<double>(n) / levels : 0.0, max_width, hw);

  // Workload inputs: a sized interior point for budgets, and a trail of
  // single-vertex updates for the incremental-sweep phase.
  std::vector<double> sized = net.min_sizes();
  for (NodeId v = 0; v < n; ++v)
    if (!net.is_source(v)) sized[static_cast<std::size_t>(v)] *= 2.0;
  std::vector<double> budget(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v)
    budget[static_cast<std::size_t>(v)] = net.delay(v, sized);
  NodeId bump = 0;
  while (net.is_source(bump)) ++bump;

  BenchJson json;

  // Full STA: delay init + both sweeps, from a cold scratch every time.
  TimingScratch scratch;
  const RepeatTiming full = time_repeats(repeats, [&] {
    scratch.valid = false;
    run_sta(net, sized, scratch);
  });

  // Sweep phase: one hinted single-vertex update per run — the delay
  // recompute is O(loaders of one vertex), so this times the level sweeps
  // themselves (the TILOS/D-phase steady state).
  std::vector<double> x = sized;
  const std::vector<NodeId> hint = {bump};
  const RepeatTiming sweeps = time_repeats(repeats, [&] {
    const std::size_t b = static_cast<std::size_t>(bump);
    x[b] = x[b] == sized[b] ? sized[b] * 1.1 : sized[b];
    run_sta(net, x, scratch, hint);
  });

  // W-phase: cold Gauss–Seidel to the least fixpoint of the budgets.
  WPhaseResult wres;
  const RepeatTiming wphase =
      time_repeats(repeats, [&] { wres = solve_wphase(net, budget); });

  std::printf(
      "sta_full min %.3fms  sweeps min %.3fms  wphase min %.3fms (%d "
      "sweeps)\n",
      full.min() * 1e3, sweeps.min() * 1e3, wphase.min() * 1e3, wres.sweeps);
  const double phase_bytes[3] = {full_sta_bytes(n, arcs, load_terms),
                                 sweeps_bytes(n, arcs),
                                 wphase_bytes(n, load_terms, wres.sweeps)};
  const double phase_verts[3] = {
      static_cast<double>(n), static_cast<double>(n),
      static_cast<double>(n) * std::max(1, wres.sweeps)};
  const RepeatTiming* phase_timing[3] = {&full, &sweeps, &wphase};
  const char* phase_name[3] = {"sta_full", "sta_sweeps", "wphase"};
  for (int pi = 0; pi < 3; ++pi) {
    const RepeatTiming& t = *phase_timing[pi];
    json.add(strf("inner/%s_t1", phase_name[pi]), t.total(),
             {{"min_seconds", t.min()},
              {"median_seconds", t.median()},
              {"vertices_per_second", phase_verts[pi] / t.median()},
              {"effective_gb_per_second", phase_bytes[pi] / t.median() / 1e9},
              {"repeats", static_cast<double>(repeats)}});
  }

  json.add("inner/summary", full.total(),
           {{"sta_full_t1_median", full.median()},
            {"sta_sweeps_t1_median", sweeps.median()},
            {"wphase_t1_median", wphase.median()},
            {"hw_concurrency", static_cast<double>(hw)},
            {"vertices", static_cast<double>(n)},
            {"arcs", static_cast<double>(arcs)},
            {"load_terms", static_cast<double>(load_terms)},
            {"levels", static_cast<double>(levels)},
            {"max_level_width", static_cast<double>(max_width)}});
  if (!json.write("BENCH_inner.json"))
    std::fprintf(stderr, "warning: could not write BENCH_inner.json\n");
  return 0;
}
