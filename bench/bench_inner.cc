// Inner-loop benchmark: the three hot kernels (STA full, incremental STA
// sweeps, W-phase Gauss–Seidel) on the largest generated instance.
//
// Two axes:
//  - inner-thread scaling (sequential vs N level-parallel inner threads,
//    plus the bit-exactness cross-check: thread count must never change
//    results),
//  - per-kernel throughput: vertices/second and effective GB/s (documented
//    byte model below) so regressions show up as bandwidth, not just time.
//
// Emits BENCH_inner.json with min/median wall times per phase at each
// thread count (RepeatTiming — robust to CI noise), the speedups, the
// determinism bit and hw_concurrency. The thread speedup is hardware-bound
// — interpret it against hw_concurrency: on >= 4 real cores the sweep
// phases are expected >= 1.5x at 4 inner threads, while a 1-core container
// reads well BELOW 1x because four workers time-slice one core. The
// 1-thread numbers run the sequential code path (no arena), so they double
// as the no-regression baseline (bench/results/BENCH_inner.json). Override
// the thread count with --inner-threads or MFT_BENCH_INNER_THREADS.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "sizing/wphase.h"
#include "timing/sta.h"
#include "util/parallel.h"
#include "util/str.h"

using namespace mft;
using namespace mft::bench;

namespace {

bool reports_identical(const TimingReport& a, const TimingReport& b) {
  return a.delay == b.delay && a.at == b.at && a.rt == b.rt &&
         a.critical_path == b.critical_path && a.cp_vertex == b.cp_vertex;
}

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

int main(int argc, char** argv) {
  const unsigned hw = std::thread::hardware_concurrency();
  int par_threads = bench_inner_threads(argc, argv);
  if (par_threads <= 0) par_threads = std::max(4u, hw ? hw : 1u);
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
  const int thread_counts[2] = {1, par_threads};
  RepeatTiming full[2], sweeps[2], wphase[2];
  TimingReport report[2];
  WPhaseResult wres[2];

  for (int i = 0; i < 2; ++i) {
    const int threads = thread_counts[i];
    ThreadArena arena(threads);
    ThreadArena* use = threads > 1 ? &arena : nullptr;  // 1 = sequential

    // Full STA: delay init + both sweeps, from a cold scratch every time.
    TimingScratch scratch;
    scratch.arena = use;
    full[i] = time_repeats(repeats, [&] {
      scratch.valid = false;
      run_sta(net, sized, scratch);
    });

    // Sweep phase: one hinted single-vertex update per run — the delay
    // recompute is O(loaders of one vertex), so this times the level
    // sweeps themselves (the TILOS/D-phase steady state).
    std::vector<double> x = sized;
    const std::vector<NodeId> hint = {bump};
    sweeps[i] = time_repeats(repeats, [&] {
      const std::size_t b = static_cast<std::size_t>(bump);
      x[b] = x[b] == sized[b] ? sized[b] * 1.1 : sized[b];
      run_sta(net, x, scratch, hint);
    });
    report[i] = scratch.report;  // copy for the determinism check

    // W-phase: cold Gauss–Seidel to the least fixpoint of the budgets.
    wphase[i] = time_repeats(repeats, [&] {
      wres[i] = solve_wphase(net, budget, use);
    });

    std::printf(
        "%d inner thread%s: sta_full min %.3fms  sweeps min %.3fms  "
        "wphase min %.3fms (%d sweeps)\n",
        threads, threads == 1 ? " " : "s", full[i].min() * 1e3,
        sweeps[i].min() * 1e3, wphase[i].min() * 1e3, wres[i].sweeps);
    const double phase_bytes[3] = {
        full_sta_bytes(n, arcs, load_terms), sweeps_bytes(n, arcs),
        wphase_bytes(n, load_terms, wres[i].sweeps)};
    const double phase_verts[3] = {
        static_cast<double>(n), static_cast<double>(n),
        static_cast<double>(n) * std::max(1, wres[i].sweeps)};
    int pi = 0;
    for (const char* phase : {"sta_full", "sta_sweeps", "wphase"}) {
      const RepeatTiming& t = pi == 0 ? full[i] : pi == 1 ? sweeps[i]
                                                          : wphase[i];
      json.add(strf("inner/%s_t%d", phase, threads), t.total(),
               {{"min_seconds", t.min()},
                {"median_seconds", t.median()},
                {"vertices_per_second", phase_verts[pi] / t.median()},
                {"effective_gb_per_second",
                 phase_bytes[pi] / t.median() / 1e9},
                {"repeats", static_cast<double>(repeats)},
                {"threads", static_cast<double>(threads)}});
      ++pi;
    }
  }

  auto speedup = [](const RepeatTiming& a, const RepeatTiming& b) {
    return b.min() > 0.0 ? a.min() / b.min() : 0.0;
  };

  const bool deterministic =
      reports_identical(report[0], report[1]) &&
      wres[0].sizes == wres[1].sizes && wres[0].sweeps == wres[1].sweeps &&
      wres[0].feasible == wres[1].feasible;
  const double sweep_speedup = speedup(sweeps[0], sweeps[1]);
  std::printf(
      "\nspeedup 1 -> %d inner threads: sta_full %.2fx, sweeps %.2fx, "
      "wphase %.2fx (hw concurrency %u)\n",
      par_threads, speedup(full[0], full[1]), sweep_speedup,
      speedup(wphase[0], wphase[1]), hw);
  std::printf("determinism across thread counts: %s\n",
              deterministic ? "bit-identical" : "MISMATCH");

  json.add("inner/summary", full[0].total() + full[1].total(),
           {{"sweep_speedup", sweep_speedup},
            {"sta_full_speedup", speedup(full[0], full[1])},
            {"wphase_speedup", speedup(wphase[0], wphase[1])},
            {"sta_full_t1_median", full[0].median()},
            {"sta_sweeps_t1_median", sweeps[0].median()},
            {"wphase_t1_median", wphase[0].median()},
            {"inner_threads", static_cast<double>(par_threads)},
            {"hw_concurrency", static_cast<double>(hw)},
            {"deterministic", deterministic ? 1.0 : 0.0},
            {"vertices", static_cast<double>(n)},
            {"arcs", static_cast<double>(arcs)},
            {"load_terms", static_cast<double>(load_terms)},
            {"levels", static_cast<double>(levels)},
            {"max_level_width", static_cast<double>(max_width)}});
  if (!json.write("BENCH_inner.json"))
    std::fprintf(stderr, "warning: could not write BENCH_inner.json\n");
  return deterministic ? 0 : 1;
}
