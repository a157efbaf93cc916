// Sharded large-netlist solve benchmark: monolithic pipeline vs
// partition → parallel shard jobs → reconciliation, on a generated tiled
// datapath 1–2 orders of magnitude beyond the Table-1 circuits.
//
// Arms, all at the same delay target and optimizer options:
//  - monolithic: one engine job on the full network, on one worker.
//  - shard@W:    run_sharded_solve with W workers (K shards), for W in
//                {1, 2, 4, ...}.
//
// Interpretation: shard@1 vs monolithic isolates the *algorithmic* win
// (per-sweep cost inside a shard is O(V/K), and each shard's flow
// problems are K-times smaller); shard@W adds the engine's worker
// parallelism on top. On a 1-core container the W > 1 rows time-slice one
// core and read ≈ shard@1 (documented; the speedup criterion applies to
// multi-core hardware — CI smoke-runs a small instance, the default
// instance is ~110k vertices).
//
// Emits BENCH_shard.json: wall time per arm, speedups over monolithic,
// stitched-vs-monolithic area gap (acceptance: within 2%), and the worst
// slack against the target for both solutions (recorded for the perf
// trajectory; "no worse worst-slack" is enforced in the meets-the-target
// sense). The exit-code gate: nonzero when the sharded solve misses a
// target the monolithic pipeline met (i.e. its slack-vs-target went
// negative where monolithic's was not), or the area gap exceeds 2%.
//
// Flags: --lanes/--stages/--bits (instance), --shards, --rounds,
// --ratio-pct (target as % of Dmin), --max-iters (cap on D/W iterations
// per (shard) solve, both arms), --workers (max worker count measured).
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "gen/tiled.h"
#include "sizing/shard.h"
#include "timing/sta.h"
#include "util/str.h"

using namespace mft;
using namespace mft::bench;

int main(int argc, char** argv) {
  TiledDatapathParams p;
  p.lanes = bench_int_flag(argc, argv, "--lanes", "MFT_SHARD_LANES", 64);
  p.stages = bench_int_flag(argc, argv, "--stages", "MFT_SHARD_STAGES", 48);
  p.bits = bench_int_flag(argc, argv, "--bits", "MFT_SHARD_BITS", 4);
  const int shards = bench_int_flag(argc, argv, "--shards", nullptr, 4);
  const int rounds = bench_int_flag(argc, argv, "--rounds", nullptr, 3);
  const int ratio_pct =
      bench_int_flag(argc, argv, "--ratio-pct", nullptr, 90);
  const int max_iters = bench_int_flag(argc, argv, "--max-iters", nullptr, 4);
  const int max_workers =
      std::max(1, bench_int_flag(argc, argv, "--workers", nullptr, 4));
  const unsigned hw = std::thread::hardware_concurrency();

  const Netlist nl = make_tiled_datapath(p);
  const LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const SizingNetwork& net = lc.net;
  const double dmin = min_sized_delay(net);
  const double target = 0.01 * ratio_pct * dmin;
  std::printf(
      "shard bench: %s, %d vertices (%d sizeable), %d arcs, %d levels\n"
      "target %.3f (%d%% of Dmin %.3f), K=%d, max %d rounds, max %d D/W "
      "iterations, hw concurrency %u\n\n",
      nl.name().c_str(), net.num_vertices(), net.num_sizeable(),
      net.dag().num_arcs(), net.num_levels(), target, ratio_pct, dmin,
      shards, rounds, max_iters, hw);

  MinflotransitOptions mopt;
  mopt.max_iterations = max_iters;

  BenchJson json;

  // --- Monolithic arm ------------------------------------------------------
  // Timed with the same outer stopwatch scope as the sharded arms (around
  // the whole runner.run call, including the engine's per-network prep),
  // so the recorded speedups compare like with like.
  SizingJob mono_job;
  mono_job.target_delay = target;
  mono_job.options = mopt;
  mono_job.label = "monolithic";
  JobRunnerOptions mono_opt;
  mono_opt.threads = 1;
  std::printf("running monolithic...\n");
  std::fflush(stdout);
  Stopwatch mono_sw;
  const BatchResult mono1 = JobRunner(mono_opt).run({&net}, {mono_job});
  const double mono1_seconds = mono_sw.seconds();
  const JobResult& mono = mono1.results.front();
  if (!mono.ok) {
    std::fprintf(stderr, "error: monolithic solve failed: %s\n",
                 mono.error.c_str());
    return 1;
  }
  std::printf("  %.2fs, met=%d, area %.1f, CP %.4f\n", mono1_seconds,
              mono.result.met_target ? 1 : 0, mono.result.area,
              mono.result.delay);
  std::fflush(stdout);

  // --- Sharded arms --------------------------------------------------------
  std::vector<int> worker_counts;
  for (int w = 1; w <= max_workers; w *= 2) worker_counts.push_back(w);
  if (worker_counts.back() != max_workers)
    worker_counts.push_back(max_workers);

  ShardSolveResult last;
  std::vector<double> shard_seconds;
  for (const int w : worker_counts) {
    ShardOptions sopt;
    sopt.num_shards = shards;
    sopt.max_rounds = rounds;
    sopt.options = mopt;
    sopt.runner.threads = w;
    std::printf("running sharded K=%d at %d worker%s...\n", shards, w,
                w == 1 ? "" : "s");
    std::fflush(stdout);
    Stopwatch sw;
    ShardSolveResult r = run_sharded_solve(net, target, sopt);
    const double secs = sw.seconds();
    shard_seconds.push_back(secs);
    std::printf(
        "  %.2fs, met=%d, area %.1f, CP %.4f, %d rounds, %d shard jobs, "
        "converged=%d, reconcile barrier %.3fs\n",
        secs, r.result.met_target ? 1 : 0, r.result.area, r.result.delay,
        static_cast<int>(r.rounds.size()), r.shard_jobs,
        r.converged ? 1 : 0, r.reconcile_seconds);
    std::fflush(stdout);
    last = std::move(r);
  }

  // --- Quality gate + emission --------------------------------------------
  const double area_gap_pct =
      mono.result.area > 0.0
          ? 100.0 * (last.result.area - mono.result.area) / mono.result.area
          : 0.0;
  const TimingReport mono_sta = run_sta(net, mono.result.sizes);
  const TimingReport shard_sta = run_sta(net, last.result.sizes);
  const double mono_slack = target - mono_sta.critical_path;
  const double shard_slack = target - shard_sta.critical_path;

  std::printf(
      "\nquality: area gap %+0.2f%% (sharded %.1f vs monolithic %.1f), "
      "slack vs target: sharded %+0.5f, monolithic %+0.5f\n",
      area_gap_pct, last.result.area, mono.result.area, shard_slack,
      mono_slack);
  for (std::size_t i = 0; i < worker_counts.size(); ++i)
    std::printf("speedup shard@%d over monolithic: %.2fx\n",
                worker_counts[i],
                shard_seconds[i] > 0.0 ? mono1_seconds / shard_seconds[i]
                                       : 0.0);

  json.add("shard/monolithic", mono1_seconds,
           {{"area", mono.result.area},
            {"met_target", mono.result.met_target ? 1.0 : 0.0},
            {"critical_path", mono.result.delay},
            {"iterations",
             static_cast<double>(mono.result.iterations.size())}});
  for (std::size_t i = 0; i < worker_counts.size(); ++i)
    json.add(strf("shard/sharded_w%d", worker_counts[i]), shard_seconds[i],
             {{"workers", static_cast<double>(worker_counts[i])},
              {"speedup_vs_monolithic",
               shard_seconds[i] > 0.0 ? mono1_seconds / shard_seconds[i]
                                      : 0.0}});
  // The wave-free reconciliation measurement: how much per-solve wall time
  // is coordinator barrier (stitched STA + re-budget) vs streamed shard
  // work. Recorded for the last (widest) arm.
  json.add("shard/reconcile_barrier", last.reconcile_seconds,
           {{"rounds", static_cast<double>(last.rounds.size())},
            {"barrier_fraction",
             shard_seconds.back() > 0.0
                 ? last.reconcile_seconds / shard_seconds.back()
                 : 0.0}});
  std::vector<std::pair<std::string, double>> summary = {
      {"vertices", static_cast<double>(net.num_vertices())},
      {"levels", static_cast<double>(net.num_levels())},
      {"num_shards", static_cast<double>(last.num_shards)},
      {"rounds", static_cast<double>(last.rounds.size())},
      {"shard_jobs", static_cast<double>(last.shard_jobs)},
      {"reconcile_seconds", last.reconcile_seconds},
      {"converged", last.converged ? 1.0 : 0.0},
      {"met_target", last.result.met_target ? 1.0 : 0.0},
      {"area", last.result.area},
      {"area_gap_pct", area_gap_pct},
      {"slack_vs_target", shard_slack},
      {"mono_slack_vs_target", mono_slack},
      {"hw_concurrency",
       static_cast<double>(hw)},
  };
  for (std::size_t c = 0; c < last.cut_levels.size(); ++c)
    summary.emplace_back(strf("cut_level_%d", static_cast<int>(c)),
                         static_cast<double>(last.cut_levels[c]));
  json.add("shard/summary", shard_seconds.back(), summary);
  if (!json.write("BENCH_shard.json"))
    std::fprintf(stderr, "warning: could not write BENCH_shard.json\n");

  // Gate: sharding must not lose a target the monolithic pipeline met, and
  // the area gap stays within the 2% acceptance band.
  if (mono.result.met_target && !last.result.met_target) {
    std::fprintf(stderr, "FAIL: sharded solve missed the target\n");
    return 1;
  }
  if (mono.result.met_target && area_gap_pct > 2.0) {
    std::fprintf(stderr, "FAIL: area gap %.2f%% above 2%%\n", area_gap_pct);
    return 1;
  }
  std::printf("\nPASS\n");
  return 0;
}
