// Tests for the sizing engine's three layers:
//
//  - Pass layer: the default pipeline must reproduce the pre-refactor
//    run_minflotransit loop *bit-identically*. The reference here is a
//    verbatim copy of the legacy driver (legacy_minflotransit below),
//    frozen at the PR that introduced the pipeline.
//  - Context layer: per-job instrumentation resets at begin_job() while
//    cached solver state (LP build, STA sizes) survives; one timing
//    scratch serves the whole job.
//  - Engine layer: a multi-thread batch is bit-identical to the same batch
//    run sequentially, results come back in job order, failures are
//    per-job, and seeding is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "engine/runner.h"
#include "gen/blocks.h"
#include "sizing/context.h"
#include "sizing/pass.h"
#include "timing/lowering.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace mft {
namespace {

// ---------------------------------------------------------------------------
// Reference: the pre-pipeline run_minflotransit, copied verbatim (only
// renamed). Any change in the pass layer's arithmetic or control flow will
// show up as a size/area/delay mismatch against this. One deliberate
// amendment since the original freeze: the W-phase calls warm-start from
// the current iterate, mirroring the same intentional algorithm change in
// WPhasePass/DPhasePass (identical results on triangular/gate networks,
// fewer sweeps — and a slightly different, equally-converged trajectory —
// on mutually-loading transistor networks).
// ---------------------------------------------------------------------------
MinflotransitResult legacy_minflotransit(const SizingNetwork& net,
                                         double target_delay,
                                         const MinflotransitOptions& opt = {}) {
  Stopwatch total;
  MinflotransitResult res;

  {
    Stopwatch sw;
    res.initial = run_tilos(net, target_delay, opt.tilos);
    res.tilos_seconds = sw.seconds();
  }
  res.sizes = res.initial.sizes;
  res.met_target = res.initial.met_target;
  res.area = res.initial.area;
  res.delay = res.initial.achieved_delay;
  if (!res.met_target) {
    res.total_seconds = total.seconds();
    return res;
  }

  double best_area = res.area;
  std::vector<double> best_sizes = res.sizes;
  std::vector<double> cur = res.sizes;

  DPhaseWorkspace dws;
  TimingScratch sta;

  {
    const TimingReport& t0 = run_sta(net, cur, sta);
    const WPhaseResult w0 = solve_wphase(net, t0.delay, cur);
    if (w0.feasible) {
      const double area0 = net.area(w0.sizes);
      if (run_sta(net, w0.sizes, sta).critical_path <=
              target_delay * (1.0 + 1e-9) &&
          area0 <= best_area) {
        cur = w0.sizes;
        best_sizes = cur;
        best_area = area0;
      }
    }
  }

  DPhaseOptions dopt = opt.dphase;
  int stagnant = 0;
  int backoffs = 0;
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    const DPhaseResult d = run_dphase(net, cur, dopt, &dws);
    if (!d.solved) break;
    const WPhaseResult w = solve_wphase(net, d.budget, cur);
    const TimingReport& timing = run_sta(net, w.sizes, sta);
    const double area = net.area(w.sizes);
    const bool ok = w.feasible &&
                    timing.critical_path <= target_delay * (1.0 + 1e-9) &&
                    area <= best_area * (1.0 + 1e-9);
    if (!ok) {
      if (++backoffs > kMaxBetaBackoffs) break;
      dopt.beta *= 0.5;
      cur = best_sizes;
      continue;
    }
    backoffs = 0;
    cur = w.sizes;
    res.iterations.push_back(
        IterationLog{area, timing.critical_path, d.objective, dopt.beta});
    const double improvement = (best_area - area) / best_area;
    if (area < best_area) {
      best_area = area;
      best_sizes = cur;
    }
    if (improvement < kRelImprovementStop) {
      if (++stagnant >= kStagnationPatience) break;
    } else {
      stagnant = 0;
    }
  }

  res.sizes = std::move(best_sizes);
  res.area = best_area;
  res.delay = run_sta(net, res.sizes, sta).critical_path;
  res.total_seconds = total.seconds();
  return res;
}

LoweredCircuit lower(const Netlist& nl) { return lower_gate_level(nl, Tech{}); }

void expect_bit_identical(const MinflotransitResult& a,
                          const MinflotransitResult& b) {
  EXPECT_EQ(a.met_target, b.met_target);
  ASSERT_EQ(a.sizes.size(), b.sizes.size());
  for (std::size_t i = 0; i < a.sizes.size(); ++i)
    EXPECT_EQ(a.sizes[i], b.sizes[i]) << "size mismatch at vertex " << i;
  EXPECT_EQ(a.area, b.area);
  EXPECT_EQ(a.delay, b.delay);
  EXPECT_EQ(a.initial.met_target, b.initial.met_target);
  EXPECT_EQ(a.initial.area, b.initial.area);
  EXPECT_EQ(a.initial.bumps, b.initial.bumps);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].area, b.iterations[i].area);
    EXPECT_EQ(a.iterations[i].critical_path, b.iterations[i].critical_path);
    EXPECT_EQ(a.iterations[i].dphase_objective,
              b.iterations[i].dphase_objective);
    EXPECT_EQ(a.iterations[i].beta, b.iterations[i].beta);
  }
}

struct NamedCircuit {
  const char* name;
  Netlist (*build)();
};

Netlist build_c17() { return make_c17(); }
Netlist build_adder8() { return make_ripple_adder(8); }
Netlist build_mux16() { return make_mux_tree(4); }
Netlist build_cmp8() { return make_comparator(8); }
Netlist build_parity() { return tech_map_to_primitives(make_parity_sec(8)); }

class PipelineOnCircuit : public ::testing::TestWithParam<NamedCircuit> {};

INSTANTIATE_TEST_SUITE_P(
    Circuits, PipelineOnCircuit,
    ::testing::Values(NamedCircuit{"c17", build_c17},
                      NamedCircuit{"adder8", build_adder8},
                      NamedCircuit{"mux16", build_mux16},
                      NamedCircuit{"cmp8", build_cmp8},
                      NamedCircuit{"parity8", build_parity}),
    [](const auto& info) { return std::string(info.param.name); });

// The acceptance gate of the pipeline refactor: on the seed circuits the
// new pass pipeline (via the run_minflotransit wrapper) must match the
// legacy loop bit for bit, at a moderate and a steep target.
TEST_P(PipelineOnCircuit, BitIdenticalToLegacyDriver) {
  Netlist nl = GetParam().build();
  LoweredCircuit lc = lower(nl);
  const double dmin = min_sized_delay(lc.net);
  const double floor = run_tilos(lc.net, 0.05 * dmin).achieved_delay;
  for (double lambda : {0.5, 0.15}) {
    const double target = floor + lambda * (dmin - floor);
    const MinflotransitResult legacy = legacy_minflotransit(lc.net, target);
    const MinflotransitResult now = run_minflotransit(lc.net, target);
    SCOPED_TRACE(lambda);
    expect_bit_identical(legacy, now);
  }
}

TEST(Pipeline, BitIdenticalToLegacyOnTransistorGranularity) {
  Netlist nl = make_ripple_adder(2);
  LoweredCircuit lc = lower_transistor_level(nl, Tech{});
  const double dmin = min_sized_delay(lc.net);
  const MinflotransitResult legacy =
      legacy_minflotransit(lc.net, 0.6 * dmin);
  const MinflotransitResult now = run_minflotransit(lc.net, 0.6 * dmin);
  expect_bit_identical(legacy, now);
}

TEST(Pipeline, UnreachableTargetMatchesLegacy) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower(nl);
  const MinflotransitResult legacy = legacy_minflotransit(lc.net, 1e-4);
  const MinflotransitResult now = run_minflotransit(lc.net, 1e-4);
  EXPECT_FALSE(now.met_target);
  expect_bit_identical(legacy, now);
}

TEST(Pipeline, ZeroIterationsMatchesLegacyTilosOnly) {
  // --tilos-only path: the W-phase canonicalization still runs, the D/W
  // loop does not.
  Netlist nl = make_ripple_adder(8);
  LoweredCircuit lc = lower(nl);
  const double dmin = min_sized_delay(lc.net);
  MinflotransitOptions opt;
  opt.max_iterations = 0;
  const MinflotransitResult legacy =
      legacy_minflotransit(lc.net, 0.5 * dmin, opt);
  const MinflotransitResult now = run_minflotransit(lc.net, 0.5 * dmin, opt);
  EXPECT_TRUE(now.met_target);
  EXPECT_TRUE(now.iterations.empty());
  expect_bit_identical(legacy, now);
}

TEST(Pipeline, ExplicitPipelineMatchesWrapperAndReportsPassStats) {
  Netlist nl = make_ripple_adder(8);
  LoweredCircuit lc = lower(nl);
  const double dmin = min_sized_delay(lc.net);
  const MinflotransitResult via_wrapper =
      run_minflotransit(lc.net, 0.5 * dmin);

  SizingContext ctx(lc.net);
  const Pipeline pipeline = make_minflotransit_pipeline();
  const PipelineResult pr = pipeline.run(ctx, 0.5 * dmin);
  const MinflotransitResult via_pipeline = to_minflotransit_result(ctx, pr);
  expect_bit_identical(via_wrapper, via_pipeline);

  // Per-pass instrumentation: one entry per configured pass, in order.
  ASSERT_EQ(pr.pass_stats.size(), 3u);
  EXPECT_EQ(pr.pass_stats[0].name, "tilos");
  EXPECT_EQ(pr.pass_stats[1].name, "wphase");
  EXPECT_EQ(pr.pass_stats[2].name, "dphase");
  EXPECT_EQ(pr.pass_stats[0].invocations, 1);
  EXPECT_EQ(pr.pass_stats[1].invocations, 1);
  // The D/W alternation ran at least the accepted iterations.
  EXPECT_GE(pr.pass_stats[2].invocations,
            static_cast<int>(pr.state.iterations.size()));
}

TEST(Pipeline, ReusablePipelineObjectAcrossRuns) {
  // A Pipeline holds no per-run state (DPhasePass::begin re-arms the trust
  // region), so one object must serve many targets with clean results.
  Netlist nl = make_ripple_adder(6);
  LoweredCircuit lc = lower(nl);
  const double dmin = min_sized_delay(lc.net);
  const Pipeline pipeline = make_minflotransit_pipeline();
  SizingContext ctx(lc.net);
  for (double ratio : {0.7, 0.5, 0.7}) {
    const double target = ratio * dmin;
    ctx.begin_job();
    const MinflotransitResult fresh = run_minflotransit(lc.net, target);
    const MinflotransitResult reused =
        to_minflotransit_result(ctx, pipeline.run(ctx, target));
    SCOPED_TRACE(ratio);
    expect_bit_identical(fresh, reused);
  }
}

// ---------------------------------------------------------------------------
// Context layer
// ---------------------------------------------------------------------------

TEST(Context, InstrumentationResetsPerJobWhileCachesSurvive) {
  Netlist nl = make_ripple_adder(8);
  LoweredCircuit lc = lower(nl);
  const double dmin = min_sized_delay(lc.net);

  SizingContext ctx(lc.net);
  ContextStats fresh = ctx.stats();
  EXPECT_EQ(fresh.sta_full_runs, 0);
  EXPECT_EQ(fresh.sta_incremental_runs, 0);
  EXPECT_EQ(fresh.sta_delays_recomputed, 0);

  run_minflotransit(ctx, 0.5 * dmin);
  const ContextStats job1 = ctx.stats();
  EXPECT_GT(job1.sta_full_runs + job1.sta_incremental_runs, 0);
  EXPECT_EQ(ctx.dphase().problem_builds(), 1);

  // Second job on the reused context: stats start from zero again...
  ctx.begin_job();
  fresh = ctx.stats();
  EXPECT_EQ(fresh.sta_full_runs, 0);
  EXPECT_EQ(fresh.sta_incremental_runs, 0);
  EXPECT_EQ(fresh.sta_delays_recomputed, 0);

  run_minflotransit(ctx, 0.6 * dmin);
  const ContextStats job2 = ctx.stats();
  EXPECT_GT(job2.sta_full_runs + job2.sta_incremental_runs, 0);
  // ...but the cached LP/flow build is NOT discarded: still one build.
  EXPECT_EQ(ctx.dphase().problem_builds(), 1);
}

TEST(Context, OneScratchTimesTheWholeJob) {
  // The passes' acceptance STA and the D-phase's STA share the context's
  // one scratch: only the job's first timing is a full run, and every
  // D-phase after an accepted move re-times nothing.
  LoweredCircuit lc = lower(make_ripple_adder(8));
  SizingContext ctx(lc.net);
  const MinflotransitResult r =
      run_minflotransit(ctx, 0.5 * min_sized_delay(lc.net));
  ASSERT_TRUE(r.met_target);
  ASSERT_FALSE(r.iterations.empty());
  const ContextStats st = ctx.stats();
  EXPECT_EQ(st.sta_full_runs, 1);
  EXPECT_GT(st.sta_hinted_runs, 0);
}

TEST(Context, DPhaseRebuildForANewSerialKeepsTheScratchWiring) {
  // An ECO load edit mints a new serial; the D-phase rebuilds its LP and
  // flow state for it but keeps the context's scratch, arena and delay
  // mode included.
  LoweredCircuit lc = lower(make_ripple_adder(8));
  const double target = 0.6 * min_sized_delay(lc.net);
  ThreadArena arena(2);
  SizingContext ctx(lc.net);
  ctx.set_arena(&arena);
  ctx.set_fast_math(true);
  run_minflotransit(ctx, target);
  ASSERT_EQ(ctx.dphase().problem_builds(), 1);

  NodeId v = 0;
  while (lc.net.is_source(v)) ++v;
  const std::uint64_t old_serial = lc.net.serial();
  lc.net.eco_add_b(v, 0.05);
  ASSERT_NE(lc.net.serial(), old_serial);
  ctx.begin_job();
  run_minflotransit(ctx, target);

  EXPECT_EQ(ctx.dphase().net_serial, lc.net.serial());
  EXPECT_EQ(ctx.dphase().problem_builds(), 1);  // a fresh flow workspace
  const TimingScratch& t = ctx.dphase().timing;
  EXPECT_EQ(&t, &ctx.timing());
  EXPECT_EQ(t.arena, &arena);
  EXPECT_TRUE(t.fast_math);
  EXPECT_EQ(t.net_serial, lc.net.serial());
  EXPECT_EQ(ctx.stats().sta_full_runs, 1);  // re-timed once for the edit
}

TEST(Context, PivotCountCoversEveryDPhaseSolveOfTheJob) {
  Netlist nl = make_ripple_adder(8);
  LoweredCircuit lc = lower(nl);
  const double dmin = min_sized_delay(lc.net);

  SizingContext ctx(lc.net);
  const MinflotransitResult r = run_minflotransit(ctx, 0.5 * dmin);
  ASSERT_GE(r.iterations.size(), 2u);  // at least two D-phase solves
  const std::int64_t last_solve = ctx.dphase().flow.mcf.ns_pivots;
  EXPECT_GT(last_solve, 0);
  EXPECT_GT(ctx.stats().ns_pivots, last_solve);
  ctx.begin_job();
  EXPECT_EQ(ctx.stats().ns_pivots, 0);
}

// begin_job() forgets the flow solver's basis: a job on a reused context
// starts cold, so it pivots exactly as often as on a fresh context.
TEST(Context, ReusedContextPivotsLikeAFreshOne) {
  Netlist nl = make_ripple_adder(8);
  LoweredCircuit lc = lower(nl);
  const double dmin = min_sized_delay(lc.net);
  SizingContext reused(lc.net);
  run_minflotransit(reused, 0.5 * dmin);
  ASSERT_TRUE(reused.dphase().flow.mcf.has_basis);
  reused.begin_job();
  const MinflotransitResult second = run_minflotransit(reused, 0.6 * dmin);
  SizingContext fresh(lc.net);
  const MinflotransitResult first = run_minflotransit(fresh, 0.6 * dmin);
  expect_bit_identical(first, second);
  EXPECT_GT(fresh.stats().ns_pivots, 0);
  EXPECT_EQ(reused.stats().ns_pivots, fresh.stats().ns_pivots);
}

TEST(Context, ContextRunsAreBitIdenticalToFreshRuns) {
  Netlist nl = make_mux_tree(4);
  LoweredCircuit lc = lower(nl);
  const double dmin = min_sized_delay(lc.net);
  SizingContext ctx(lc.net);
  for (double ratio : {0.8, 0.55}) {
    ctx.begin_job();
    const MinflotransitResult reused =
        run_minflotransit(ctx, ratio * dmin);
    const MinflotransitResult fresh = run_minflotransit(lc.net, ratio * dmin);
    SCOPED_TRACE(ratio);
    expect_bit_identical(fresh, reused);
  }
}

// ---------------------------------------------------------------------------
// Engine layer
// ---------------------------------------------------------------------------

std::vector<SizingJob> make_batch_jobs() {
  // 8 jobs across 2 networks and mixed configurations (the determinism
  // test from the issue: batch runs must not depend on scheduling).
  std::vector<SizingJob> jobs;
  const double ratios[4] = {0.8, 0.65, 0.5, 0.45};
  for (int n = 0; n < 2; ++n) {
    for (int k = 0; k < 4; ++k) {
      SizingJob job;
      job.network = n;
      job.target_ratio = ratios[k];
      job.label = (n == 0 ? "adder8@" : "cmp8@") + std::to_string(ratios[k]);
      if (k == 3) job.options.dphase.solver = FlowSolver::kSsp;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

TEST(Engine, ParallelBatchBitIdenticalToSequential) {
  Netlist a = make_ripple_adder(8);
  Netlist b = make_comparator(8);
  LoweredCircuit la = lower(a);
  LoweredCircuit lb = lower(b);
  const std::vector<const SizingNetwork*> networks = {&la.net, &lb.net};
  const std::vector<SizingJob> jobs = make_batch_jobs();

  JobRunnerOptions seq;
  seq.threads = 1;
  JobRunnerOptions par;
  par.threads = 4;
  const BatchResult s = JobRunner(seq).run(networks, jobs);
  const BatchResult p = JobRunner(par).run(networks, jobs);

  EXPECT_EQ(s.threads_used, 1);
  EXPECT_EQ(p.threads_used, 4);
  ASSERT_EQ(s.results.size(), jobs.size());
  ASSERT_EQ(p.results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].label);
    const JobResult& x = s.results[i];
    const JobResult& y = p.results[i];
    // Ordered collection: results[i] belongs to jobs[i] in both runs.
    EXPECT_EQ(x.job, static_cast<int>(i));
    EXPECT_EQ(y.job, static_cast<int>(i));
    EXPECT_EQ(x.label, jobs[i].label);
    EXPECT_EQ(y.label, jobs[i].label);
    ASSERT_TRUE(x.ok);
    ASSERT_TRUE(y.ok);
    // Deterministic seeding: same derivation regardless of thread count.
    EXPECT_EQ(x.seed, y.seed);
    EXPECT_NE(x.seed, 0u);
    // Bit-identical sizes/areas/delays.
    expect_bit_identical(x.result, y.result);
    EXPECT_EQ(x.dmin, y.dmin);
    EXPECT_EQ(x.target, y.target);
    // The job's pivot total covers all of its own D-phase solves, however
    // the jobs were spread over workers.
    EXPECT_EQ(x.stats.ns_pivots, y.stats.ns_pivots);
    if (jobs[i].options.dphase.solver == FlowSolver::kNetworkSimplex &&
        x.result.iterations.size() >= 2) {
      EXPECT_GT(x.stats.ns_pivots, 0);
    }
  }
}

TEST(Engine, MatchesDirectRuns) {
  // Engine results must equal what a caller gets without the engine.
  Netlist nl = make_ripple_adder(8);
  LoweredCircuit lc = lower(nl);
  const double dmin = min_sized_delay(lc.net);

  const std::vector<double> ratios = {1.0, 0.8, 0.6, 0.5};
  std::vector<SizingJob> jobs;
  for (const double ratio : ratios) {
    SizingJob job;
    job.target_ratio = ratio;
    jobs.push_back(std::move(job));
  }
  JobRunnerOptions ropt;
  ropt.threads = 2;
  const BatchResult batch = JobRunner(ropt).run({&lc.net}, jobs);

  ASSERT_EQ(batch.results.size(), ratios.size());
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    ASSERT_TRUE(batch.results[i].ok);
    const MinflotransitResult direct =
        run_minflotransit(lc.net, ratios[i] * dmin);
    expect_bit_identical(direct, batch.results[i].result);
  }
}

TEST(Engine, ProgressCallbackFiresOncePerJobInCompletionOrder) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower(nl);
  std::vector<SizingJob> jobs(5);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i].target_ratio = 0.9 - 0.05 * static_cast<double>(i);

  int calls = 0;
  int last_done = 0;
  JobRunnerOptions ropt;
  ropt.threads = 3;
  ropt.progress = [&](const JobResult& r, int done, int total) {
    ++calls;
    EXPECT_EQ(total, 5);
    EXPECT_EQ(done, last_done + 1);  // serialized, monotone completion count
    last_done = done;
    EXPECT_GE(r.job, 0);
    EXPECT_LT(r.job, 5);
  };
  const BatchResult batch = JobRunner(ropt).run({&lc.net}, jobs);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(static_cast<int>(batch.results.size()), 5);
  EXPECT_GT(batch.jobs_per_second, 0.0);
}

TEST(Engine, PerJobFailureDoesNotPoisonTheBatch) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower(nl);
  std::vector<SizingJob> jobs(3);
  jobs[0].target_ratio = 0.7;
  jobs[1].target_ratio = 0.7;
  jobs[1].options.dphase.beta = -1.0;  // invalid: run_dphase MFT_CHECKs
  jobs[2].target_ratio = 0.6;

  JobRunnerOptions ropt;
  ropt.threads = 2;
  const BatchResult batch = JobRunner(ropt).run({&lc.net}, jobs);
  ASSERT_EQ(batch.results.size(), 3u);
  EXPECT_TRUE(batch.results[0].ok);
  EXPECT_FALSE(batch.results[1].ok);
  EXPECT_FALSE(batch.results[1].error.empty());
  EXPECT_TRUE(batch.results[2].ok);
  // The healthy jobs match engine-free runs.
  const double dmin = min_sized_delay(lc.net);
  expect_bit_identical(run_minflotransit(lc.net, 0.7 * dmin),
                       batch.results[0].result);
  expect_bit_identical(run_minflotransit(lc.net, 0.6 * dmin),
                       batch.results[2].result);
}

TEST(Engine, ExplicitJobSeedWinsOverDerivedSeed) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower(nl);
  std::vector<SizingJob> jobs(2);
  jobs[0].target_ratio = 0.8;
  jobs[1].target_ratio = 0.8;
  jobs[1].seed = 1234567;
  const BatchResult batch = JobRunner().run({&lc.net}, jobs);
  EXPECT_NE(batch.results[0].seed, 0u);
  EXPECT_EQ(batch.results[1].seed, 1234567u);
}

TEST(Pipeline, SeedReachesPipelineState) {
  // The engine threads the resolved job seed through
  // MinflotransitOptions::seed; the pipeline must surface it to passes.
  Netlist nl = make_c17();
  LoweredCircuit lc = lower(nl);
  SizingContext ctx(lc.net);
  const Pipeline pipeline = make_minflotransit_pipeline();
  const PipelineResult r =
      pipeline.run(ctx, 0.8 * min_sized_delay(lc.net), 987654321u);
  EXPECT_EQ(r.state.seed, 987654321u);
}

TEST(Engine, WritesBatchJson) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower(nl);
  std::vector<SizingJob> jobs(2);
  jobs[0].target_ratio = 0.8;
  jobs[0].label = "a \"quoted\"\nlabel\\\x01";
  jobs[1].target_ratio = 0.01;  // unreachable: met_target == false branch
  const BatchResult batch = JobRunner().run({&lc.net}, jobs);
  const std::string path = ::testing::TempDir() + "engine_batch.json";
  ASSERT_TRUE(write_batch_json(path, batch));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 14, '\0');
  const std::size_t n = std::fread(content.data(), 1, content.size(), f);
  std::fclose(f);
  content.resize(n);
  EXPECT_NE(content.find("\"jobs\":"), std::string::npos);
  EXPECT_NE(content.find("\"jobs_per_second\""), std::string::npos);
  // Escaping: quotes/backslashes escaped, control chars as \n / \uXXXX.
  EXPECT_NE(content.find("\\\"quoted\\\"\\nlabel\\\\\\u0001"),
            std::string::npos);
  EXPECT_NE(content.find("\"met_target\": false"), std::string::npos);
  // The per-pass stats (including W-phase sweeps) reach the JSON.
  EXPECT_NE(content.find("\"passes\": ["), std::string::npos);
  EXPECT_NE(content.find("\"sweeps\":"), std::string::npos);
  EXPECT_NE(content.find("\"inner_threads\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Inner-loop parallelism through the engine
// ---------------------------------------------------------------------------

TEST(Engine, InnerThreadsAreBitIdenticalAndReported) {
  Netlist nl = make_comparator(8);
  LoweredCircuit lc = lower(nl);
  std::vector<SizingJob> jobs(3);
  jobs[0].target_ratio = 0.85;
  jobs[1].target_ratio = 0.7;
  jobs[2].target_ratio = 0.45;  // TILOS-unreachable: aborted pipeline path

  JobRunnerOptions seq;
  seq.threads = 1;
  seq.inner_threads = 1;
  JobRunnerOptions par;
  par.threads = 1;
  par.inner_threads = 4;
  const BatchResult s = JobRunner(seq).run({&lc.net}, jobs);
  const BatchResult p = JobRunner(par).run({&lc.net}, jobs);
  ASSERT_EQ(s.results.size(), p.results.size());
  int refined = 0;
  for (std::size_t i = 0; i < s.results.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(s.results[i].ok);
    ASSERT_TRUE(p.results[i].ok);
    EXPECT_EQ(s.results[i].inner_threads, 1);
    EXPECT_EQ(p.results[i].inner_threads, 4);
    // The whole point: level-parallel inner loops never change results.
    expect_bit_identical(s.results[i].result, p.results[i].result);
    ASSERT_EQ(p.results[i].pass_stats.size(), 3u);
    EXPECT_EQ(p.results[i].pass_stats[1].name, "wphase");
    if (!p.results[i].result.met_target) continue;  // pipeline aborted
    ++refined;
    // Per-pass stats came back, with the W-phase passes counting sweeps
    // independent of the inner thread count.
    EXPECT_GT(p.results[i].pass_stats[1].sweeps, 0);
    EXPECT_EQ(p.results[i].pass_stats[1].sweeps,
              s.results[i].pass_stats[1].sweeps);
    // The D-phase runs hinted on every straight accepted iteration.
    EXPECT_GT(p.results[i].stats.sta_hinted_runs, 0);
  }
  EXPECT_GE(refined, 2);  // the guarded assertions actually ran
}

TEST(Engine, InnerThreadPolicyGivesLeftoverCoresToWidestJobs) {
  // 5-thread pool, 2 jobs: batch width is served first (1 core per job),
  // the 3 leftover cores round-robin onto the widest network first.
  // The env knob would override the policy under test: clear it for this
  // test only and restore afterwards (CI runs the tier-1 suite a second
  // time with MFT_INNER_THREADS=4 and later tests must still see it).
  struct EnvGuard {
    std::string saved;
    bool was_set;
    EnvGuard() {
      const char* v = std::getenv("MFT_INNER_THREADS");
      was_set = v != nullptr;
      if (was_set) saved = v;
      ::unsetenv("MFT_INNER_THREADS");
    }
    ~EnvGuard() {
      if (was_set) ::setenv("MFT_INNER_THREADS", saved.c_str(), 1);
    }
  } env_guard;
  Netlist small = make_c17();
  Netlist big = make_ripple_adder(8);
  LoweredCircuit ls = lower(small);
  LoweredCircuit lb = lower(big);
  ASSERT_GT(lb.net.num_vertices(), ls.net.num_vertices());

  std::vector<SizingJob> jobs(2);
  jobs[0].network = 0;  // small
  jobs[1].network = 1;  // big
  jobs[0].target_ratio = jobs[1].target_ratio = 0.7;
  JobRunnerOptions ropt;
  ropt.threads = 5;
  const BatchResult batch = JobRunner(ropt).run({&ls.net, &lb.net}, jobs);
  ASSERT_TRUE(batch.results[0].ok);
  ASSERT_TRUE(batch.results[1].ok);
  EXPECT_EQ(batch.results[1].inner_threads, 3);  // big: 1 + 2 leftover
  EXPECT_EQ(batch.results[0].inner_threads, 2);  // small: 1 + 1 leftover

  // A batch at least as wide as the pool gets sequential inner loops.
  std::vector<SizingJob> wide(5);
  for (auto& j : wide) j.target_ratio = 0.8;
  const BatchResult flat = JobRunner(ropt).run({&ls.net, &lb.net}, wide);
  for (const JobResult& r : flat.results) EXPECT_EQ(r.inner_threads, 1);

  // An explicit per-job request overrides the policy.
  jobs[0].inner_threads = 1;
  jobs[1].inner_threads = 2;
  const BatchResult forced = JobRunner(ropt).run({&ls.net, &lb.net}, jobs);
  EXPECT_EQ(forced.results[0].inner_threads, 1);
  EXPECT_EQ(forced.results[1].inner_threads, 2);

  // Mixed: the forced job is charged against the budget first, the policy
  // splits what remains — the free (big) job gets 5 - 1 = 4 cores.
  jobs[0].inner_threads = 1;
  jobs[1].inner_threads = 0;
  const BatchResult mixed = JobRunner(ropt).run({&ls.net, &lb.net}, jobs);
  EXPECT_EQ(mixed.results[0].inner_threads, 1);
  EXPECT_EQ(mixed.results[1].inner_threads, 4);
}

TEST(Engine, OuterAndInnerParallelismComposeBitIdentically) {
  // 2 outer workers × 2 inner threads vs fully sequential.
  Netlist a = make_ripple_adder(8);
  Netlist b = make_comparator(8);
  LoweredCircuit la = lower(a);
  LoweredCircuit lb = lower(b);
  const std::vector<const SizingNetwork*> networks = {&la.net, &lb.net};
  const std::vector<SizingJob> jobs = make_batch_jobs();

  JobRunnerOptions seq;
  seq.threads = 1;
  seq.inner_threads = 1;
  JobRunnerOptions par;
  par.threads = 2;
  par.inner_threads = 2;
  const BatchResult s = JobRunner(seq).run(networks, jobs);
  const BatchResult p = JobRunner(par).run(networks, jobs);
  ASSERT_EQ(s.results.size(), p.results.size());
  for (std::size_t i = 0; i < s.results.size(); ++i) {
    SCOPED_TRACE(jobs[i].label);
    ASSERT_TRUE(s.results[i].ok);
    ASSERT_TRUE(p.results[i].ok);
    expect_bit_identical(s.results[i].result, p.results[i].result);
  }
}

}  // namespace
}  // namespace mft
