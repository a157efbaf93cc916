// Robustness tests (tier1): the fault-injection harness and the
// cancellation/deadline machinery it soaks.
//
//  - AbortToken laws: step counting, step-budget and deadline trips,
//    cancel precedence, sticky latch.
//  - FaultInjector laws: nth-hit windows, deterministic probabilistic
//    arming, disarm reset, the MFT_FAULT_POINT macro contract.
//  - Every named engine site, armed, yields a structured EngineStatus
//    through the streaming runner — and the worker pool survives it
//    (poll/wait complete, later submits succeed).
//  - Shard-solve failure recovery: a faulted extraction or flow solve is
//    retried once and converges within 2% of the fault-free area; a
//    double failure folds the band back and still terminates feasibly.
//  - Budget degradation: a tripped step budget returns the best-so-far
//    feasible iterate (ok + degraded), deterministically; an armed but
//    untripped budget is a pure observer (bit-identical results).
//  - A randomized multi-worker soak: injected worker deaths and flow
//    faults plus live cancellations never hang or kill the runner.
//  - Daemon front-end sites (daemon.parse, daemon.accept): an injected
//    fault becomes one structured error response, the daemon survives,
//    and the next request is served clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/daemon.h"
#include "engine/runner.h"
#include "engine/stream.h"
#include "gen/blocks.h"
#include "gen/tiled.h"
#include "sizing/shard.h"
#include "timing/lowering.h"
#include "util/abort.h"
#include "util/fault.h"

namespace mft {
namespace {

LoweredCircuit lower(const Netlist& nl) { return lower_gate_level(nl, Tech{}); }

/// The injector is process-wide state; every test starts and ends disarmed
/// so no armed site can leak across tests.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().disarm_all(); }
  void TearDown() override { FaultInjector::instance().disarm_all(); }
};

// ---------------------------------------------------------------------------
// AbortToken
// ---------------------------------------------------------------------------

TEST_F(FaultTest, AbortTokenBudgetsAndPrecedence) {
  AbortToken none;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(none.step());
  EXPECT_EQ(none.tripped(), EngineStatus::kOk);
  EXPECT_EQ(none.steps(), 100);

  AbortToken s;
  s.arm_steps(3);
  EXPECT_FALSE(s.step());  // 1
  EXPECT_FALSE(s.step());  // 2
  EXPECT_FALSE(s.step());  // 3
  EXPECT_TRUE(s.step());   // 4 > 3: trips
  EXPECT_EQ(s.tripped(), EngineStatus::kStepBudget);
  EXPECT_TRUE(s.step());  // sticky: the first reason latches
  EXPECT_EQ(s.tripped(), EngineStatus::kStepBudget);

  AbortToken c;
  c.arm_steps(1);
  c.request_cancel();
  EXPECT_TRUE(c.canceled());
  EXPECT_TRUE(c.step());
  EXPECT_EQ(c.tripped(), EngineStatus::kCanceled);  // cancel wins

  AbortToken d;
  d.arm_deadline(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(d.step());
  EXPECT_EQ(d.tripped(), EngineStatus::kDeadlineExpired);
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST_F(FaultTest, InjectorNthHitWindowAndDisarm) {
  FaultInjector& fi = FaultInjector::instance();
  EXPECT_FALSE(fi.armed());
  // Disarmed, a fault point is a no-op at any site.
  for (int i = 0; i < 3; ++i) MFT_FAULT_POINT("fault_test.free");

  fi.arm("fault_test.site", 2, 2);  // fire on hits 2 and 3
  EXPECT_TRUE(fi.armed());
  EXPECT_FALSE(fi.should_fire("fault_test.site"));  // hit 1
  EXPECT_TRUE(fi.should_fire("fault_test.site"));   // hit 2
  EXPECT_TRUE(fi.should_fire("fault_test.site"));   // hit 3
  EXPECT_FALSE(fi.should_fire("fault_test.site"));  // hit 4: window passed
  EXPECT_EQ(fi.hits("fault_test.site"), 4);
  EXPECT_FALSE(fi.should_fire("fault_test.other"));  // unarmed site

  fi.arm("fault_test.macro", 1);
  try {
    MFT_FAULT_POINT("fault_test.macro");
    FAIL() << "armed site did not throw";
  } catch (const FaultInjectedError& e) {
    EXPECT_EQ(e.site(), "fault_test.macro");
    EXPECT_EQ(e.status(), EngineStatus::kInternal);
    EXPECT_NE(std::string(e.what()).find("fault_test.macro"),
              std::string::npos);
  }

  fi.disarm_all();
  EXPECT_FALSE(fi.armed());
  EXPECT_EQ(fi.hits("fault_test.site"), 0);
  MFT_FAULT_POINT("fault_test.macro");  // disarmed again: no throw
}

TEST_F(FaultTest, RandomArmingIsDeterministicInTheHitIndex) {
  FaultInjector& fi = FaultInjector::instance();
  std::vector<bool> first, second;
  fi.arm_random("fault_test.rand", 0.5, 1234);
  for (int i = 0; i < 64; ++i)
    first.push_back(fi.should_fire("fault_test.rand"));
  fi.disarm_all();
  fi.arm_random("fault_test.rand", 0.5, 1234);
  for (int i = 0; i < 64; ++i)
    second.push_back(fi.should_fire("fault_test.rand"));
  EXPECT_EQ(first, second);  // same (seed, hit) sequence, same decisions
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);

  fi.disarm_all();
  fi.arm_random("fault_test.rand", 1.0, 7);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(fi.should_fire("fault_test.rand"));
  fi.disarm_all();
  fi.arm_random("fault_test.rand", 0.0, 7);
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(fi.should_fire("fault_test.rand"));
}

// ---------------------------------------------------------------------------
// Armed engine sites → structured errors, surviving runner
// ---------------------------------------------------------------------------

TEST_F(FaultTest, EveryEngineSiteYieldsAStructuredErrorAndTheRunnerSurvives) {
  LoweredCircuit lc = lower(make_ripple_adder(8));
  struct Case {
    const char* site;
    EngineStatus want;
    const char* needle;
  };
  const Case cases[] = {
      // Outside the job body: the worker fence reports a worker death.
      {"stream.worker", EngineStatus::kWorkerDied, "worker died"},
      {"stream.context", EngineStatus::kWorkerDied, "stream.context"},
      // Inside the job body: the injected EngineError keeps its status.
      {"stream.execute", EngineStatus::kInternal, "stream.execute"},
      {"flow.solve", EngineStatus::kInternal, "flow.solve"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.site);
    FaultInjector::instance().disarm_all();
    FaultInjector::instance().arm(c.site, 1);
    JobRunnerOptions opt;
    opt.threads = 1;
    StreamingRunner stream(opt);
    SizingJob job;
    job.target_ratio = 0.6;
    job.label = std::string("faulted:") + c.site;
    // The regression under test: a fault outside the job body must still
    // produce a collectible result — wait() completes instead of hanging
    // on a ticket whose worker died.
    const JobResult r = stream.wait(stream.submit(lc.net, job));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.status, c.want) << r.error;
    EXPECT_NE(r.error.find(c.needle), std::string::npos) << r.error;
    // One-hit window: the same runner completes the same job cleanly right
    // after, proving the pool survived the injection.
    const JobResult again = stream.wait(stream.submit(lc.net, job));
    EXPECT_TRUE(again.ok) << again.error;
    EXPECT_TRUE(again.result.met_target);
    const StreamStats stats = stream.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.completed, 2u);
  }
}

TEST_F(FaultTest, FaultedRunLeavesNoResidueOnceDisarmed) {
  LoweredCircuit lc = lower(make_c17());
  JobRunnerOptions opt;
  opt.threads = 1;
  StreamingRunner stream(opt);
  SizingJob job;
  job.target_ratio = 0.7;
  job.seed = 99;  // explicit: the three runs must be comparable
  const JobResult before = stream.wait(stream.submit(lc.net, job));
  ASSERT_TRUE(before.ok) << before.error;

  FaultInjector::instance().arm("flow.solve", 1);
  const JobResult faulted = stream.wait(stream.submit(lc.net, job));
  EXPECT_FALSE(faulted.ok);
  FaultInjector::instance().disarm_all();

  const JobResult after = stream.wait(stream.submit(lc.net, job));
  ASSERT_TRUE(after.ok) << after.error;
  ASSERT_EQ(after.result.sizes, before.result.sizes);
  EXPECT_EQ(after.result.area, before.result.area);
  EXPECT_EQ(after.result.delay, before.result.delay);
}

// ---------------------------------------------------------------------------
// Shard failure recovery
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ShardFaultsAreRetriedAndConvergeNearTheFaultFreeSolve) {
  TiledDatapathParams p;
  p.lanes = 4;
  p.stages = 6;
  p.bits = 2;
  LoweredCircuit lc = lower(make_tiled_datapath(p));
  const double dmin = min_sized_delay(lc.net);
  const double target = 0.7 * dmin;
  ShardOptions opt;
  opt.num_shards = 2;
  opt.runner.threads = 2;
  const ShardSolveResult ref = run_sharded_solve(lc.net, target, opt);
  ASSERT_TRUE(ref.result.met_target);
  ASSERT_EQ(ref.shard_retries, 0);
  ASSERT_EQ(ref.status, EngineStatus::kOk);

  // One hit, retried once: both a coordinator-side extraction fault and a
  // worker-side flow fault must be absorbed by the retry path.
  for (const char* site : {"shard.extract", "flow.solve"}) {
    SCOPED_TRACE(site);
    FaultInjector::instance().disarm_all();
    FaultInjector::instance().arm(site, 1);
    const ShardSolveResult r = run_sharded_solve(lc.net, target, opt);
    EXPECT_TRUE(r.result.met_target);
    EXPECT_EQ(r.status, EngineStatus::kOk);
    EXPECT_GE(r.shard_retries, 1);
    EXPECT_EQ(r.shard_failures, 0);
    EXPECT_NEAR(r.result.area, ref.result.area, 0.02 * ref.result.area);
  }

  // Both submit-time extractions fail (hits 1, 2) AND the first retry
  // fails too (hit 3): shard 0 double-fails and its band folds back into
  // the next round's re-budget — degraded recovery that needs extra
  // rounds to unwind the round-1 stitch (the folded band sat at its
  // previous sizes), but still a feasible termination under a sufficient
  // cap. With too few rounds the same run throws kShardFailed instead
  // (feasible-or-error, never a silent miss).
  FaultInjector::instance().disarm_all();
  FaultInjector::instance().arm("shard.extract", 1, 3);
  ShardOptions patient = opt;
  patient.max_rounds = 10;
  const ShardSolveResult folded = run_sharded_solve(lc.net, target, patient);
  EXPECT_TRUE(folded.result.met_target);
  EXPECT_GE(folded.shard_failures, 1);
  EXPECT_GE(folded.shard_retries, 1);

  FaultInjector::instance().disarm_all();
  FaultInjector::instance().arm("shard.extract", 1, 3);
  ShardOptions capped = opt;
  capped.max_rounds = 2;  // too few to unwind the folded round-1 stitch
  try {
    run_sharded_solve(lc.net, target, capped);
    FAIL() << "persistent failure with an unmet target must be an error";
  } catch (const EngineError& e) {
    EXPECT_EQ(e.status(), EngineStatus::kShardFailed);
    EXPECT_NE(std::string(e.what()).find("failed after retry"),
              std::string::npos);
  }
}

TEST_F(FaultTest, ShardSolveStepBudgetStopsAtRoundGranularity) {
  TiledDatapathParams p;
  p.lanes = 4;
  p.stages = 6;
  p.bits = 2;
  LoweredCircuit lc = lower(make_tiled_datapath(p));
  const double dmin = min_sized_delay(lc.net);
  const double target = 0.7 * dmin;
  ShardOptions opt;
  opt.num_shards = 2;
  opt.runner.threads = 2;
  const ShardSolveResult ref = run_sharded_solve(lc.net, target, opt);
  if (ref.rounds.size() < 2) GTEST_SKIP() << "solve converged in one round";

  // One virtual step = one reconciliation round: the budget deterministically
  // stops the solve after round 1 and reports the stitched best-so-far.
  ShardOptions budgeted = opt;
  budgeted.max_steps = 1;
  const ShardSolveResult r = run_sharded_solve(lc.net, target, budgeted);
  EXPECT_EQ(r.status, EngineStatus::kStepBudget);
  EXPECT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.degraded, r.result.met_target);
}

// ---------------------------------------------------------------------------
// Budget degradation (deterministic via the virtual-step budget)
// ---------------------------------------------------------------------------

TEST_F(FaultTest, StepBudgetDegradesToTheBestSoFarFeasibleIterate) {
  LoweredCircuit lc = lower(make_c17());
  JobRunnerOptions opt;
  opt.threads = 1;
  StreamingRunner stream(opt);
  SizingJob base;
  base.target_ratio = 0.7;
  base.seed = 42;  // fixed: every budgeted rerun is comparable
  const JobResult ref = stream.wait(stream.submit(lc.net, base));
  ASSERT_TRUE(ref.ok) << ref.error;
  ASSERT_FALSE(ref.degraded);
  ASSERT_TRUE(ref.result.met_target);

  // A budget too small for TILOS to reach feasibility: structured failure,
  // nothing to degrade to.
  SizingJob tiny = base;
  tiny.max_steps = 1;
  const JobResult r1 = stream.wait(stream.submit(lc.net, tiny));
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.status, EngineStatus::kStepBudget);
  EXPECT_NE(r1.error.find("step_budget"), std::string::npos) << r1.error;

  // Walk the budget up one step at a time. Every run between the first
  // feasible iterate and convergence must come back ok + degraded with a
  // feasible best-so-far; the first budget the solve fits inside must be
  // bit-identical to the unbudgeted reference (an armed but untripped
  // token is a pure observer).
  bool saw_degraded = false;
  bool saw_clean = false;
  for (std::int64_t steps = 2; steps <= 5000; ++steps) {
    SizingJob job = base;
    job.max_steps = steps;
    const JobResult r = stream.wait(stream.submit(lc.net, job));
    if (!r.ok) {
      EXPECT_EQ(r.status, EngineStatus::kStepBudget) << r.error;
      continue;
    }
    if (r.degraded) {
      EXPECT_EQ(r.status, EngineStatus::kStepBudget);
      EXPECT_TRUE(r.result.met_target);
      // Monotone improvement: an earlier feasible iterate never beats the
      // converged solution on area.
      EXPECT_GE(r.result.area, ref.result.area * (1.0 - 1e-12));
      if (!saw_degraded) {
        // The virtual-step budget is deterministic: same budget, same bits.
        const JobResult twin = stream.wait(stream.submit(lc.net, job));
        ASSERT_TRUE(twin.ok) << twin.error;
        EXPECT_TRUE(twin.degraded);
        ASSERT_EQ(twin.result.sizes, r.result.sizes);
        EXPECT_EQ(twin.result.area, r.result.area);
      }
      saw_degraded = true;
      continue;
    }
    EXPECT_EQ(r.status, EngineStatus::kOk);
    ASSERT_EQ(r.result.sizes, ref.result.sizes);
    EXPECT_EQ(r.result.area, ref.result.area);
    saw_clean = true;
    break;  // larger budgets can only repeat the clean run
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_TRUE(saw_clean);
}

TEST_F(FaultTest, WallClockDeadlineExpiresWithAStructuredStatus) {
  TiledDatapathParams p;
  p.lanes = 4;
  p.stages = 6;
  p.bits = 2;
  LoweredCircuit lc = lower(make_tiled_datapath(p));
  JobRunnerOptions opt;
  opt.threads = 1;
  StreamingRunner stream(opt);
  SizingJob job;
  job.target_ratio = 0.55;
  job.seed = 7;
  job.deadline_seconds = 1e-6;  // expires before feasibility is reachable
  const JobResult r = stream.wait(stream.submit(lc.net, job));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status, EngineStatus::kDeadlineExpired) << r.error;
  EXPECT_NE(r.error.find("deadline_expired"), std::string::npos) << r.error;

  // A deadline the solve fits inside is a pure observer: bit-identical to
  // the undeadlined run.
  SizingJob calm = job;
  calm.deadline_seconds = 300.0;
  SizingJob free_job = job;
  free_job.deadline_seconds = 0.0;
  const JobResult rc = stream.wait(stream.submit(lc.net, calm));
  const JobResult rf = stream.wait(stream.submit(lc.net, free_job));
  ASSERT_TRUE(rc.ok) << rc.error;
  ASSERT_TRUE(rf.ok) << rf.error;
  EXPECT_FALSE(rc.degraded);
  ASSERT_EQ(rc.result.sizes, rf.result.sizes);
  EXPECT_EQ(rc.result.area, rf.result.area);
}

// ---------------------------------------------------------------------------
// Multi-worker soak
// ---------------------------------------------------------------------------

TEST_F(FaultTest, RandomFaultSoakKeepsTheRunnerServiceable) {
  LoweredCircuit c17 = lower(make_c17());
  LoweredCircuit adder = lower(make_ripple_adder(8));
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    FaultInjector::instance().disarm_all();
    FaultInjector::instance().arm_random(
        "stream.worker", 0.3, 0x5eedULL + static_cast<std::uint64_t>(workers));
    FaultInjector::instance().arm_random(
        "flow.solve", 0.2, 0xfeedULL + static_cast<std::uint64_t>(workers));
    JobRunnerOptions opt;
    opt.threads = workers;
    StreamingRunner stream(opt);
    std::vector<JobTicket> tickets;
    for (int i = 0; i < 16; ++i) {
      SizingJob job;
      job.target_ratio = 0.75;
      job.label = "soak" + std::to_string(i);
      tickets.push_back(stream.submit(i % 2 ? adder.net : c17.net, job));
    }
    // Live cancellations for extra churn: plucked, interrupted, or lost.
    stream.cancel(tickets[5]);
    stream.cancel(tickets[11]);
    for (const JobTicket t : tickets) {
      const JobResult r = stream.wait(t);  // must never hang
      if (r.ok) {
        EXPECT_TRUE(r.result.met_target);
      } else {
        EXPECT_NE(r.status, EngineStatus::kOk);
        EXPECT_FALSE(r.error.empty());
      }
    }
    const StreamStats stats = stream.stats();
    EXPECT_EQ(stats.submitted, 16u);
    EXPECT_EQ(stats.completed, 16u);
    // Disarmed, the very same pool goes right back to clean service.
    FaultInjector::instance().disarm_all();
    SizingJob last;
    last.target_ratio = 0.8;
    const JobResult r = stream.wait(stream.submit(c17.net, last));
    EXPECT_TRUE(r.ok) << r.error;
  }
}

// ---------------------------------------------------------------------------
// Daemon front-end sites: daemon.parse / daemon.accept
// ---------------------------------------------------------------------------

TEST_F(FaultTest, DaemonParseAndAcceptFaultsYieldStructuredErrorsAndSurvive) {
  for (const char* site : {"daemon.parse", "daemon.accept"}) {
    SCOPED_TRACE(site);
    FaultInjector::instance().disarm_all();
    std::mutex mu;
    std::vector<std::string> lines;
    DaemonOptions opt;
    opt.engine.threads = 1;
    SizingDaemon daemon(opt, [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu);
      lines.push_back(line);
    });
    // Arm the site for the next request only: the daemon must turn the
    // injected throw into one structured result, not die.
    FaultInjector::instance().arm(site, 1);
    daemon.handle_line(
        "{\"op\":\"submit\",\"id\":\"faulted\",\"circuit\":\"c17\","
        "\"ratio\":0.8}");
    {
      std::lock_guard<std::mutex> lock(mu);
      ASSERT_EQ(lines.size(), 1u);
      EXPECT_NE(lines[0].find("\"event\":\"result\""), std::string::npos);
      EXPECT_NE(lines[0].find("\"status\":\"internal\""), std::string::npos);
      EXPECT_NE(lines[0].find(site), std::string::npos);
      EXPECT_EQ(FaultInjector::instance().hits(site), 1);
      lines.clear();
    }
    // The window passed; the very next request is served clean end to end.
    daemon.handle_line(
        "{\"op\":\"submit\",\"id\":\"clean\",\"circuit\":\"c17\","
        "\"ratio\":0.8}");
    daemon.drain();
    // Snapshot the stats before taking the capture lock: the daemon emits
    // into that lock while holding its own, so the reverse order here
    // would invert the two.
    const DaemonStats s = daemon.stats();
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"event\":\"accepted\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"status\":\"ok\""), std::string::npos);
    EXPECT_EQ(s.requests, 2u);
    EXPECT_EQ(s.invalid, 1u);
    EXPECT_EQ(s.admitted, 1u);
  }
}

}  // namespace
}  // namespace mft
