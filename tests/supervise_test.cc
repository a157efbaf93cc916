// Supervision-layer tests (tier1): worker heartbeats + watchdog and the
// generic retry policy.
//
//  - Retry: transient statuses (worker death, internal faults) are
//    re-enqueued under the same ticket and seed, so a retried success is
//    bit-identical to a fault-free run; exhaustion surfaces the last
//    failure with the attempt count echoed; non-transient outcomes are
//    never retried.
//  - Watchdog: a fault-driven true hang (stream.execute armed to spin) is
//    detected on the fake clock, the token fired, escalation produces a
//    structured kHung completion, the lost worker is replaced, and the
//    runner keeps serving bit-identical results. An armed-but-untripped
//    watchdog is a pure observer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "engine/stream.h"
#include "gen/blocks.h"
#include "timing/lowering.h"
#include "util/retry.h"
#include "util/fault.h"

namespace mft {
namespace {

LoweredCircuit lower(const Netlist& nl) { return lower_gate_level(nl, Tech{}); }

class SuperviseTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().disarm_all(); }
  void TearDown() override { FaultInjector::instance().disarm_all(); }
};

SizingJob c17_job(std::uint64_t seed) {
  SizingJob job;
  job.target_ratio = 0.8;
  job.seed = seed;  // fixed: results comparable across runners and tickets
  return job;
}

/// Clean single-job reference on a default runner.
JobResult reference_result(const LoweredCircuit& lc, const SizingJob& job) {
  StreamingRunner stream(JobRunnerOptions{});
  return stream.wait(stream.submit(lc.net, job));
}

// ---------------------------------------------------------------------------
// Retry policy on the runner
// ---------------------------------------------------------------------------

TEST_F(SuperviseTest, TransientWorkerDeathIsRetriedToABitIdenticalSuccess) {
  LoweredCircuit lc = lower(make_c17());
  const SizingJob job = c17_job(12345);
  const JobResult ref = reference_result(lc, job);
  ASSERT_TRUE(ref.ok) << ref.error;

  FaultInjector::instance().arm("stream.worker", 1);
  JobRunnerOptions opt;
  opt.threads = 1;
  opt.retry.max_attempts = 2;
  StreamingRunner stream(opt);
  std::atomic<int> callbacks{0};
  const JobTicket t = stream.submit(
      lc.net, job, [&callbacks](const JobResult&) { ++callbacks; });
  const JobResult r = stream.wait(t);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(callbacks.load(), 1);  // one completion, despite two attempts
  // Same ticket, same seed: the retried solve is the fault-free solve.
  EXPECT_EQ(r.seed, ref.seed);
  EXPECT_EQ(r.result.sizes, ref.result.sizes);
  EXPECT_EQ(r.result.area, ref.result.area);
  const StreamStats st = stream.stats();
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.completed, 1u);
}

TEST_F(SuperviseTest, HeartbeatFaultIsAWorkerDeathAndRetryable) {
  LoweredCircuit lc = lower(make_c17());
  const SizingJob job = c17_job(999);

  // Without retry: a structured kWorkerDied result, runner intact.
  FaultInjector::instance().arm("stream.heartbeat", 1);
  {
    JobRunnerOptions opt;
    opt.threads = 1;
    StreamingRunner stream(opt);
    const JobResult r = stream.wait(stream.submit(lc.net, job));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.status, EngineStatus::kWorkerDied);
    EXPECT_EQ(r.attempts, 1);
    const JobResult next = stream.wait(stream.submit(lc.net, job));
    EXPECT_TRUE(next.ok) << next.error;
  }

  // With retry: absorbed.
  FaultInjector::instance().disarm_all();
  FaultInjector::instance().arm("stream.heartbeat", 1);
  {
    JobRunnerOptions opt;
    opt.threads = 1;
    opt.retry.max_attempts = 2;
    StreamingRunner stream(opt);
    const JobResult r = stream.wait(stream.submit(lc.net, job));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.attempts, 2);
  }
}

TEST_F(SuperviseTest, RetryExhaustionSurfacesTheLastFailure) {
  LoweredCircuit lc = lower(make_c17());
  FaultInjector::instance().arm("stream.execute", 1, 5);  // every attempt
  JobRunnerOptions opt;
  opt.threads = 1;
  opt.retry.max_attempts = 3;
  StreamingRunner stream(opt);
  const JobResult r = stream.wait(stream.submit(lc.net, c17_job(7)));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status, EngineStatus::kInternal);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(stream.stats().retries, 2u);
}

TEST_F(SuperviseTest, NonTransientOutcomesAreNeverRetried) {
  EXPECT_FALSE(retryable_status(EngineStatus::kCanceled));
  EXPECT_FALSE(retryable_status(EngineStatus::kShed));
  EXPECT_FALSE(retryable_status(EngineStatus::kDeadlineExpired));
  EXPECT_FALSE(retryable_status(EngineStatus::kStepBudget));
  EXPECT_FALSE(retryable_status(EngineStatus::kHung));
  EXPECT_TRUE(retryable_status(EngineStatus::kWorkerDied));
  EXPECT_TRUE(retryable_status(EngineStatus::kInternal));

  LoweredCircuit lc = lower(make_c17());
  JobRunnerOptions opt;
  opt.threads = 1;
  opt.retry.max_attempts = 3;
  StreamingRunner stream(opt);
  // A one-step budget trips before any feasible iterate: a final,
  // by-design failure the retry policy must leave alone.
  SizingJob job = c17_job(11);
  job.target_ratio = 0.5;
  job.max_steps = 1;
  const JobResult r = stream.wait(stream.submit(lc.net, job));
  EXPECT_EQ(r.status, EngineStatus::kStepBudget);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(stream.stats().retries, 0u);
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

TEST_F(SuperviseTest, WatchdogEscalatesATrueHangAndRespawnsTheWorker) {
  LoweredCircuit lc = lower(make_c17());
  const SizingJob job = c17_job(2024);
  const JobResult ref = reference_result(lc, job);
  ASSERT_TRUE(ref.ok) << ref.error;

  auto fake = std::make_shared<std::atomic<double>>(0.0);
  JobRunnerOptions opt;
  opt.threads = 1;
  opt.clock = [fake] { return fake->load(); };
  opt.hang_timeout = 10.0;
  opt.hang_grace = 5.0;
  StreamingRunner stream(opt);

  // The job spins inside the fault point — a worker stuck mid-body that
  // never reaches a checkpoint, the exact shape the watchdog exists for.
  FaultInjector::instance().arm_hang("stream.execute", 1);
  const JobTicket t = stream.submit(lc.net, job);
  while (FaultInjector::instance().hits("stream.execute") < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Stage 1 — advance the fake clock until the watchdog declares the
  // heartbeat stalled and fires the job's AbortToken. (Monotone advances
  // converge no matter when the watchdog first observed the stall.)
  while (stream.stats().hang_cancels < 1) {
    fake->store(fake->load() + 20.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Stage 2 — the hung job ignores the token; advancing past the grace
  // escalates to a structured kHung completion.
  while (stream.stats().hangs < 1) {
    fake->store(fake->load() + 20.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const JobResult r = stream.wait(t);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status, EngineStatus::kHung);
  EXPECT_NE(r.error.find("hung"), std::string::npos) << r.error;
  EXPECT_EQ(r.seed, job.seed);

  StreamStats st = stream.stats();
  EXPECT_EQ(st.hang_cancels, 1u);
  EXPECT_EQ(st.hangs, 1u);
  EXPECT_EQ(st.respawns, 1u);
  EXPECT_GE(st.heartbeat_age_peak, opt.hang_timeout);

  // Capacity held: the replacement worker serves new submissions — with
  // the lost worker still stuck — and bit-identically to the reference.
  const JobResult again = stream.wait(stream.submit(lc.net, job));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.result.sizes, ref.result.sizes);
  EXPECT_EQ(again.result.area, ref.result.area);
  EXPECT_EQ(again.result.delay, ref.result.delay);

  // Release the stuck worker so shutdown can join it; its long-dead
  // ticket was already delivered as kHung, so its late result is dropped.
  FaultInjector::instance().disarm("stream.execute");
  stream.shutdown();
  EXPECT_EQ(stream.stats().completed, 2u);
}

TEST_F(SuperviseTest, ArmedButUntrippedWatchdogIsAPureObserver) {
  LoweredCircuit lc = lower(make_c17());
  JobRunnerOptions opt;
  opt.threads = 2;
  opt.hang_timeout = 1e6;  // armed, far beyond any real solve
  opt.retry.max_attempts = 2;
  StreamingRunner stream(opt);
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 4; ++i)
    tickets.push_back(stream.submit(lc.net, c17_job(100 + i)));
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const JobResult r = stream.wait(tickets[i]);
    const JobResult ref = reference_result(lc, c17_job(100 + i));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.attempts, 1);
    EXPECT_EQ(r.result.sizes, ref.result.sizes);
    EXPECT_EQ(r.result.area, ref.result.area);
  }
  const StreamStats st = stream.stats();
  EXPECT_EQ(st.hangs, 0u);
  EXPECT_EQ(st.hang_cancels, 0u);
  EXPECT_EQ(st.respawns, 0u);
  EXPECT_EQ(st.retries, 0u);
}

}  // namespace
}  // namespace mft
