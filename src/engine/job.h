// Engine layer, job types: one SizingJob is one independent sizing request
// (network × delay target × optimizer options) and one JobResult is its
// complete outcome, including per-job instrumentation. Batch jobs
// reference their network by index into the batch's shared read-only
// network table; streaming submissions (engine/stream.h) pass the network
// directly and leave `network` unused. Either way the networks are frozen
// before execution and never mutated, which is what makes fanning jobs
// out across threads safe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sizing/context.h"
#include "sizing/minflotransit.h"
#include "sizing/pass.h"
#include "util/status.h"

namespace mft {

struct SizingJob {
  /// Index into the network table handed to JobRunner::run(). Unused by
  /// StreamingRunner::submit, which takes the network directly.
  int network = 0;
  /// Inner-loop threads for this job's level-parallel STA and W-phase
  /// sweeps. 1 = sequential inner loop; 0 = let the runner decide
  /// (JobRunnerOptions::inner_threads, else the core-budget policy: batch
  /// width is served first and leftover pool capacity goes to the jobs
  /// with the largest networks). Results are bit-identical at any value.
  int inner_threads = 0;
  /// Delay target as a fraction of the network's minimum-sized delay Dmin.
  double target_ratio = 0.6;
  /// Absolute delay target; when > 0 it overrides target_ratio (used by
  /// benches whose targets are calibrated rather than ratio-derived).
  double target_delay = 0.0;
  /// Full optimizer configuration (TILOS bump, D-phase β/solver, stopping).
  MinflotransitOptions options;
  /// Free-form tag echoed into the result and the JSON emission.
  std::string label;
  /// Deterministic per-job seed; 0 means "derive from the runner's base
  /// seed and the job index" (splitmix64), so a batch is reproducible
  /// regardless of thread count or scheduling order.
  std::uint64_t seed = 0;
  /// Scheduling priority for the streaming dispatcher: higher-priority
  /// jobs are dispatched first; ties break on earlier effective deadline,
  /// then on ticket (submission order), so equal-priority work stays FIFO
  /// and per-ticket results never depend on what else is queued. The
  /// default 0 reproduces the plain FIFO engine exactly. Ignored by
  /// position in the batch API (results there are index-ordered anyway).
  int priority = 0;
  /// Shard metadata (sizing/shard.h): which shard of a partitioned solve
  /// this job is, and which reconciliation round submitted it. -1/0 for
  /// ordinary (non-sharded) jobs. Echoed into the result and the batch
  /// JSON; the runner itself treats sharded jobs like any other job.
  int shard = -1;
  int shard_round = 0;
  /// Wall-clock deadline, measured from submission; 0 = none. An expired
  /// job stops at its next checkpoint and returns ok == true with
  /// degraded == true when a feasible best-so-far iterate exists (the
  /// MINFLOTRANSIT loop improves monotonically from the TILOS seed), else
  /// ok == false with status kDeadlineExpired.
  double deadline_seconds = 0.0;
  /// Virtual-step budget (pass invocations + TILOS bumps + W-phase
  /// sweeps); 0 = none. Same degradation contract as the deadline but
  /// deterministic — tests pin exact results without touching the clock.
  std::int64_t max_steps = 0;
};

struct JobResult {
  /// Batch index of the job, or its JobTicket on the streaming path.
  int job = -1;
  std::string label;
  bool ok = false;      ///< false => `error` describes the failure
  std::string error;
  /// Structured outcome code. kOk for clean successes; a degraded success
  /// carries the budget that tripped (kDeadlineExpired / kStepBudget);
  /// failures carry the taxonomy code matching `error`.
  EngineStatus status = EngineStatus::kOk;
  /// True when a budget tripped mid-solve and the result is the feasible
  /// best-so-far iterate rather than the converged solution (ok stays
  /// true; `status` says which budget).
  bool degraded = false;

  double dmin = 0.0;      ///< minimum-sized delay of the job's network
  double min_area = 0.0;  ///< minimum-sized area of the job's network
  double target = 0.0;    ///< resolved absolute delay target
  std::uint64_t seed = 0; ///< resolved per-job seed

  MinflotransitResult result;  ///< TILOS seed + refined solution
  double wall_seconds = 0.0;   ///< this job alone, on its worker
  /// Seconds the job sat between submission and dispatch (worker pop, or
  /// the moment it was plucked/shed). Measured on the runner's clock, so a
  /// fake clock in tests makes it deterministic.
  double queue_seconds = 0.0;
  int priority = 0;            ///< SizingJob::priority, echoed
  /// Attempts this outcome consumed (1 = ran once, no retry). The retry
  /// policy (JobRunnerOptions::retry) re-enqueues transient failures under
  /// the same ticket and seed, so a retried success is bit-identical to
  /// what a fault-free run would have produced.
  int attempts = 1;
  int thread = -1;             ///< worker that ran it (informational)
  int inner_threads = 1;       ///< resolved inner-loop thread count
  int shard = -1;              ///< SizingJob::shard, echoed
  int shard_round = 0;         ///< SizingJob::shard_round, echoed
  /// True when the job ran with FP-reassociated delay folds
  /// (JobRunnerOptions::fast_math). Echoed into the batch JSON so emitted
  /// numbers are never silently non-reproducible.
  bool fast_math = false;
  ContextStats stats;          ///< per-job STA/flow instrumentation
  /// Per-pass instrumentation of the job's pipeline run (invocations, wall
  /// seconds, W-phase sweeps), in pipeline order.
  std::vector<PassStats> pass_stats;
};

}  // namespace mft
