// Engine layer, batch execution: a JobRunner executes a batch of
// independent SizingJobs over a shared read-only network table.
//
// Since the streaming engine landed (engine/stream.h), run() is a thin
// submit-all/wait-all wrapper over a StreamingRunner: jobs are submitted
// in index order (which makes ticket order == job order) and results are
// consumed in ticket order into a preallocated vector. The batch
// contracts are unchanged and still pinned by tests/engine_test.cc:
//
//  - Load balancing: the scheduler queue hands each worker the next
//    unstarted
//    job, so the batch load-balances regardless of per-job cost skew (a
//    c6288 job next to a c17 job is fine).
//  - Context reuse: every worker keeps a ContextPool — one SizingContext
//    per network it has touched, re-entered across jobs (begin_job()
//    resets per-job instrumentation; the cached LP/flow/STA state is the
//    point of the reuse), LRU-bounded by
//    JobRunnerOptions::context_cache_limit (0 = unbounded, the historic
//    batch behavior).
//  - Determinism: results are collected *ordered by job index*, and each
//    job's seed derives deterministically from the base seed and the job
//    index — never from the runner's ticket counter, so repeat run()
//    calls over the same jobs stay bit-identical too. A batch is
//    bit-reproducible at any thread count.
//  - Pool size: min(JobRunnerOptions::threads, batch size) workers, one
//    job per worker at a time.
//  - An optional progress callback fires after every job completion,
//    serialized under a mutex.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/stream.h"

namespace mft {

struct BatchResult {
  std::vector<JobResult> results;  ///< results[i] is jobs[i]'s outcome
  int threads_used = 0;
  double wall_seconds = 0.0;      ///< whole batch, end to end
  double jobs_per_second = 0.0;   ///< batch throughput
};

class JobRunner {
 public:
  explicit JobRunner(JobRunnerOptions opt = {});

  /// The pool size run() will use for a batch of at least that many jobs.
  int threads() const { return threads_; }

  /// Executes the batch. `networks` is the table jobs index into; every
  /// entry must be non-null, frozen, and unchanged for the duration of the
  /// call. A job that throws (infeasible configuration, bad network index
  /// caught up front) yields ok == false with the error message — it never
  /// takes down the batch.
  BatchResult run(const std::vector<const SizingNetwork*>& networks,
                  const std::vector<SizingJob>& jobs) const;

  /// Entries currently held by the per-network Dmin/min-area cache. The
  /// cache persists across run() calls keyed by SizingNetwork::serial(),
  /// so callers that submit many batches over the *same frozen networks* —
  /// lock-step calibration, repeated sweeps — don't pay a full STA per
  /// network per batch, and is LRU-bounded by
  /// JobRunnerOptions::context_cache_limit so workloads that freeze
  /// unbounded networks (streaming, sharded reconciliation) don't leak
  /// entries. (Exposed for the eviction property tests.)
  std::size_t info_cache_size() const { return info_cache_.size(); }
  std::int64_t info_cache_evictions() const {
    return info_cache_.evictions();
  }

 private:
  JobRunnerOptions opt_;
  int threads_ = 1;
  mutable NetInfoCache info_cache_;
};

/// Writes a batch to `path` as a JSON object ({"threads", "wall_seconds",
/// "jobs_per_second", "jobs": [...]}) for cross-PR perf diffing, in the
/// same spirit as the BENCH_*.json files. Returns false on I/O failure.
bool write_batch_json(const std::string& path, const BatchResult& batch);

}  // namespace mft
