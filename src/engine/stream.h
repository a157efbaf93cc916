// Engine layer, streaming execution: a StreamingRunner owns a persistent
// pool of worker threads fed by a deterministic priority/deadline
// scheduler queue — jobs are submitted while workers run, each submission
// returns a JobTicket, and results are collected by poll/wait (or a
// per-job completion callback).
//
// This is the request-serving face of the engine the batch JobRunner
// (runner.h) is a thin wrapper over:
//
//  - Submission. submit() assigns the next ticket, resolves the job's
//    deterministic seed from (base_seed, ticket) via splitmix64 when the
//    job doesn't carry one, and enqueues. Ticket order is submission
//    order; it never depends on which worker picks the job up, so any
//    caller that submits deterministically and consumes in ticket order
//    gets bit-reproducible results at any worker count (the batch
//    contract, kept — pinned by tests/stream_test.cc at 1/2/4 workers).
//    Callback-only consumers use submit_detached(), which hands the
//    result to the callback without retaining it — nothing accumulates
//    per job in a long-lived runner.
//  - Queue. SchedQueue is a priority/deadline scheduler with
//    condition-variable parking on both sides: producers never spin, idle
//    workers sleep, close() wakes everyone. Dispatch order is the
//    deterministic key (priority desc, effective deadline asc, ticket asc)
//    — all-default jobs reduce it to the FIFO the batch runner relies on,
//    and per-ticket seeds are resolved at submit, so scheduling order
//    never changes any job's bits, only when it runs.
//  - Shedding. With JobRunnerOptions::shed armed, a popped job whose
//    wall-clock deadline already passed while it sat in the queue is
//    failed immediately with kShed instead of burning worker time on a
//    result that cannot meet its deadline; jobs already running keep the
//    PR-6 best-so-far degradation contract. The shed decision reads the
//    runner's injectable clock, so tests drive it deterministically.
//  - Supervision. With JobRunnerOptions::hang_timeout armed, a watchdog
//    thread reads each worker's lock-free heartbeat slot (ticket + step
//    counter, ticked at the same checkpoints AbortToken uses). A stalled
//    worker first gets its job's token fired (a cooperative job cancels
//    within one checkpoint); a job that ignores the token through
//    hang_grace escalates to a structured kHung completion, the worker is
//    marked lost, and a replacement spawns — pool capacity never silently
//    shrinks. Off by default: no supervisor thread exists and nothing
//    about dispatch or results changes.
//  - Retry. JobRunnerOptions::retry re-enqueues jobs that failed with a
//    transient status (kWorkerDied, kInternal) under the same ticket and
//    seed, at once (util/retry.h), so a retried success is bit-identical
//    to a fault-free run; the attempt count is echoed into
//    JobResult::attempts.
//  - Context eviction. Each worker keeps a ContextPool — per-network
//    SizingContexts keyed by SizingNetwork::serial() under a shared LRU
//    policy (util/lru.h) bounded by JobRunnerOptions::context_cache_limit
//    (0 = unbounded, the batch-compatible default). Sharded reconciliation
//    rebuilds dirty shard networks every round, so a long-lived runner
//    sees a stream of short-lived serials; the bound is what keeps its
//    memory flat. Eviction never changes results — a context is pure
//    cache (tests/eviction_test.cc).
//  - Shutdown. shutdown(kDrain) stops accepting submissions, lets the
//    workers finish every queued job, and joins the pool; completed
//    results stay collectible by wait(). shutdown(kCancel) additionally
//    fails every not-yet-started job with ok == false ("canceled ..."),
//    firing its callback exactly once like any other completion. The
//    destructor drains. submit() after shutdown throws; wait() on a
//    never-issued or already-consumed ticket throws.
//
// Per-job dmin/min-area facts are resolved lazily on the worker through a
// NetInfoCache (serial-keyed, mutex-guarded, same LRU bound), shareable
// across runners so batch callers keep their cross-run() cache.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/job.h"
#include "util/abort.h"
#include "util/fault.h"
#include "util/lru.h"
#include "util/retry.h"

namespace mft {

struct JobRunnerOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency() (min 1).
  /// For the batch JobRunner the pool never exceeds the batch size. A
  /// StreamingRunner spawns exactly this many. Each job runs on one worker
  /// thread.
  int threads = 0;
  /// Per-worker context-pool and per-runner net-info cache bound: at most
  /// this many per-network SizingContexts are kept alive per worker (LRU
  /// eviction beyond it). 0 = unbounded — exactly the pre-eviction batch
  /// behavior. Long-lived streaming processes (and sharded reconciliation,
  /// whose rebuilt shard networks have fresh serials every round) should
  /// set a small bound.
  int context_cache_limit = 0;
  /// Overload shedding: when true, a job popped off the queue after its
  /// wall-clock deadline already passed is failed immediately with
  /// EngineStatus::kShed ("load shed") instead of being run — the deadline
  /// is measured from submission, so an expired deadline means no amount
  /// of worker time can produce a result the caller still wants. Off by
  /// default: the batch wrapper and deadline-free callers never shed, and
  /// an expired-but-unshed job keeps the PR-6 contract (it runs, trips its
  /// AbortToken at the first checkpoint, and degrades or fails with
  /// kDeadlineExpired). Shedding never touches a job already running.
  bool shed = false;
  /// Monotonic clock override, in seconds (only differences are
  /// meaningful). Null = steady_clock since runner construction. The
  /// scheduler's effective-deadline keys, the shed decision, and the
  /// queue-wait accounting all read this clock — a test installing a fake
  /// clock makes shed-vs-run decisions fully deterministic. AbortToken
  /// deadlines inside a running job still use the real clock.
  std::function<double()> clock;
  /// Worker watchdog: > 0 spawns a supervisor thread that watches every
  /// worker's heartbeat slot (ticket + beat counter, published lock-free;
  /// the beat advances at the same pass/sweep/bump checkpoints AbortToken
  /// uses). A worker stuck on one ticket with a silent heartbeat for
  /// hang_timeout seconds — on the runner's clock, so tests drive it with
  /// a fake — gets its job's AbortToken fired; if the job still hasn't
  /// honored the token after hang_grace more seconds, the supervisor
  /// escalates: the ticket completes with a structured kHung result
  /// (callback + wait() like any completion), the worker is marked lost,
  /// and a replacement worker is spawned so pool capacity never silently
  /// shrinks. 0 (default) = no supervisor thread at all — a pure
  /// observer-free configuration, bit-identical to the pre-watchdog
  /// engine. When armed, hang_timeout must exceed the longest interval
  /// between checkpoints (e.g. the min-sized STA of the largest network),
  /// or a slow-but-healthy job can be escalated.
  double hang_timeout = 0.0;
  /// Grace between firing a hung job's AbortToken and escalating to
  /// kHung. A cooperative job cancels within one checkpoint; only a job
  /// that ignores its token (a true hang) runs out the grace.
  double hang_grace = 0.05;
  /// Transient-failure retry policy (worker death, internal faults):
  /// failed jobs are re-enqueued at once under the same ticket and seed,
  /// up to retry.max_attempts total attempts. Default: off. See
  /// util/retry.h.
  RetryPolicy retry;
  /// Base of the deterministic per-job seed derivation.
  std::uint64_t base_seed = 0x9e3779b97f4a7c15ull;
  /// Batch-mode progress hook: called after each job completes with
  /// (result, completed, total). Serialized: at most one invocation runs
  /// at a time, but the calling thread varies and completion order is
  /// nondeterministic. Streaming callers use per-submit callbacks instead.
  std::function<void(const JobResult&, int completed, int total)> progress;
};

/// splitmix64 mix of (base, index): the deterministic per-job seed rule —
/// index is the job's batch position (JobRunner) or its ticket
/// (StreamingRunner), so seeds never depend on scheduling or arrival
/// interleaving.
std::uint64_t derive_job_seed(std::uint64_t base, std::uint64_t index);

/// Resolves a JobRunnerOptions::threads value to a concrete pool size.
int resolve_pool_threads(int requested);

// ---------------------------------------------------------------------------
// SchedQueue
// ---------------------------------------------------------------------------

/// Monotone per-runner job handle: the submission index. Issued by
/// submit(), redeemed exactly once by wait().
using JobTicket = std::uint64_t;

/// Deterministic dispatch key of one queued job. Ordering (sched_before):
/// higher priority first, then earlier effective deadline (absolute time
/// on the runner's clock; no deadline = +inf), then lower ticket. The
/// ticket tiebreak makes the order a total one that depends only on what
/// was submitted — never on worker count or pop timing — and reduces the
/// all-default case (priority 0, no deadlines) to exact FIFO.
struct SchedKey {
  int priority = 0;
  double deadline_at = std::numeric_limits<double>::infinity();
  JobTicket ticket = 0;
};

inline bool sched_before(const SchedKey& a, const SchedKey& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  if (a.deadline_at != b.deadline_at) return a.deadline_at < b.deadline_at;
  return a.ticket < b.ticket;
}

/// Unbounded priority/deadline multi-producer/multi-consumer scheduler
/// queue with condition-variable parking and explicit close semantics.
/// T must expose a public `SchedKey key` member; pop() always hands out
/// the best key currently queued (per sched_before).
///  - push() returns false (and drops the item) once closed;
///  - pop() blocks while open and empty, returns false only when the
///    queue is closed *and* drained — so consumers process every item
///    pushed before close();
///  - close_and_drain() closes and hands every still-queued item back to
///    the caller instead (the cancel path).
/// FIFO law, generalized: among items whose keys compare equal (same
/// priority and deadline — ticket ties are impossible, tickets are
/// unique), dispatch order is ticket order, i.e. submission order. A
/// stream of all-default submissions therefore behaves exactly like the
/// FIFO queue this replaced.
template <typename T>
class SchedQueue {
 public:
  bool push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      items_.insert(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;  // closed and drained
    out = std::move(items_.extract(items_.begin()).value());
    return true;
  }

  /// Non-blocking pop; false when currently empty (closed or not).
  bool try_pop(T& out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return false;
    out = std::move(items_.extract(items_.begin()).value());
    return true;
  }

  /// Removes and returns the best-ordered queued item matching `pred`;
  /// false when no queued item matches (it may be in flight or already
  /// done). The immediate-cancel path: a plucked job never reaches a
  /// worker.
  template <typename Pred>
  bool remove_one(Pred pred, T& out) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (pred(*it)) {
        out = std::move(items_.extract(it).value());
        return true;
      }
    }
    return false;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Closes and returns every still-queued item in dispatch order.
  std::vector<T> close_and_drain() {
    std::vector<T> leftover;
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      leftover.reserve(items_.size());
      while (!items_.empty())
        leftover.push_back(std::move(items_.extract(items_.begin()).value()));
    }
    cv_.notify_all();
    return leftover;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  struct Before {
    bool operator()(const T& a, const T& b) const {
      return sched_before(a.key, b.key);
    }
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// multiset keeps equivalent keys in insertion order, which is what
  /// makes the FIFO law hold without encoding the ticket twice.
  std::multiset<T, Before> items_;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// NetInfoCache / ContextPool
// ---------------------------------------------------------------------------

/// Per-network facts every job on that network shares: minimum-sized
/// delay and area.
struct NetInfo {
  double dmin = 0.0;
  double min_area = 0.0;
};

/// Thread-safe serial-keyed NetInfo cache with the shared LRU bound. A
/// miss computes outside the lock (one full min-sized STA), so concurrent
/// workers on distinct networks never serialize on each other's STA; two
/// workers racing on the *same* fresh serial may both compute, landing on
/// the identical value (the computation is a pure function of the
/// network), which keeps results deterministic under any interleaving —
/// and deterministic under eviction-forced recomputation for the same
/// reason.
class NetInfoCache {
 public:
  explicit NetInfoCache(int capacity = 0) : cache_(capacity) {}

  void set_capacity(int capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.set_capacity(capacity);
  }

  NetInfo get_or_compute(const SizingNetwork& net);

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }
  std::int64_t evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.evictions();
  }

 private:
  mutable std::mutex mu_;
  LruCache<std::uint64_t, NetInfo> cache_;
};

/// One worker's SizingContext pool: get-or-create keyed by
/// SizingNetwork::serial(), LRU-bounded. Single-threaded (one pool per
/// worker, like the contexts it owns). The context just acquired is
/// most-recently-used and therefore never the eviction victim, so the
/// reference stays valid until the worker's next acquire.
class ContextPool {
 public:
  explicit ContextPool(int capacity = 0) : cache_(capacity) {}

  SizingContext& acquire(const SizingNetwork& net) {
    MFT_FAULT_POINT("stream.context");
    if (std::unique_ptr<SizingContext>* hit = cache_.find(net.serial())) {
      ++hits_;
      return **hit;
    }
    ++misses_;
    std::unique_ptr<SizingContext>& slot =
        cache_.insert(net.serial(), std::make_unique<SizingContext>(net));
    if (cache_.size() > peak_) peak_ = cache_.size();
    return *slot;
  }

  std::size_t size() const { return cache_.size(); }
  std::size_t peak_size() const { return peak_; }
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  std::int64_t evictions() const { return cache_.evictions(); }

 private:
  LruCache<std::uint64_t, std::unique_ptr<SizingContext>> cache_;
  std::size_t peak_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

// ---------------------------------------------------------------------------
// StreamingRunner
// ---------------------------------------------------------------------------

/// Aggregate runner instrumentation. Counters and queue/latency totals are
/// live at any time; the context_* fields are complete only after
/// shutdown() (workers publish their pool's counters when they exit);
/// context_peak_per_worker is the largest pool any single worker grew.
struct StreamStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t canceled = 0;  ///< completions with status kCanceled
  std::uint64_t degraded = 0;  ///< completions with the degraded flag
  std::uint64_t shed = 0;      ///< completions with status kShed
  std::size_t ready = 0;  ///< completed results retained, not yet consumed
  std::size_t queue_depth = 0;  ///< jobs queued, not yet dispatched (now)
  std::size_t queue_peak = 0;   ///< high-water mark of queue_depth
  /// Total seconds jobs spent waiting between submit and dispatch (on the
  /// runner's clock), summed over completed jobs; divide by completed for
  /// the mean wait. Canceled-before-start and shed jobs count their full
  /// wait too — theirs ended at the pluck/shed decision.
  double queue_wait_seconds = 0.0;
  /// Total seconds workers spent executing jobs (sum of per-job
  /// wall_seconds); run/wait together split every ticket's latency.
  double run_seconds = 0.0;
  /// Transient failures re-enqueued by the retry policy (one per extra
  /// attempt, across all jobs).
  std::uint64_t retries = 0;
  /// Watchdog interventions: tokens fired on stalled workers, jobs
  /// escalated to kHung, and replacement workers spawned. All zero
  /// whenever the watchdog is disabled or never needed to act.
  std::uint64_t hang_cancels = 0;
  std::uint64_t hangs = 0;
  std::uint64_t respawns = 0;
  /// Oldest heartbeat silence the watchdog ever observed on a busy worker
  /// (seconds on the runner's clock); 0 without a watchdog.
  double heartbeat_age_peak = 0.0;
  std::size_t context_peak_per_worker = 0;
  std::int64_t context_hits = 0;
  std::int64_t context_misses = 0;
  std::int64_t context_evictions = 0;
};

class StreamingRunner {
 public:
  enum class ShutdownMode {
    kDrain,   ///< finish every queued job, then stop
    kCancel,  ///< fail queued-but-unstarted jobs with ok == false
  };

  /// Spawns the worker pool immediately. `shared_info` (optional, not
  /// owned, must outlive the runner) lets a caller share one dmin/min-area
  /// cache across runners — the batch JobRunner passes its own so repeat
  /// batches over the same frozen networks keep hitting across run()
  /// calls.
  explicit StreamingRunner(JobRunnerOptions opt = {},
                           NetInfoCache* shared_info = nullptr);
  ~StreamingRunner();  ///< shutdown(kDrain)

  StreamingRunner(const StreamingRunner&) = delete;
  StreamingRunner& operator=(const StreamingRunner&) = delete;

  int threads() const { return threads_; }

  /// Enqueues one job against `net` (frozen, caller-owned, must stay
  /// alive and unchanged until the job completes). Returns the job's
  /// ticket. If job.seed == 0 the seed is resolved to
  /// derive_job_seed(base_seed, ticket) *now*, so results never depend on
  /// when workers pick the job up. `on_complete`, if given, fires exactly
  /// once from a worker (serialized with every other completion callback)
  /// right before the result becomes collectible — it must not call
  /// wait() on its own ticket. `info`, if given, supplies the network's
  /// precomputed dmin/min-area facts (the batch wrapper prefetches them so
  /// job wall times never include the min-sized STA); otherwise the
  /// executing worker resolves them through the NetInfoCache. Throws
  /// std::runtime_error after shutdown.
  JobTicket submit(const SizingNetwork& net, SizingJob job,
                   std::function<void(const JobResult&)> on_complete = {},
                   const NetInfo* info = nullptr);

  /// Like submit(), but the result is delivered to `on_complete`
  /// (required) and never retained: poll() stays false, wait() on the
  /// ticket throws as already-consumed, and nothing accumulates in the
  /// runner — the flat-memory mode for long-lived callback-driven
  /// consumers that never redeem tickets.
  JobTicket submit_detached(const SizingNetwork& net, SizingJob job,
                            std::function<void(const JobResult&)> on_complete);

  /// Cancels one submitted job. A job still queued is failed immediately
  /// (status kCanceled, callback fired like any completion, result
  /// collectible by wait()); a job already running is interrupted
  /// cooperatively at its next pass/sweep/bump checkpoint and completes
  /// shortly after with status kCanceled — cancel() itself never blocks on
  /// it. Returns false when the job already completed (cancellation lost
  /// the race; the existing result stands). Throws std::runtime_error for
  /// a never-issued ticket.
  bool cancel(JobTicket t);

  /// True iff the ticket's result is ready and not yet consumed.
  bool poll(JobTicket t) const;

  /// Blocks until the ticket's job completes and moves the result out
  /// (each ticket is redeemable once). Canceled jobs return normally with
  /// ok == false. Throws std::runtime_error for a never-issued or
  /// already-consumed ticket. Safe to call after shutdown for any
  /// unconsumed completed ticket.
  JobResult wait(JobTicket t);

  /// Blocks until every submitted job has completed (results remain
  /// collectible afterwards).
  void wait_all();

  /// Idempotent; see ShutdownMode. Joins the worker pool before
  /// returning.
  void shutdown(ShutdownMode mode = ShutdownMode::kDrain);
  bool is_shutdown() const;

  /// Jobs submitted / completed so far (completed includes canceled).
  StreamStats stats() const;

 private:
  struct Item {
    /// Dispatch key: (job.priority, submit_at + deadline_seconds, ticket).
    /// Fixed at submit; the queue orders by it.
    SchedKey key;
    JobTicket ticket = 0;
    const SizingNetwork* net = nullptr;
    SizingJob job;
    std::function<void(const JobResult&)> on_complete;
    NetInfo info;           ///< meaningful iff has_info
    bool has_info = false;  ///< caller prefetched the network facts
    bool retain = true;     ///< false: callback-only, result never stored
    double submit_at = 0.0;  ///< runner-clock time of submission
    /// Per-job abort/budget token, created at submit (deadline measured
    /// from there). Shared with tokens_ so cancel() reaches a job already
    /// handed to a worker.
    std::shared_ptr<AbortToken> token;
    /// Retry state: which attempt this dispatch is (1-based).
    int attempt = 1;
  };

  /// One worker's lock-free heartbeat slot, read by the watchdog.
  /// `busy` holds ticket + 1 while a job occupies the worker (0 = idle);
  /// `beat` advances at every AbortToken checkpoint of the running job.
  /// `lost` tells a worker the watchdog already escalated its current job
  /// and replaced it — it must exit instead of popping more work. Slots
  /// are heap-allocated and never destroyed before the runner, so a
  /// worker unstuck long after escalation still writes somewhere valid.
  struct WorkerSlot {
    std::atomic<std::uint64_t> busy{0};
    std::atomic<std::int64_t> beat{0};
    std::atomic<bool> lost{false};
  };

  /// Completion-relevant snapshot of an in-flight job, registered at
  /// dispatch (guarded by mu_) so the watchdog can finish a ticket it
  /// escalates without touching the stuck worker's stack.
  struct Inflight {
    std::string label;
    std::uint64_t seed = 0;
    int priority = 0;
    int shard = -1;
    int shard_round = 0;
    double submit_at = 0.0;
    double queue_seconds = 0.0;
    int attempt = 1;
    bool retain = true;
    std::function<void(const JobResult&)> on_complete;
  };

  JobTicket submit_item(const SizingNetwork& net, SizingJob job,
                        std::function<void(const JobResult&)> on_complete,
                        const NetInfo* info, bool retain);
  void worker_main(int worker_id, WorkerSlot* slot);
  void finish(Item& item, JobResult out);
  /// Completes `ticket` exactly once, in two halves. claim() takes it
  /// under mu_ (false when the ticket was already finished or its
  /// completion is underway — e.g. the watchdog and a late worker
  /// racing); publish() then fires the callback and publishes counters +
  /// the retained result. Every completion path funnels through both.
  bool claim(JobTicket ticket);
  void publish(JobTicket ticket, bool retain,
               const std::function<void(const JobResult&)>& on_complete,
               JobResult out);
  /// Retry gate for a worker-produced outcome: re-enqueues a transient
  /// failure with attempts remaining (returns true — the ticket is NOT
  /// finished) or lets the caller finish it (false).
  bool maybe_retry(Item& item, const JobResult& out);
  /// JobResult skeleton for a job failed without running (pluck-cancel,
  /// shutdown-cancel, shed): echoes identity fields, stamps the queue wait
  /// as of `now`, and carries the structured status + message.
  JobResult stub_result(const Item& item, EngineStatus status,
                        const std::string& error, double now) const;
  /// Appends a worker (thread + heartbeat slot); workers_mu_ held.
  void spawn_worker_locked();
  void watchdog_main();
  void watchdog_scan();

  /// Watchdog-thread-private tracking of one worker slot: the (ticket,
  /// beat) pair last observed, when that pair was first seen, and when the
  /// token was fired (< 0 = not yet).
  struct WatchTrack {
    std::uint64_t busy = 0;
    std::int64_t beat = 0;
    double since = 0.0;
    double canceled_at = -1.0;
  };

  JobRunnerOptions opt_;
  int threads_ = 1;
  std::function<double()> now_;  ///< runner clock: opt.clock or steady
  NetInfoCache own_info_;
  NetInfoCache* info_ = nullptr;

  SchedQueue<Item> queue_;
  /// Worker threads and their heartbeat slots. Guarded by workers_mu_:
  /// the watchdog appends replacements while the pool runs, and shutdown
  /// joins until the vector stays empty. Slots are never erased — a lost
  /// worker's slot outlives its escalation.
  std::mutex workers_mu_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  int next_worker_id_ = 0;

  mutable std::mutex mu_;  ///< tickets, results, outstanding, shutdown flag
  std::condition_variable done_cv_;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t canceled_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t hang_cancels_ = 0;
  std::uint64_t hangs_ = 0;
  std::uint64_t respawns_ = 0;
  double heartbeat_age_peak_ = 0.0;
  std::size_t queue_peak_ = 0;
  double queue_wait_seconds_ = 0.0;
  double run_seconds_ = 0.0;
  std::unordered_map<JobTicket, JobResult> ready_;
  std::unordered_set<JobTicket> outstanding_;
  /// Abort token of every not-yet-completed job, for cancel(); erased by
  /// publish(). Guarded by mu_.
  std::unordered_map<JobTicket, std::shared_ptr<AbortToken>> tokens_;
  /// Tickets whose completion is underway (taken by claim(), erased by
  /// publish()): makes worker-vs-watchdog completion races resolve to
  /// exactly one delivery. Guarded by mu_.
  std::unordered_set<JobTicket> claimed_;
  /// Dispatch snapshots of running jobs, keyed by ticket (see Inflight).
  /// Guarded by mu_.
  std::unordered_map<JobTicket, Inflight> inflight_;
  bool shutdown_ = false;

  /// Watchdog thread state (spawned only when opt_.hang_timeout > 0).
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::unordered_map<WorkerSlot*, WatchTrack> watch_;  ///< watchdog-only

  std::mutex shutdown_mu_;  ///< serializes shutdown()/destructor
  std::mutex callback_mu_;  ///< serializes completion callbacks
  mutable std::mutex stats_mu_;  ///< workers publish pool stats at exit
  StreamStats pool_stats_;  ///< context_* fields, guarded by stats_mu_
};

}  // namespace mft
