#include "engine/stream.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <utility>

#include "sizing/pass.h"
#include "sizing/tilos.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace mft {

std::uint64_t derive_job_seed(std::uint64_t base, std::uint64_t index) {
  // splitmix64: the standard 64-bit mix used to derive independent
  // per-job seeds from (base, index) without correlation between
  // neighbors.
  std::uint64_t z = base + (index + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int resolve_pool_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int env_inner_threads() {
  if (const char* env = std::getenv("MFT_INNER_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    MFT_CHECK_MSG(end != env && *end == '\0' && v >= 0,
                  "bad MFT_INNER_THREADS value '" << env << "'");
    if (v > 0) return static_cast<int>(v);
  }
  return 0;
}

namespace {

/// One job, start to finish, on the worker's context. Any exception
/// (infeasible configuration, a failed MFT_CHECK) is captured into
/// out.error/out.status — a job never takes down the runner. The job's
/// seed must already be resolved (submit/run do that deterministically).
void execute_job(const SizingJob& job, JobTicket ticket, double dmin,
                 double min_area, SizingContext& ctx, ThreadArena* arena,
                 AbortToken* token, bool fast_math, JobResult& out) {
  out.job = static_cast<int>(ticket);
  out.label = job.label;
  out.dmin = dmin;
  out.min_area = min_area;
  out.target =
      job.target_delay > 0.0 ? job.target_delay : job.target_ratio * dmin;
  out.seed = job.seed;
  out.priority = job.priority;
  out.inner_threads = arena != nullptr ? arena->threads() : 1;
  out.shard = job.shard;
  out.shard_round = job.shard_round;
  out.fast_math = fast_math;
  Stopwatch sw;
  try {
    MFT_FAULT_POINT("stream.execute");
    ctx.begin_job();
    ctx.set_arena(arena);
    ctx.set_abort(token);
    // Per-job, not sticky: a pooled context's previous job may have run in
    // the other delay mode; the scratches force a full recompute on a flip.
    ctx.set_fast_math(fast_math);
    // Thread the resolved per-job seed into the pipeline so a stochastic
    // pass (none in the default pipeline) is reproducible at any thread
    // count. Running the pipeline directly (instead of through the
    // run_minflotransit wrapper) surfaces the per-pass stats into the
    // result and the batch JSON.
    MinflotransitOptions options = job.options;
    options.seed = out.seed;
    const Pipeline pipeline = make_minflotransit_pipeline(options);
    PipelineResult pr = pipeline.run(ctx, out.target, options.seed);
    out.result = to_minflotransit_result(ctx, pr);
    out.result.total_seconds = pr.total_seconds;
    out.pass_stats = std::move(pr.pass_stats);
    out.stats = ctx.stats();
    switch (pr.state.abort_status) {
      case EngineStatus::kOk:
        out.ok = true;
        break;
      case EngineStatus::kCanceled:
        out.status = EngineStatus::kCanceled;
        out.error = "canceled";
        break;
      default:
        // A budget tripped (deadline or step cap). The refinement loop
        // improves monotonically from the TILOS seed, so whenever the
        // target was ever met, best_sizes is a feasible solution worth
        // returning: ok with the degraded flag. Before that point there
        // is nothing feasible to degrade to.
        out.status = pr.state.abort_status;
        if (pr.state.met_target) {
          out.ok = true;
          out.degraded = true;
        } else {
          out.error = std::string(to_string(out.status)) +
                      " before a feasible iterate was found";
        }
        break;
    }
  } catch (const EngineError& e) {
    out.error = e.what();
    out.status = e.status();
  } catch (const std::exception& e) {
    out.error = e.what();
    out.status = EngineStatus::kInternal;
  }
  // The context is pooled and outlives this job; never leave it pointing
  // at a token about to be destroyed.
  ctx.set_abort(nullptr);
  out.wall_seconds = sw.seconds();
}

}  // namespace

NetInfo NetInfoCache::get_or_compute(const SizingNetwork& net) {
  const std::uint64_t serial = net.serial();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const NetInfo* hit = cache_.find(serial)) return *hit;
  }
  NetInfo info;
  info.dmin = min_sized_delay(net);
  info.min_area = net.area(net.min_sizes());
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.insert(serial, info);
}

// ---------------------------------------------------------------------------
// StreamingRunner
// ---------------------------------------------------------------------------

StreamingRunner::StreamingRunner(JobRunnerOptions opt,
                                 NetInfoCache* shared_info)
    : opt_(std::move(opt)),
      own_info_(opt_.context_cache_limit),
      info_(shared_info != nullptr ? shared_info : &own_info_) {
  if (opt_.clock) {
    now_ = opt_.clock;
  } else {
    // Default runner clock: seconds since construction on steady_clock.
    // Only differences are used, so the epoch is irrelevant.
    auto epoch = std::make_shared<Stopwatch>();
    now_ = [epoch] { return epoch->seconds(); };
  }
  threads_ = resolve_pool_threads(opt_.threads);
  default_inner_ = opt_.inner_threads > 0 ? opt_.inner_threads
                                          : std::max(1, env_inner_threads());
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers_.reserve(static_cast<std::size_t>(threads_));
    slots_.reserve(static_cast<std::size_t>(threads_));
    for (int w = 0; w < threads_; ++w) spawn_worker_locked();
  }
  // The watchdog is opt-in: without a hang_timeout there is no supervisor
  // thread at all, and the runner is byte-for-byte the pre-watchdog engine.
  if (opt_.hang_timeout > 0)
    watchdog_ = std::thread([this] { watchdog_main(); });
}

void StreamingRunner::spawn_worker_locked() {
  slots_.push_back(std::make_unique<WorkerSlot>());
  WorkerSlot* slot = slots_.back().get();
  const int id = next_worker_id_++;
  workers_.emplace_back([this, id, slot] { worker_main(id, slot); });
}

StreamingRunner::~StreamingRunner() { shutdown(ShutdownMode::kDrain); }

JobTicket StreamingRunner::submit(
    const SizingNetwork& net, SizingJob job,
    std::function<void(const JobResult&)> on_complete, const NetInfo* info) {
  return submit_item(net, std::move(job), std::move(on_complete), info,
                     /*retain=*/true);
}

JobTicket StreamingRunner::submit_detached(
    const SizingNetwork& net, SizingJob job,
    std::function<void(const JobResult&)> on_complete) {
  MFT_CHECK_MSG(on_complete != nullptr,
                "submit_detached needs a completion callback — a detached "
                "result is delivered nowhere else");
  return submit_item(net, std::move(job), std::move(on_complete), nullptr,
                     /*retain=*/false);
}

JobTicket StreamingRunner::submit_item(
    const SizingNetwork& net, SizingJob job,
    std::function<void(const JobResult&)> on_complete, const NetInfo* info,
    bool retain) {
  MFT_CHECK(net.frozen());
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_)
    throw std::runtime_error("StreamingRunner::submit after shutdown");
  Item item;
  item.ticket = next_ticket_++;
  item.net = &net;
  item.job = std::move(job);
  if (item.job.seed == 0)
    item.job.seed = derive_job_seed(opt_.base_seed, item.ticket);
  item.on_complete = std::move(on_complete);
  if (info != nullptr) {
    item.info = *info;
    item.has_info = true;
  }
  item.retain = retain;
  // The token is born (and any deadline starts ticking) at submission, so
  // queue time counts against the deadline — the service-level meaning.
  item.token = std::make_shared<AbortToken>();
  if (item.job.deadline_seconds > 0)
    item.token->arm_deadline(item.job.deadline_seconds);
  if (item.job.max_steps > 0) item.token->arm_steps(item.job.max_steps);
  // Dispatch key, fixed at submission: the effective deadline is absolute
  // on the runner's clock (no deadline = +inf sorts last among equal
  // priorities before the ticket tiebreak), so the scheduler and the shed
  // decision agree on one instant per job.
  item.submit_at = now_();
  item.key.priority = item.job.priority;
  item.key.ticket = item.ticket;
  if (item.job.deadline_seconds > 0)
    item.key.deadline_at = item.submit_at + item.job.deadline_seconds;
  tokens_.emplace(item.ticket, item.token);
  outstanding_.insert(item.ticket);
  const JobTicket t = item.ticket;
  // Pushed under mu_ so queue order == ticket order even with concurrent
  // submitters, and so a racing shutdown() can never close the queue
  // between the shutdown_ check and the push. (mu_ -> queue mutex is the
  // one nesting order used anywhere; the queue never calls back out.)
  const bool pushed = queue_.push(std::move(item));
  MFT_CHECK(pushed);
  const std::size_t depth = queue_.size();
  if (depth > queue_peak_) queue_peak_ = depth;
  return t;
}

bool StreamingRunner::cancel(JobTicket t) {
  std::shared_ptr<AbortToken> token;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (t >= next_ticket_)
      throw std::runtime_error(
          "StreamingRunner::cancel on a never-issued ticket");
    if (outstanding_.count(t) == 0) return false;  // already completed
    auto it = tokens_.find(t);
    if (it != tokens_.end()) token = it->second;
  }
  // Still queued? Pluck it so it never reaches a worker and fail it now
  // (callback + collectible result, like any completion).
  Item item;
  if (queue_.remove_one([t](const Item& i) { return i.ticket == t; }, item)) {
    finish(item, stub_result(item, EngineStatus::kCanceled,
                             "canceled before start", now_()));
    return true;
  }
  // In flight (or racing into a worker's hands): interrupt cooperatively.
  // The worker observes the flag at its next checkpoint — or before it
  // starts, if the job was between queue and execute.
  if (token != nullptr) token->request_cancel();
  return true;
}

bool StreamingRunner::poll(JobTicket t) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ready_.count(t) > 0;
}

JobResult StreamingRunner::wait(JobTicket t) {
  std::unique_lock<std::mutex> lock(mu_);
  if (t >= next_ticket_)
    throw std::runtime_error("StreamingRunner::wait on a never-issued ticket");
  done_cv_.wait(lock, [&] {
    return ready_.count(t) > 0 || outstanding_.count(t) == 0;
  });
  auto it = ready_.find(t);
  if (it == ready_.end())
    throw std::runtime_error(
        "StreamingRunner::wait on an already-consumed ticket");
  JobResult out = std::move(it->second);
  ready_.erase(it);
  return out;
}

void StreamingRunner::wait_all() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return outstanding_.empty(); });
}

void StreamingRunner::shutdown(ShutdownMode mode) {
  // Serializes concurrent shutdown() calls (and the destructor): exactly
  // one caller drains/cancels and joins; later callers see the pool
  // already gone and return.
  std::lock_guard<std::mutex> sd(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  // Stop the watchdog before joining workers so no replacement appears
  // mid-join. Supervision during drain would be moot anyway: a worker
  // that truly never returns blocks the join below regardless — the
  // process-level answer to that is the daemon journal (kill + replay).
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
  std::vector<std::thread> pool;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    pool.swap(workers_);
  }
  if (pool.empty()) return;
  if (mode == ShutdownMode::kCancel) {
    std::vector<Item> leftover = queue_.close_and_drain();
    for (Item& item : leftover) {
      finish(item, stub_result(item, EngineStatus::kCanceled,
                               "canceled by StreamingRunner shutdown", now_()));
    }
  } else {
    queue_.close();
  }
  // In-flight jobs (already popped) always run to completion; with kDrain
  // the workers also finish everything still queued.
  for (std::thread& th : pool) th.join();
}

bool StreamingRunner::is_shutdown() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

StreamStats StreamingRunner::stats() const {
  StreamStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = pool_stats_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  s.submitted = next_ticket_;
  s.completed = completed_;
  s.canceled = canceled_;
  s.degraded = degraded_;
  s.shed = shed_;
  s.ready = ready_.size();
  s.queue_depth = queue_.size();
  s.queue_peak = queue_peak_;
  s.queue_wait_seconds = queue_wait_seconds_;
  s.run_seconds = run_seconds_;
  s.retries = retries_;
  s.hang_cancels = hang_cancels_;
  s.hangs = hangs_;
  s.respawns = respawns_;
  s.heartbeat_age_peak = heartbeat_age_peak_;
  return s;
}

JobResult StreamingRunner::stub_result(const Item& item, EngineStatus status,
                                       const std::string& error,
                                       double now) const {
  JobResult out;
  out.job = static_cast<int>(item.ticket);
  out.label = item.job.label;
  out.seed = item.job.seed;
  out.priority = item.job.priority;
  out.shard = item.job.shard;
  out.shard_round = item.job.shard_round;
  out.queue_seconds = now - item.submit_at;
  out.attempts = item.attempt;
  out.ok = false;
  out.status = status;
  out.error = error;
  return out;
}

void StreamingRunner::finish(Item& item, JobResult out) {
  deliver(item.ticket, item.retain, item.on_complete, std::move(out));
}

bool StreamingRunner::deliver(
    JobTicket ticket, bool retain,
    const std::function<void(const JobResult&)>& on_complete, JobResult out) {
  {
    // Claim the ticket: the watchdog escalating a hung job and the worker
    // it un-sticks later both funnel through here, and exactly one of
    // them wins — the loser's result is dropped silently.
    std::lock_guard<std::mutex> lock(mu_);
    if (outstanding_.count(ticket) == 0) return false;  // already completed
    if (!claimed_.insert(ticket).second) return false;  // delivery underway
  }
  if (on_complete) {
    // Callbacks are serialized with each other (like the batch progress
    // hook) and fire before the result becomes collectible, so a
    // callback observes its job exactly once and no wait() can consume
    // the result mid-callback.
    std::lock_guard<std::mutex> cb(callback_mu_);
    on_complete(out);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    claimed_.erase(ticket);
    outstanding_.erase(ticket);
    tokens_.erase(ticket);
    inflight_.erase(ticket);
    if (out.status == EngineStatus::kCanceled) ++canceled_;
    if (out.status == EngineStatus::kShed) ++shed_;
    if (out.degraded) ++degraded_;
    queue_wait_seconds_ += out.queue_seconds;
    run_seconds_ += out.wall_seconds;
    // Detached jobs never park a result: the callback above was their
    // delivery, so a long-lived callback-driven runner stays flat.
    if (retain) ready_.emplace(ticket, std::move(out));
    ++completed_;
  }
  done_cv_.notify_all();
  return true;
}

bool StreamingRunner::maybe_retry(Item& item, const JobResult& out) {
  if (out.ok || !retryable_status(out.status)) return false;
  if (item.attempt >= opt_.retry.max_attempts) return false;
  {
    // A ticket someone else already completed (watchdog escalation racing
    // an un-stuck worker) must not re-enter the queue.
    std::lock_guard<std::mutex> lock(mu_);
    if (outstanding_.count(item.ticket) == 0 || claimed_.count(item.ticket))
      return false;
  }
  Item again = item;  // same ticket, same seed: a retried success is
                      // bit-identical to a fault-free run
  again.attempt += 1;
  if (!queue_.push(std::move(again)))
    return false;  // shutdown closed the queue: the failure stands
  std::lock_guard<std::mutex> lock(mu_);
  inflight_.erase(item.ticket);
  ++retries_;
  return true;
}

void StreamingRunner::worker_main(int worker_id, WorkerSlot* slot) {
  // One inner-loop arena per worker, rebuilt only when the assigned width
  // changes; declared before the pool so it outlives the pooled contexts
  // that point at it (locals destroy in reverse order).
  std::unique_ptr<ThreadArena> arena;
  ContextPool pool(opt_.context_cache_limit);
  Item item;
  // A lost worker — its current job escalated to kHung and a replacement
  // spawned — exits as soon as whatever had it stuck returns.
  while (!slot->lost.load(std::memory_order_acquire) && queue_.pop(item)) {
    // Everything between pop and finish is fenced: an exception outside
    // the job body (net-info STA, context acquisition, arena creation, an
    // armed fault site) becomes a structured kWorkerDied result instead of
    // killing the thread — poll()/wait() on the ticket always complete.
    try {
      MFT_FAULT_POINT("stream.worker");
      const double dispatched_at = now_();
      // Overload shedding: the deadline already passed while the job sat
      // queued, so running it cannot produce a result the caller still
      // wants — fail it now on the runner's clock, before the AbortToken
      // check, so an armed shed wins over the token's real-clock
      // kDeadlineExpired and stays deterministic under a fake clock.
      if (opt_.shed && dispatched_at > item.key.deadline_at) {
        JobResult out = stub_result(item, EngineStatus::kShed,
                                    "shed: deadline expired before dispatch",
                                    dispatched_at);
        out.thread = worker_id;
        finish(item, std::move(out));
        item = Item{};
        continue;
      }
      // Canceled (or deadline-expired) before starting: fail without
      // running. step() is safe here — the worker owns the token now.
      if (item.token != nullptr && item.token->step()) {
        const EngineStatus st = item.token->tripped();
        JobResult out =
            stub_result(item, st, std::string(to_string(st)) + " before start",
                        dispatched_at);
        out.thread = worker_id;
        finish(item, std::move(out));
        item = Item{};
        continue;
      }
      // Publish the heartbeat before the (potentially long) net-info STA:
      // busy = ticket + 1 marks the worker occupied, and the job's token
      // ticks the beat counter at every pass/sweep/bump checkpoint from
      // here on. The watchdog reads (busy, beat) lock-free; a stalled pair
      // past hang_timeout is what triggers supervision.
      MFT_FAULT_POINT("stream.heartbeat");
      {
        std::lock_guard<std::mutex> lock(mu_);
        Inflight& inf = inflight_[item.ticket];
        inf.label = item.job.label;
        inf.seed = item.job.seed;
        inf.priority = item.job.priority;
        inf.shard = item.job.shard;
        inf.shard_round = item.job.shard_round;
        inf.submit_at = item.submit_at;
        inf.queue_seconds = dispatched_at - item.submit_at;
        inf.attempt = item.attempt;
        inf.retain = item.retain;
        inf.on_complete = item.on_complete;
      }
      if (item.token != nullptr) item.token->attach_heartbeat(&slot->beat);
      slot->beat.fetch_add(1, std::memory_order_relaxed);
      slot->busy.store(item.ticket + 1, std::memory_order_release);
      const NetInfo info =
          item.has_info ? item.info : info_->get_or_compute(*item.net);
      const int inner =
          item.job.inner_threads > 0 ? item.job.inner_threads : default_inner_;
      if (inner > 1 && (!arena || arena->threads() != inner))
        arena = std::make_unique<ThreadArena>(inner);
      JobResult out;
      execute_job(item.job, item.ticket, info.dmin, info.min_area,
                  pool.acquire(*item.net), inner > 1 ? arena.get() : nullptr,
                  item.token.get(), opt_.fast_math, out);
      slot->busy.store(0, std::memory_order_release);
      if (item.token != nullptr) item.token->attach_heartbeat(nullptr);
      out.thread = worker_id;
      out.queue_seconds = dispatched_at - item.submit_at;
      out.attempts = item.attempt;
      if (!maybe_retry(item, out)) finish(item, std::move(out));
    } catch (const std::exception& e) {
      slot->busy.store(0, std::memory_order_release);
      if (item.token != nullptr) item.token->attach_heartbeat(nullptr);
      JobResult out = stub_result(
          item, EngineStatus::kWorkerDied,
          std::string("worker died outside the job body: ") + e.what(), now_());
      out.thread = worker_id;
      if (!maybe_retry(item, out)) finish(item, std::move(out));
    }
    item = Item{};  // drop the callback/job before parking on the queue
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (pool.peak_size() > pool_stats_.context_peak_per_worker)
    pool_stats_.context_peak_per_worker = pool.peak_size();
  pool_stats_.context_hits += pool.hits();
  pool_stats_.context_misses += pool.misses();
  pool_stats_.context_evictions += pool.evictions();
}

void StreamingRunner::watchdog_main() {
  // Poll on a short real-time cadence but *measure* on the runner's clock
  // (now_), so a fake clock drives every supervision decision
  // deterministically — the cadence only bounds detection latency.
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, std::chrono::milliseconds(1));
    if (watchdog_stop_) break;
    lock.unlock();
    watchdog_scan();
    lock.lock();
  }
}

void StreamingRunner::watchdog_scan() {
  const double now = now_();
  std::vector<WorkerSlot*> slots;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    slots.reserve(slots_.size());
    for (const std::unique_ptr<WorkerSlot>& s : slots_)
      slots.push_back(s.get());
  }
  for (WorkerSlot* slot : slots) {
    if (slot->lost.load(std::memory_order_acquire)) continue;
    const std::uint64_t busy = slot->busy.load(std::memory_order_acquire);
    const std::int64_t beat = slot->beat.load(std::memory_order_relaxed);
    WatchTrack& track = watch_[slot];
    // Idle, a new ticket, or a fresh beat: healthy — restart the stall
    // measurement from here.
    if (busy == 0 || busy != track.busy || beat != track.beat) {
      track.busy = busy;
      track.beat = beat;
      track.since = now;
      track.canceled_at = -1.0;
      continue;
    }
    const double age = now - track.since;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (age > heartbeat_age_peak_) heartbeat_age_peak_ = age;
    }
    if (age < opt_.hang_timeout) continue;
    const JobTicket ticket = busy - 1;
    // Stage 1: fire the job's AbortToken. A cooperative job cancels at
    // its next checkpoint and the slot goes healthy again on its own.
    if (track.canceled_at < 0) {
      std::shared_ptr<AbortToken> token;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = tokens_.find(ticket);
        if (it != tokens_.end()) token = it->second;
        ++hang_cancels_;
      }
      if (token != nullptr) token->request_cancel();
      track.canceled_at = now;
      continue;
    }
    if (now - track.canceled_at < opt_.hang_grace) continue;
    // Stage 2: the token went unhonored through the grace — a true hang.
    // Complete the ticket with a structured kHung result from the
    // dispatch snapshot (the stuck worker's stack is untouchable), mark
    // the worker lost, and spawn a replacement so capacity holds.
    Inflight info;
    bool have = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = inflight_.find(ticket);
      if (it != inflight_.end()) {
        info = it->second;
        have = true;
      }
    }
    if (!have) {
      watch_.erase(slot);
      continue;
    }
    JobResult out;
    out.job = static_cast<int>(ticket);
    out.label = info.label;
    out.seed = info.seed;
    out.priority = info.priority;
    out.shard = info.shard;
    out.shard_round = info.shard_round;
    out.queue_seconds = info.queue_seconds;
    out.wall_seconds = now - (info.submit_at + info.queue_seconds);
    out.attempts = info.attempt;
    out.ok = false;
    out.status = EngineStatus::kHung;
    out.error =
        "hung: heartbeat silent past hang_timeout and the abort token was "
        "not honored within the grace period";
    if (deliver(ticket, info.retain, info.on_complete, std::move(out))) {
      slot->lost.store(true, std::memory_order_release);
      bool respawn = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++hangs_;
        if (!shutdown_) respawn = true;
      }
      if (respawn) {
        {
          std::lock_guard<std::mutex> lock(workers_mu_);
          spawn_worker_locked();
        }
        std::lock_guard<std::mutex> lock(mu_);
        ++respawns_;
      }
    }
    watch_.erase(slot);
  }
}

}  // namespace mft
