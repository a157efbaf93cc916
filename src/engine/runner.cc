#include "engine/runner.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "util/stopwatch.h"
#include "util/str.h"

namespace mft {

std::vector<int> resolve_batch_inner_threads(
    const std::vector<const SizingNetwork*>& networks,
    const std::vector<SizingJob>& jobs, int pool_threads,
    int default_inner_threads) {
  const int n = static_cast<int>(jobs.size());
  int fallback = default_inner_threads;
  if (fallback <= 0) fallback = env_inner_threads();
  std::vector<int> inner(static_cast<std::size_t>(n),
                         fallback > 0 ? fallback : 1);
  // Explicit per-job requests always win, and are charged against the core
  // budget before the policy splits what remains.
  int budget = pool_threads;
  std::vector<int> policy_jobs;
  for (int i = 0; i < n; ++i) {
    const int forced = jobs[static_cast<std::size_t>(i)].inner_threads;
    if (forced > 0) {
      inner[static_cast<std::size_t>(i)] = forced;
      budget -= forced;
    } else {
      policy_jobs.push_back(i);
    }
  }
  if (fallback <= 0 && !policy_jobs.empty()) {
    // Core-budget policy: the remaining pool serves one core per job
    // first; capacity beyond that is round-robined onto the widest jobs
    // (largest networks level-parallelize best).
    int leftover = budget - static_cast<int>(policy_jobs.size());
    if (leftover > 0) {
      std::stable_sort(policy_jobs.begin(), policy_jobs.end(),
                       [&](int a, int b) {
                         const int wa = networks[static_cast<std::size_t>(
                                            jobs[static_cast<std::size_t>(a)]
                                                .network)]
                                            ->num_vertices();
                         const int wb = networks[static_cast<std::size_t>(
                                            jobs[static_cast<std::size_t>(b)]
                                                .network)]
                                            ->num_vertices();
                         return wa > wb;
                       });
      const int k = static_cast<int>(policy_jobs.size());
      for (int i = 0; leftover > 0; i = (i + 1) % k, --leftover)
        ++inner[static_cast<std::size_t>(
            policy_jobs[static_cast<std::size_t>(i)])];
    }
  }
  return inner;
}

JobRunner::JobRunner(JobRunnerOptions opt)
    : opt_(std::move(opt)), info_cache_(opt_.context_cache_limit) {
  threads_ = resolve_pool_threads(opt_.threads);
}

BatchResult JobRunner::run(const std::vector<const SizingNetwork*>& networks,
                           const std::vector<SizingJob>& jobs) const {
  for (const SizingNetwork* net : networks) {
    MFT_CHECK(net != nullptr);
    MFT_CHECK(net->frozen());
  }
  for (const SizingJob& job : jobs)
    MFT_CHECK_MSG(job.network >= 0 &&
                      job.network < static_cast<int>(networks.size()),
                  "SizingJob.network out of range");

  Stopwatch total;
  BatchResult batch;
  const int n = static_cast<int>(jobs.size());
  batch.results.resize(static_cast<std::size_t>(n));
  batch.threads_used = std::max(1, std::min(threads_, n));
  if (n == 0) {
    batch.wall_seconds = total.seconds();
    return batch;
  }

  // Per-network Dmin / minimum area, shared by every job on that network;
  // prefetched on the caller and shipped with each submission, so job
  // wall times never include the min-sized STA and every network is
  // computed exactly once per run() even when context_cache_limit is
  // smaller than the batch's network table. Routed through the runner's
  // serial-keyed LRU so repeat-batch callers over the same frozen
  // networks don't pay a full STA per network per batch.
  std::vector<NetInfo> infos;
  infos.reserve(networks.size());
  for (const SizingNetwork* net : networks)
    infos.push_back(info_cache_.get_or_compute(*net));

  const std::vector<int> inner_threads = resolve_batch_inner_threads(
      networks, jobs, threads_, opt_.inner_threads);

  JobRunnerOptions sopt = opt_;
  sopt.threads = batch.threads_used;
  StreamingRunner stream(sopt, &info_cache_);

  // Batch progress adapter: streaming completion callbacks are already
  // serialized, but the completion count gets its own lock so observers
  // see a strictly monotone 1..n sequence with correct memory visibility.
  std::mutex progress_mu;
  int completed = 0;
  std::function<void(const JobResult&)> on_complete;
  if (opt_.progress)
    on_complete = [&](const JobResult& r) {
      std::lock_guard<std::mutex> lock(progress_mu);
      opt_.progress(r, ++completed, n);
    };

  std::vector<JobTicket> tickets;
  tickets.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    SizingJob job = jobs[static_cast<std::size_t>(i)];
    job.inner_threads = inner_threads[static_cast<std::size_t>(i)];
    // Index-based seeding (not ticket-based): the batch contract is that
    // the same jobs yield the same seeds on every run() call of this or
    // any other runner.
    if (job.seed == 0) job.seed = derive_job_seed(opt_.base_seed, i);
    const std::size_t ni = static_cast<std::size_t>(job.network);
    tickets.push_back(
        stream.submit(*networks[ni], std::move(job), on_complete, &infos[ni]));
  }
  for (int i = 0; i < n; ++i) {
    JobResult& out = batch.results[static_cast<std::size_t>(i)];
    out = stream.wait(tickets[static_cast<std::size_t>(i)]);
    out.job = i;
  }
  stream.shutdown();

  batch.wall_seconds = total.seconds();
  batch.jobs_per_second =
      batch.wall_seconds > 0.0 ? n / batch.wall_seconds : 0.0;
  return batch;
}

bool write_batch_json(const std::string& path, const BatchResult& batch) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f,
               "{\n  \"threads\": %d,\n  \"wall_seconds\": %.9g,\n"
               "  \"jobs_per_second\": %.9g,\n  \"jobs\": [\n",
               batch.threads_used, batch.wall_seconds, batch.jobs_per_second);
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    const JobResult& r = batch.results[i];
    std::string label;
    append_json_escaped(label, r.label);
    if (!r.ok) {
      std::string error;
      append_json_escaped(error, r.error);
      std::fprintf(f,
                   "    {\"label\": \"%s\", \"ok\": false, \"status\": "
                   "\"%s\", \"attempts\": %d, \"error\": \"%s\"}",
                   label.c_str(), to_string(r.status), r.attempts,
                   error.c_str());
    } else {
      const double savings =
          r.result.initial.met_target && r.result.met_target &&
                  r.result.initial.area > 0.0
              ? 100.0 * (1.0 - r.result.area / r.result.initial.area)
              : 0.0;
      std::fprintf(
          f,
          "    {\"label\": \"%s\", \"ok\": true, \"status\": \"%s\", "
          "\"degraded\": %s, \"met_target\": %s,\n"
          "     \"dmin\": %.17g, \"target\": %.17g, \"delay\": %.17g,\n"
          "     \"tilos_area\": %.17g, \"area\": %.17g, "
          "\"savings_pct\": %.9g,\n"
          "     \"iterations\": %d, \"wall_seconds\": %.9g, "
          "\"tilos_seconds\": %.9g,\n"
          "     \"sta_full_runs\": %lld, \"sta_incremental_runs\": %lld, "
          "\"sta_hinted_runs\": %lld, \"sta_delays_recomputed\": %lld,\n"
          "     \"ns_pivots\": %lld,\n"
          "     \"seed\": %llu, \"thread\": %d, \"inner_threads\": %d,\n"
          "     \"shard\": %d, \"shard_round\": %d, \"fast_math\": %s, "
          "\"attempts\": %d,\n"
          "     \"passes\": [",
          label.c_str(), to_string(r.status), r.degraded ? "true" : "false",
          r.result.met_target ? "true" : "false", r.dmin,
          r.target, r.result.delay, r.result.initial.area, r.result.area,
          savings, static_cast<int>(r.result.iterations.size()),
          r.wall_seconds, r.result.tilos_seconds,
          static_cast<long long>(r.stats.sta_full_runs),
          static_cast<long long>(r.stats.sta_incremental_runs),
          static_cast<long long>(r.stats.sta_hinted_runs),
          static_cast<long long>(r.stats.sta_delays_recomputed),
          static_cast<long long>(r.stats.ns_pivots),
          static_cast<unsigned long long>(r.seed), r.thread, r.inner_threads,
          r.shard, r.shard_round, r.fast_math ? "true" : "false", r.attempts);
      for (std::size_t p = 0; p < r.pass_stats.size(); ++p) {
        const PassStats& ps = r.pass_stats[p];
        std::string pass_name;
        append_json_escaped(pass_name, ps.name);
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"invocations\": %d, "
                     "\"seconds\": %.9g, \"sweeps\": %lld}",
                     p == 0 ? "" : ", ", pass_name.c_str(), ps.invocations,
                     ps.seconds, static_cast<long long>(ps.sweeps));
      }
      std::fprintf(f, "]}");
    }
    std::fprintf(f, "%s\n", i + 1 < batch.results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace mft
