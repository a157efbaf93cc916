// Engine batch-throughput benchmark: the same 8-job area-delay sweep of
// c3540 executed sequentially (1 thread), on a multi-thread batch pool,
// and through the persistent StreamingRunner (submit-all / wait-all over
// the scheduler queue), plus bit-exactness cross-checks between all three
// runs
// (the engine's determinism contract: scheduling, and now arrival
// interleaving, must never change results).
//
// Emits BENCH_engine.json with jobs/sec at each thread count, the
// parallel speedup, and the streaming-vs-batch comparison (`stream8_t<N>`
// + `streaming_speedup`: wall-time ratio batch/streaming at the same pool
// width — ~1.0 is the expectation; the streaming path exists for
// submit-while-running workloads, and this row pins that its queue adds
// no measurable overhead on a plain batch). The parallel speedup is
// hardware-bound — `hw_concurrency` is recorded alongside so a 1-core CI
// container reading ~1.0x is interpretable; on >= 4 real cores the batch
// is embarrassingly parallel and scales accordingly. Override the pool
// size with --threads or MFT_BENCH_THREADS.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "engine/stream.h"
#include "util/journal.h"
#include "util/str.h"

using namespace mft;
using namespace mft::bench;

namespace {

bool identical(const BatchResult& a, const BatchResult& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const JobResult& x = a.results[i];
    const JobResult& y = b.results[i];
    if (x.ok != y.ok || x.seed != y.seed) return false;
    if (x.result.sizes != y.result.sizes) return false;  // bit-exact
    if (x.result.area != y.result.area) return false;
    if (x.result.delay != y.result.delay) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // c3540 gives ~0.5 s/job at these targets: heavy enough that pool
  // startup and measurement noise are negligible, light enough that the
  // bench stays under ~10 s sequential.
  const Netlist nl = make_named_circuit("c3540");
  const LoweredCircuit lc = lower_gate_level(nl, Tech{});

  std::vector<SizingJob> jobs;
  for (double ratio : {0.8, 0.7, 0.65, 0.6, 0.55, 0.5, 0.45, 0.4}) {
    SizingJob job;
    job.target_ratio = ratio;
    job.label = strf("c3540@%.2f", ratio);
    jobs.push_back(std::move(job));
  }

  const unsigned hw = std::thread::hardware_concurrency();
  int par_threads = bench_threads(argc, argv);
  if (par_threads <= 0) par_threads = std::max(4u, hw ? hw : 1u);

  std::printf("engine throughput: %d-job c3540 sweep, hw concurrency %u\n\n",
              static_cast<int>(jobs.size()), hw);

  BenchJson json;
  BatchResult runs[2];
  const int thread_counts[2] = {1, par_threads};
  for (int i = 0; i < 2; ++i) {
    JobRunnerOptions ropt;
    ropt.threads = thread_counts[i];
    const JobRunner runner(ropt);
    std::printf("%d thread%s:\n", thread_counts[i],
                thread_counts[i] == 1 ? "" : "s");
    runs[i] = runner.run({&lc.net}, jobs);
    for (const JobResult& r : runs[i].results)
      std::printf("  %-12s %6.2fs  thread %d\n", r.label.c_str(),
                  r.wall_seconds, r.thread);
    std::printf("  -> %d jobs in %.2fs (%.3f jobs/s)\n\n",
                static_cast<int>(runs[i].results.size()), runs[i].wall_seconds,
                runs[i].jobs_per_second);
    json.add(strf("engine/sweep8_t%d", thread_counts[i]),
             runs[i].wall_seconds,
             {{"threads", static_cast<double>(runs[i].threads_used)},
              {"jobs", static_cast<double>(runs[i].results.size())},
              {"jobs_per_second", runs[i].jobs_per_second}});
  }

  // Streaming arm: the same jobs submitted through the persistent
  // StreamingRunner at the batch pool width, consumed in ticket order.
  // Submission order equals batch order, so the ticket-derived seeds must
  // equal the batch's index-derived seeds and every bit must match. The
  // full supervision stack is armed — watchdog at a generous timeout plus
  // a 2-attempt retry policy — precisely because on a healthy run it must
  // be a pure observer: the bit-exactness gate below fails the bench if
  // supervision ever perturbs a result.
  BatchResult streamed;
  {
    JobRunnerOptions ropt;
    ropt.threads = par_threads;
    ropt.hang_timeout = 300.0;  // far beyond any honest c3540 solve
    ropt.retry.max_attempts = 2;
    std::printf("streaming (supervised), %d workers:\n", par_threads);
    Stopwatch sw;
    StreamingRunner stream(ropt);
    // Same per-job inner widths as the batch arm (the whole list is known
    // up front), so any wall-time difference is queue overhead, not a
    // thread-allocation asymmetry.
    const std::vector<int> inner = resolve_batch_inner_threads(
        {&lc.net}, jobs, stream.threads(), ropt.inner_threads);
    std::vector<JobTicket> tickets;
    tickets.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      SizingJob job = jobs[i];
      job.inner_threads = inner[i];
      tickets.push_back(stream.submit(lc.net, std::move(job)));
    }
    for (const JobTicket t : tickets) streamed.results.push_back(stream.wait(t));
    streamed.threads_used = stream.threads();
    streamed.wall_seconds = sw.seconds();
    streamed.jobs_per_second = streamed.wall_seconds > 0.0
                                   ? jobs.size() / streamed.wall_seconds
                                   : 0.0;
    for (const JobResult& r : streamed.results)
      std::printf("  %-12s %6.2fs  thread %d (queued %.3fs)\n",
                  r.label.c_str(), r.wall_seconds, r.thread, r.queue_seconds);
    std::printf("  -> %d jobs in %.2fs (%.3f jobs/s)\n",
                static_cast<int>(streamed.results.size()),
                streamed.wall_seconds, streamed.jobs_per_second);
    // Scheduler-queue health: the high-water mark and the total
    // ticket-seconds spent queued vs running. With submit-all-up-front the
    // peak is jobs - workers_that_grabbed_immediately; queue wait shrinks
    // as the pool widens.
    const StreamStats stats = stream.stats();
    std::printf(
        "  queue: peak depth %llu, %.2fs total queue wait, %.2fs total "
        "run\n",
        static_cast<unsigned long long>(stats.queue_peak),
        stats.queue_wait_seconds, stats.run_seconds);
    std::printf(
        "  supervision: %llu retries, %llu hang cancels, %llu hangs, "
        "%llu respawns, heartbeat age peak %.3fs\n\n",
        static_cast<unsigned long long>(stats.retries),
        static_cast<unsigned long long>(stats.hang_cancels),
        static_cast<unsigned long long>(stats.hangs),
        static_cast<unsigned long long>(stats.respawns),
        stats.heartbeat_age_peak);
    json.add(strf("engine/stream8_t%d", par_threads), streamed.wall_seconds,
             {{"threads", static_cast<double>(streamed.threads_used)},
              {"jobs", static_cast<double>(streamed.results.size())},
              {"jobs_per_second", streamed.jobs_per_second},
              {"queue_peak", static_cast<double>(stats.queue_peak)},
              {"queue_wait_seconds", stats.queue_wait_seconds},
              {"run_seconds", stats.run_seconds},
              {"retries", static_cast<double>(stats.retries)},
              {"hangs", static_cast<double>(stats.hangs)},
              {"respawns", static_cast<double>(stats.respawns)},
              {"heartbeat_age_peak", stats.heartbeat_age_peak}});
  }

  // Journal micro-bench: the per-request durability cost of the daemon's
  // write-ahead log is one framed append + fsync. Measured standalone so
  // BENCH_engine.json records what --journal adds to each accepted submit
  // and each terminal result on this machine's storage.
  {
    const char* path = "BENCH_journal.tmp";
    std::remove(path);
    const std::string payload =
        "{\"type\":\"result\",\"rid\":123,\"status\":\"ok\","
        "\"sizes_hash\":12345678901234567890}";
    const int appends = 256;
    Stopwatch sw;
    Journal j;
    j.open(path);
    for (int i = 0; i < appends; ++i) j.append(payload);
    const double secs = sw.seconds();
    std::printf("journal: %d fsync'd appends in %.3fs (%.0f appends/s)\n\n",
                appends, secs, secs > 0.0 ? appends / secs : 0.0);
    json.add("engine/journal_append", secs,
             {{"appends", static_cast<double>(j.appends())},
              {"fsyncs", static_cast<double>(j.fsyncs())},
              {"appends_per_second", secs > 0.0 ? appends / secs : 0.0}});
    j.close();
    std::remove(path);
  }

  const bool deterministic = identical(runs[0], runs[1]);
  const bool stream_deterministic = identical(runs[1], streamed);
  const double speedup = runs[1].wall_seconds > 0.0
                             ? runs[0].wall_seconds / runs[1].wall_seconds
                             : 0.0;
  const double streaming_speedup =
      streamed.wall_seconds > 0.0 ? runs[1].wall_seconds / streamed.wall_seconds
                                  : 0.0;
  std::printf("speedup %d -> %d threads: %.2fx (hw concurrency %u)\n",
              thread_counts[0], thread_counts[1], speedup, hw);
  std::printf("streaming vs batch at %d threads: %.2fx\n", par_threads,
              streaming_speedup);
  std::printf("determinism across thread counts: %s\n",
              deterministic ? "bit-identical" : "MISMATCH");
  std::printf("determinism streaming vs batch: %s\n",
              stream_deterministic ? "bit-identical" : "MISMATCH");
  json.add("engine/summary", runs[0].wall_seconds + runs[1].wall_seconds,
           {{"speedup", speedup},
            {"streaming_speedup", streaming_speedup},
            {"par_threads", static_cast<double>(par_threads)},
            {"hw_concurrency", static_cast<double>(hw)},
            {"deterministic", deterministic ? 1.0 : 0.0},
            {"streaming_deterministic", stream_deterministic ? 1.0 : 0.0}});
  if (!json.write("BENCH_engine.json"))
    std::fprintf(stderr, "warning: could not write BENCH_engine.json\n");
  if (!write_batch_json("BENCH_engine_jobs.json", runs[1]))
    std::fprintf(stderr, "warning: could not write BENCH_engine_jobs.json\n");
  return deterministic && stream_deterministic ? 0 : 1;
}
