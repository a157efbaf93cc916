// Streaming engine tests (tier1):
//
//  - SchedQueue laws: deterministic dispatch order (priority desc,
//    deadline asc, ticket asc) with the all-default FIFO reduction,
//    push-after-close, drain-then-fail pop, close waking parked
//    consumers, multi-producer/multi-consumer item conservation.
//  - StreamingRunner semantics: submit-while-workers-run, ticket
//    lifecycle (poll → wait → consumed), wait/submit-after-shutdown error
//    paths, drain vs cancel shutdown, completion callbacks firing exactly
//    once (including for canceled jobs).
//  - The determinism contract: a streamed job set consumed in ticket
//    order is bit-identical to the same jobs run as a JobRunner batch, at
//    1/2/4 workers, including shard-extracted networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/runner.h"
#include "engine/stream.h"
#include "gen/blocks.h"
#include "gen/tiled.h"
#include "sizing/shard.h"
#include "timing/lowering.h"

namespace mft {
namespace {

LoweredCircuit lower(const Netlist& nl) {
  return lower_gate_level(nl, Tech{});
}

// ---------------------------------------------------------------------------
// SchedQueue
// ---------------------------------------------------------------------------

/// Minimal schedulable payload: the queue only requires a public `key`.
struct QItem {
  SchedKey key;
  int value = 0;
};

/// All-default key except the ticket — the FIFO-equivalent shape every
/// plain submission has.
QItem fifo_item(int i) {
  QItem it;
  it.key.ticket = static_cast<JobTicket>(i);
  it.value = i;
  return it;
}

QItem sched_item(int value, int priority, double deadline_at, JobTicket t) {
  QItem it;
  it.key.priority = priority;
  it.key.deadline_at = deadline_at;
  it.key.ticket = t;
  it.value = value;
  return it;
}

TEST(SchedQueue, AllDefaultKeysDispatchInTicketOrder) {
  SchedQueue<QItem> q;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(q.push(fifo_item(i)));
  EXPECT_EQ(q.size(), 100u);
  QItem out;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out.value, i);  // FIFO reduction: pop order == push order
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(SchedQueue, OrdersByPriorityThenDeadlineThenTicket) {
  const double inf = std::numeric_limits<double>::infinity();
  SchedQueue<QItem> q;
  ASSERT_TRUE(q.push(sched_item(0, /*priority=*/0, inf, /*ticket=*/0)));
  ASSERT_TRUE(q.push(sched_item(1, /*priority=*/5, inf, /*ticket=*/1)));
  ASSERT_TRUE(q.push(sched_item(2, /*priority=*/5, /*deadline_at=*/1.0,
                                /*ticket=*/2)));
  ASSERT_TRUE(q.push(sched_item(3, /*priority=*/-1, inf, /*ticket=*/3)));
  ASSERT_TRUE(q.push(sched_item(4, /*priority=*/0, /*deadline_at=*/2.0,
                                /*ticket=*/4)));
  // Priority desc first, then earlier deadline, then ticket; no-deadline
  // (+inf) sorts after any finite deadline at the same priority.
  const int expected[] = {2, 1, 4, 0, 3};
  QItem out;
  for (int e : expected) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out.value, e);
  }
}

TEST(SchedQueue, EqualKeysPreserveInsertionOrder) {
  // Fully equal keys (same priority, deadline, even ticket): dispatch must
  // still be insertion order — the multiset-stability backstop behind the
  // equal-priority FIFO law.
  SchedQueue<QItem> q;
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(q.push(sched_item(i, /*priority=*/3, /*deadline_at=*/7.0,
                                  /*ticket=*/42)));
  QItem out;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out.value, i);
  }
}

TEST(SchedQueue, PushAfterCloseFailsAndDropsTheItem) {
  SchedQueue<QItem> q;
  ASSERT_TRUE(q.push(fifo_item(1)));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(fifo_item(2)));
  EXPECT_EQ(q.size(), 1u);  // the rejected item was not enqueued
}

TEST(SchedQueue, PopDrainsEverythingPushedBeforeCloseThenFails) {
  SchedQueue<QItem> q;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(fifo_item(i)));
  q.close();
  QItem out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop(out));  // close never loses queued items
    EXPECT_EQ(out.value, i);
  }
  EXPECT_FALSE(q.pop(out));  // closed and drained
  EXPECT_FALSE(q.try_pop(out));
}

TEST(SchedQueue, CloseWakesAParkedConsumer) {
  SchedQueue<QItem> q;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    QItem out;
    const bool got = q.pop(out);  // parks: queue is empty and open
    EXPECT_FALSE(got);
    returned.store(true);
  });
  // The consumer may or may not have parked yet; close() must wake it
  // either way.
  q.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(SchedQueue, MultiProducerMultiConsumerConservesItems) {
  SchedQueue<QItem> q;
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 200;
  std::vector<std::thread> threads;
  std::mutex collected_mu;
  std::vector<int> collected;
  for (int c = 0; c < kConsumers; ++c)
    threads.emplace_back([&] {
      QItem out;
      std::vector<int> mine;
      while (q.pop(out)) mine.push_back(out.value);
      std::lock_guard<std::mutex> lock(collected_mu);
      collected.insert(collected.end(), mine.begin(), mine.end());
    });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(q.push(fifo_item(p * kPerProducer + i)));
    });
  for (std::thread& t : producers) t.join();
  q.close();
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(collected.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(collected.begin(), collected.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i)
    ASSERT_EQ(collected[static_cast<std::size_t>(i)], i);  // each exactly once
}

TEST(SchedQueue, CloseAndDrainHandsLeftoverItemsBackInDispatchOrder) {
  SchedQueue<QItem> q;
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(q.push(fifo_item(i)));
  ASSERT_TRUE(q.push(sched_item(99, /*priority=*/9, /*deadline_at=*/1.0,
                                /*ticket=*/7)));
  const std::vector<QItem> leftover = q.close_and_drain();
  ASSERT_EQ(leftover.size(), 8u);
  EXPECT_EQ(leftover[0].value, 99);  // best key first
  for (int i = 0; i < 7; ++i)
    EXPECT_EQ(leftover[static_cast<std::size_t>(i + 1)].value, i);
  QItem out;
  EXPECT_FALSE(q.pop(out));  // closed and empty
}

// ---------------------------------------------------------------------------
// StreamingRunner semantics
// ---------------------------------------------------------------------------

TEST(StreamingRunner, TicketLifecycleAndSubmitWhileRunning) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower(nl);
  JobRunnerOptions opt;
  opt.threads = 2;
  StreamingRunner stream(opt);
  EXPECT_EQ(stream.threads(), 2);

  SizingJob job;
  job.target_ratio = 0.8;
  const JobTicket t0 = stream.submit(lc.net, job);
  EXPECT_EQ(t0, 0u);
  // Jobs keep arriving while workers are already executing earlier ones —
  // the queue never requires the full job list up front.
  std::vector<JobTicket> more;
  for (double ratio : {0.75, 0.7, 0.65, 0.6}) {
    SizingJob j;
    j.target_ratio = ratio;
    more.push_back(stream.submit(lc.net, j));
  }
  const JobResult r0 = stream.wait(t0);
  EXPECT_TRUE(r0.ok) << r0.error;
  EXPECT_TRUE(r0.result.met_target);
  // Submit again after consuming — the pool is persistent.
  SizingJob late;
  late.target_ratio = 0.9;
  const JobTicket tl = stream.submit(lc.net, late);
  EXPECT_EQ(tl, 5u);  // tickets are the monotone submission index
  for (const JobTicket t : more) {
    const JobResult r = stream.wait(t);
    EXPECT_TRUE(r.ok) << r.error;
  }
  stream.wait_all();
  EXPECT_TRUE(stream.poll(tl));  // completed, not yet consumed
  const JobResult rl = stream.wait(tl);
  EXPECT_TRUE(rl.ok);
  EXPECT_FALSE(stream.poll(tl));  // consumed
  const StreamStats stats = stream.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.completed, 6u);
}

TEST(StreamingRunner, WaitAndSubmitErrorPathsAroundShutdown) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower(nl);
  JobRunnerOptions opt;
  opt.threads = 1;
  StreamingRunner stream(opt);

  EXPECT_THROW(stream.wait(0), std::runtime_error);  // never issued

  SizingJob job;
  job.target_ratio = 0.8;
  const JobTicket t = stream.submit(lc.net, job);
  const JobResult r = stream.wait(t);
  EXPECT_TRUE(r.ok);
  EXPECT_THROW(stream.wait(t), std::runtime_error);  // already consumed

  SizingJob last;
  last.target_ratio = 0.7;
  const JobTicket t2 = stream.submit(lc.net, last);
  stream.shutdown();  // drain: the queued job still runs to completion
  EXPECT_TRUE(stream.is_shutdown());
  EXPECT_THROW(stream.submit(lc.net, last), std::runtime_error);
  const JobResult r2 = stream.wait(t2);  // collectible after shutdown
  EXPECT_TRUE(r2.ok) << r2.error;
  stream.shutdown();  // idempotent
}

TEST(StreamingRunner, CancelShutdownFailsUnstartedJobsAndCallbacksFireOnce) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower(nl);
  JobRunnerOptions opt;
  opt.threads = 1;
  StreamingRunner stream(opt);

  std::mutex mu;
  std::map<int, int> calls;  // ticket -> callback count
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    SizingJob job;
    job.target_ratio = 0.8;
    job.label = "cb" + std::to_string(i);
    tickets.push_back(stream.submit(lc.net, job, [&](const JobResult& r) {
      std::lock_guard<std::mutex> lock(mu);
      ++calls[r.job];
    }));
  }
  // Cancel immediately: the single worker has started at most a few jobs;
  // everything still queued must complete as ok == false without running.
  stream.shutdown(StreamingRunner::ShutdownMode::kCancel);
  int canceled = 0;
  for (const JobTicket t : tickets) {
    const JobResult r = stream.wait(t);
    if (!r.ok) {
      ++canceled;
      EXPECT_NE(r.error.find("canceled"), std::string::npos) << r.error;
    } else {
      EXPECT_TRUE(r.result.met_target);
    }
  }
  // With 8 quick jobs on one worker, an immediate cancel leaves at least
  // one job unstarted in practice — but the law under test is exactly-once
  // callbacks and a well-formed result per ticket, which holds for any
  // race outcome.
  const StreamStats stats = stream.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.completed, 8u);
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(calls.size(), 8u);  // every job's callback fired...
  for (const auto& kv : calls) EXPECT_EQ(kv.second, 1);  // ...exactly once
  (void)canceled;
}

TEST(StreamingRunner, CallbacksAreSerializedAndSeeTheFinalResult) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower(nl);
  JobRunnerOptions opt;
  opt.threads = 4;
  StreamingRunner stream(opt);
  std::atomic<int> in_callback{0};
  std::atomic<int> total{0};
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 10; ++i) {
    SizingJob job;
    job.target_ratio = 0.85 - 0.02 * i;
    tickets.push_back(stream.submit(lc.net, job, [&](const JobResult& r) {
      EXPECT_EQ(in_callback.fetch_add(1), 0);  // never concurrent
      EXPECT_TRUE(r.ok);
      EXPECT_GT(r.result.area, 0.0);
      ++total;
      in_callback.fetch_sub(1);
    }));
  }
  stream.wait_all();
  EXPECT_EQ(total.load(), 10);
  for (const JobTicket t : tickets) EXPECT_TRUE(stream.poll(t));
}

TEST(StreamingRunner, DetachedSubmissionsRetainNothing) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower(nl);
  JobRunnerOptions opt;
  opt.threads = 2;
  StreamingRunner stream(opt);
  std::mutex mu;
  std::vector<double> areas;
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    SizingJob job;
    job.target_ratio = 0.85 - 0.03 * i;
    tickets.push_back(
        stream.submit_detached(lc.net, job, [&](const JobResult& r) {
          std::lock_guard<std::mutex> lock(mu);
          ASSERT_TRUE(r.ok) << r.error;
          areas.push_back(r.result.area);
        }));
  }
  stream.wait_all();
  // The callbacks were the delivery: nothing parks in the runner, so a
  // long-lived callback-driven consumer stays flat.
  const StreamStats stats = stream.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.ready, 0u);
  for (const JobTicket t : tickets) {
    EXPECT_FALSE(stream.poll(t));
    EXPECT_THROW(stream.wait(t), std::runtime_error);
  }
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(areas.size(), 6u);
  // A detached submit without a callback is a programming error (the
  // result would be delivered nowhere).
  SizingJob job;
  EXPECT_THROW(stream.submit_detached(lc.net, job, nullptr), CheckError);
}

// ---------------------------------------------------------------------------
// Per-ticket cancellation
// ---------------------------------------------------------------------------

TEST(StreamingRunner, CancelPlucksQueuedJobsAndReportsStructuredStatus) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower(nl);
  JobRunnerOptions opt;
  opt.threads = 1;
  StreamingRunner stream(opt);

  // Gate the single worker inside the blocker's completion callback so the
  // tail jobs below are deterministically still queued when canceled (the
  // worker cannot pop the next item until the callback returns). The tail
  // jobs carry no callback, so the plucked-cancel path never waits on the
  // callback lock the gated worker holds.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  SizingJob blocker;
  blocker.target_ratio = 0.8;
  const JobTicket tb = stream.submit(
      lc.net, blocker, [opened](const JobResult&) { opened.wait(); });
  std::vector<JobTicket> tail;
  for (int i = 0; i < 4; ++i) {
    SizingJob job;
    job.target_ratio = 0.8;
    job.label = "tail" + std::to_string(i);
    tail.push_back(stream.submit(lc.net, job));
  }
  for (const JobTicket t : tail) EXPECT_TRUE(stream.cancel(t));
  gate.set_value();
  for (const JobTicket t : tail) {
    const JobResult r = stream.wait(t);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.status, EngineStatus::kCanceled);
    EXPECT_NE(r.error.find("canceled before start"), std::string::npos)
        << r.error;
  }
  const JobResult rb = stream.wait(tb);
  EXPECT_TRUE(rb.ok) << rb.error;
  EXPECT_FALSE(stream.cancel(tb));  // already completed: cancellation lost
  EXPECT_THROW(stream.cancel(999), std::runtime_error);  // never issued
  const StreamStats stats = stream.stats();
  EXPECT_EQ(stats.canceled, 4u);
  EXPECT_EQ(stats.completed, 5u);
}

TEST(StreamingRunner, CancelInterruptsARunningJobCooperatively) {
  TiledDatapathParams tp;
  tp.lanes = 4;
  tp.stages = 6;
  tp.bits = 2;
  LoweredCircuit lc = lower(make_tiled_datapath(tp));
  JobRunnerOptions opt;
  opt.threads = 1;
  StreamingRunner stream(opt);
  SizingJob job;
  job.target_ratio = 0.55;
  const JobTicket t = stream.submit(lc.net, job);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const bool requested = stream.cancel(t);
  const JobResult r = stream.wait(t);
  if (requested && !r.ok) {
    // Interrupted at a checkpoint: structured status, never a hang.
    EXPECT_EQ(r.status, EngineStatus::kCanceled);
    EXPECT_NE(r.error.find("canceled"), std::string::npos) << r.error;
  } else {
    // Cancellation lost the race to completion; the result stands.
    EXPECT_TRUE(r.ok) << r.error;
  }
  // The runner stays serviceable after a cancellation.
  SizingJob next;
  next.target_ratio = 0.9;
  const JobResult r2 = stream.wait(stream.submit(lc.net, next));
  EXPECT_TRUE(r2.ok) << r2.error;
}

// ---------------------------------------------------------------------------
// Streaming == batch bit-identity
// ---------------------------------------------------------------------------

/// The job set: plain jobs over two ordinary circuits plus shard-extracted
/// networks (the reconciliation workload).
struct StreamFixture {
  static TiledDatapathParams small_tiled() {
    TiledDatapathParams p;
    p.lanes = 4;
    p.stages = 6;
    p.bits = 2;
    return p;
  }

  LoweredCircuit c17 = lower(make_c17());
  LoweredCircuit adder = lower(make_ripple_adder(8));
  LoweredCircuit tiled = lower(make_tiled_datapath(small_tiled()));
  ShardPartition part = partition_levels(tiled.net, 2);
  ShardNetwork shard0 =
      build_shard_network(tiled.net, part, 0, tiled.net.min_sizes());
  ShardNetwork shard1 =
      build_shard_network(tiled.net, part, 1, tiled.net.min_sizes());
  std::vector<const SizingNetwork*> networks{&c17.net, &adder.net,
                                             shard0.net.get(),
                                             shard1.net.get()};
  std::vector<SizingJob> jobs;

  StreamFixture() {
    const double ratios[] = {0.8, 0.7, 0.9, 0.75, 0.6, 0.85};
    for (int i = 0; i < 6; ++i) {
      SizingJob job;
      job.network = i % 4;
      job.target_ratio = ratios[i];
      job.label = "job" + std::to_string(i);
      jobs.push_back(std::move(job));
    }
  }
};

TEST(StreamingRunner, StreamedJobsAreBitIdenticalToTheBatchAtAnyWorkerCount) {
  StreamFixture f;
  JobRunnerOptions bopt;
  bopt.threads = 1;
  const BatchResult reference = JobRunner(bopt).run(f.networks, f.jobs);
  for (const JobResult& r : reference.results) ASSERT_TRUE(r.ok) << r.error;

  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    JobRunnerOptions opt;
    opt.threads = workers;
    StreamingRunner stream(opt);
    std::vector<JobTicket> tickets;
    for (const SizingJob& job : f.jobs)
      tickets.push_back(
          stream.submit(*f.networks[static_cast<std::size_t>(job.network)],
                        job));
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const JobResult r = stream.wait(tickets[i]);
      const JobResult& x = reference.results[i];
      ASSERT_TRUE(r.ok) << r.error;
      // Submission order == batch order, so the ticket-derived seed must
      // equal the batch's index-derived seed…
      EXPECT_EQ(r.seed, x.seed);
      EXPECT_EQ(r.target, x.target);
      EXPECT_EQ(r.dmin, x.dmin);
      // …and every solution bit must match, regardless of worker count or
      // arrival interleaving.
      ASSERT_EQ(r.result.sizes.size(), x.result.sizes.size());
      for (std::size_t v = 0; v < x.result.sizes.size(); ++v)
        ASSERT_EQ(r.result.sizes[v], x.result.sizes[v]) << "vertex " << v;
      EXPECT_EQ(r.result.area, x.result.area);
      EXPECT_EQ(r.result.delay, x.result.delay);
      EXPECT_EQ(r.result.iterations.size(), x.result.iterations.size());
    }
  }
}

TEST(StreamingRunner, ArrivalOrderDoesNotChangeSeedsOrResults) {
  // Two runners fed the same logical jobs, but the second receives them
  // in two waves with consumption in between — tickets, seeds, and
  // results must match ticket-for-ticket.
  StreamFixture f;
  JobRunnerOptions opt;
  opt.threads = 2;

  std::vector<JobResult> one_wave;
  {
    StreamingRunner stream(opt);
    std::vector<JobTicket> tickets;
    for (const SizingJob& job : f.jobs)
      tickets.push_back(stream.submit(
          *f.networks[static_cast<std::size_t>(job.network)], job));
    for (const JobTicket t : tickets) one_wave.push_back(stream.wait(t));
  }
  {
    StreamingRunner stream(opt);
    std::vector<JobTicket> tickets;
    for (std::size_t i = 0; i < 3; ++i)
      tickets.push_back(stream.submit(
          *f.networks[static_cast<std::size_t>(f.jobs[i].network)],
          f.jobs[i]));
    const JobResult early = stream.wait(tickets[0]);  // consume mid-stream
    for (std::size_t i = 3; i < f.jobs.size(); ++i)
      tickets.push_back(stream.submit(
          *f.networks[static_cast<std::size_t>(f.jobs[i].network)],
          f.jobs[i]));
    std::vector<JobResult> two_waves;
    two_waves.push_back(early);
    for (std::size_t i = 1; i < tickets.size(); ++i)
      two_waves.push_back(stream.wait(tickets[i]));
    ASSERT_EQ(two_waves.size(), one_wave.size());
    for (std::size_t i = 0; i < one_wave.size(); ++i) {
      EXPECT_EQ(two_waves[i].seed, one_wave[i].seed);
      ASSERT_EQ(two_waves[i].result.sizes, one_wave[i].result.sizes);
    }
  }
}

TEST(StreamingRunner, CanceledThenResubmittedJobsAreBitIdentical) {
  StreamFixture f;
  JobRunnerOptions bopt;
  bopt.threads = 1;
  const BatchResult reference = JobRunner(bopt).run(f.networks, f.jobs);
  for (const JobResult& r : reference.results) ASSERT_TRUE(r.ok) << r.error;

  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    JobRunnerOptions opt;
    opt.threads = workers;
    StreamingRunner stream(opt);
    std::vector<JobTicket> tickets;
    for (const SizingJob& job : f.jobs)
      tickets.push_back(stream.submit(
          *f.networks[static_cast<std::size_t>(job.network)], job));
    // Cancel a fixed subset immediately. Depending on scheduling each
    // victim is plucked from the queue, interrupted at a checkpoint, or
    // already complete — every outcome must be recoverable by resubmission
    // without perturbing a single bit.
    for (const int victim : {1, 3, 5})
      stream.cancel(tickets[static_cast<std::size_t>(victim)]);
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      JobResult r = stream.wait(tickets[i]);
      if (!r.ok) {
        ASSERT_EQ(r.status, EngineStatus::kCanceled) << r.error;
        // Resubmit under the original derived seed — a fresh ticket would
        // derive a different one, and the contract is seed-for-seed
        // identity with the never-canceled batch.
        SizingJob again = f.jobs[i];
        again.seed = reference.results[i].seed;
        r = stream.wait(stream.submit(
            *f.networks[static_cast<std::size_t>(again.network)], again));
        ASSERT_TRUE(r.ok) << r.error;
      }
      const JobResult& x = reference.results[i];
      EXPECT_EQ(r.seed, x.seed);
      ASSERT_EQ(r.result.sizes, x.result.sizes);
      EXPECT_EQ(r.result.area, x.result.area);
      EXPECT_EQ(r.result.delay, x.result.delay);
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler determinism
// ---------------------------------------------------------------------------

TEST(StreamingRunner, PriorityJumpsTheQueueButEqualPriorityStaysFifo) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower(nl);
  JobRunnerOptions opt;
  opt.threads = 1;
  StreamingRunner stream(opt);

  // Gate the single worker inside the blocker's completion callback so
  // every job below is still queued when the high-priority one arrives;
  // the tail callbacks fire on the same worker after the gate opens, so
  // recording order through them is race-free.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  SizingJob blocker;
  blocker.target_ratio = 0.8;
  stream.submit(lc.net, blocker,
                [opened](const JobResult&) { opened.wait(); });

  std::mutex mu;
  std::vector<std::string> order;
  auto record = [&](const JobResult& r) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(r.label);
  };
  for (int i = 0; i < 4; ++i) {
    SizingJob job;
    job.target_ratio = 0.8;
    job.label = "low" + std::to_string(i);
    stream.submit(lc.net, job, record);
  }
  // Submitted last, behind four queued equal-priority jobs: dispatched
  // first — and its presence must not reorder the equal-priority tail
  // (priority inversion never breaks the FIFO law).
  SizingJob urgent;
  urgent.target_ratio = 0.8;
  urgent.priority = 7;
  urgent.label = "urgent";
  stream.submit(lc.net, urgent, record);

  gate.set_value();
  stream.wait_all();
  std::lock_guard<std::mutex> lock(mu);
  const std::vector<std::string> expected = {"urgent", "low0", "low1", "low2",
                                             "low3"};
  EXPECT_EQ(order, expected);
}

TEST(StreamingRunner, MixedPrioritiesStayBitIdenticalToTheBatch) {
  // Priorities reorder *dispatch*, never bits: seeds are ticket-derived at
  // submit, so the scheduled stream must equal the FIFO batch
  // result-for-result at any worker count.
  StreamFixture f;
  JobRunnerOptions bopt;
  bopt.threads = 1;
  const BatchResult reference = JobRunner(bopt).run(f.networks, f.jobs);
  for (const JobResult& r : reference.results) ASSERT_TRUE(r.ok) << r.error;

  const int priorities[] = {2, 0, 5, 0, 3, 1};
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    JobRunnerOptions opt;
    opt.threads = workers;
    StreamingRunner stream(opt);
    std::vector<JobTicket> tickets;
    for (std::size_t i = 0; i < f.jobs.size(); ++i) {
      SizingJob job = f.jobs[i];
      job.priority = priorities[i];
      tickets.push_back(stream.submit(
          *f.networks[static_cast<std::size_t>(job.network)], job));
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const JobResult r = stream.wait(tickets[i]);
      const JobResult& x = reference.results[i];
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.priority, priorities[i]);
      EXPECT_EQ(r.seed, x.seed);
      ASSERT_EQ(r.result.sizes, x.result.sizes);
      EXPECT_EQ(r.result.area, x.result.area);
      EXPECT_EQ(r.result.delay, x.result.delay);
    }
  }
}

TEST(StreamingRunner, ShedDecisionsAreDeterministicUnderAFakeClock) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower(nl);
  auto fake = std::make_shared<std::atomic<double>>(0.0);
  JobRunnerOptions opt;
  opt.threads = 1;
  opt.shed = true;
  opt.clock = [fake] { return fake->load(); };
  StreamingRunner stream(opt);

  // Gate the worker, then queue one job whose (fake-clock) deadline will
  // lapse before dispatch and one whose deadline will not. Deadlines are
  // huge in real-clock terms, so the jobs' AbortTokens (real clock) never
  // trip — the shed-vs-run split is decided purely by the fake clock.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  SizingJob blocker;
  blocker.target_ratio = 0.8;
  const JobTicket tb = stream.submit(
      lc.net, blocker, [opened](const JobResult&) { opened.wait(); });

  SizingJob tight;
  tight.target_ratio = 0.8;
  tight.deadline_seconds = 100.0;  // deadline_at = 0 + 100 on the fake clock
  const JobTicket t_shed = stream.submit(lc.net, tight);
  SizingJob loose;
  loose.target_ratio = 0.8;
  loose.deadline_seconds = 5000.0;
  const JobTicket t_run = stream.submit(lc.net, loose);

  fake->store(200.0);  // past tight's deadline, before loose's
  gate.set_value();

  const JobResult shed = stream.wait(t_shed);
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.status, EngineStatus::kShed);
  EXPECT_NE(shed.error.find("shed"), std::string::npos) << shed.error;
  EXPECT_EQ(shed.queue_seconds, 200.0);  // fake-clock wait, exact

  const JobResult run = stream.wait(t_run);
  EXPECT_TRUE(run.ok) << run.error;
  EXPECT_FALSE(run.degraded);

  EXPECT_TRUE(stream.wait(tb).ok);
  const StreamStats stats = stream.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_GE(stats.queue_peak, 2u);
  EXPECT_GE(stats.queue_wait_seconds, 200.0);
}


}  // namespace
}  // namespace mft
