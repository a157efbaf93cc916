// Service front-end tests (tier1):
//
//  - LatencyHistogram: bucket resolution, conservative quantiles,
//    under/overflow capture, reset.
//  - Protocol basics: submit → accepted ack then exactly one terminal
//    result; malformed / unknown requests get structured invalid_input
//    results and the daemon keeps serving; cancel through the protocol.
//  - The overload gate: with 1 worker and a burst exceeding capacity,
//    every request gets exactly one structured response — admitted→ok,
//    shed→"shed", rejected→"rejected", malformed→"invalid_input" — with
//    no hangs and no lost tickets.
//  - Priority jump: a high-priority submit behind queued low-priority
//    work is dispatched before it, and every per-ticket solution stays
//    bit-identical (sizes_hash) to the plain FIFO batch engine run with
//    the same seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/daemon.h"
#include "engine/runner.h"
#include "gen/blocks.h"
#include "gen/tiled.h"
#include "timing/lowering.h"
#include "util/histogram.h"

namespace mft {
namespace {

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, QuantilesAreConservativeBucketUpperEdges) {
  LatencyHistogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty histogram
  // 90 samples in [1e-3, 2e-3), 10 samples in [1e-1, 2e-1).
  for (int i = 0; i < 90; ++i) h.record(1.5e-3);
  for (int i = 0; i < 10; ++i) h.record(1.5e-1);
  EXPECT_EQ(h.total(), 100u);
  const double p50 = h.quantile(0.50);
  const double p99 = h.quantile(0.99);
  // p50 lands in the 1.5ms bucket: its upper edge is >= the sample and
  // within 2x of it (the geometric-bucket error bound).
  EXPECT_GE(p50, 1.5e-3);
  EXPECT_LE(p50, 3.0e-3);
  // p99 must see the slow tail.
  EXPECT_GE(p99, 1.5e-1);
  EXPECT_LE(p99, 3.0e-1);
  // p100 == p99 bucket here; quantile(1.0) never exceeds the overflow edge.
  EXPECT_GE(h.quantile(1.0), p99);
}

TEST(LatencyHistogram, UnderflowOverflowAndReset) {
  LatencyHistogram h;
  h.record(0.0);     // below the 1µs base: underflow bucket
  h.record(-1.0);    // negative (clock skew): underflow, never UB
  h.record(1e12);    // absurdly slow: overflow bucket
  EXPECT_EQ(h.total(), 3u);
  EXPECT_GT(h.quantile(1.0), 0.0);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Daemon harness
// ---------------------------------------------------------------------------

/// Captures every emitted event line, thread-safe (results arrive from
/// engine workers).
struct Capture {
  std::mutex mu;
  std::vector<std::string> lines;

  SizingDaemon::Emit emit() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu);
      lines.push_back(line);
    };
  }

  std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return lines;
  }
};

/// Raw token of `"key":<token>` in a JSON line ("" when absent). Good
/// enough for the flat one-line events the daemon emits.
std::string raw_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t i = at + needle.size();
  if (i < line.size() && line[i] == '"') {
    const std::size_t end = line.find('"', i + 1);
    return line.substr(i + 1, end - i - 1);
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(i, end - i);
}

/// The lines with "event":"result" and the given id, in emission order.
std::vector<std::string> results_for(const std::vector<std::string>& lines,
                                     const std::string& id) {
  std::vector<std::string> out;
  for (const std::string& l : lines)
    if (raw_field(l, "event") == "result" && raw_field(l, "id") == id)
      out.push_back(l);
  return out;
}

/// Same FNV-1a-over-bits rule the daemon uses for "sizes_hash", so the
/// test can compute the expected hash from a batch-engine reference run.
std::uint64_t fnv_sizes(const std::vector<double>& sizes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double d : sizes) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Polls the daemon until the engine queue is empty and `results` results
/// have been emitted — i.e. earlier submissions are being executed (or
/// done), so the next submit deterministically queues behind them.
void wait_for_drain_to_workers(SizingDaemon& daemon, std::uint64_t results) {
  for (int spins = 0; spins < 20000; ++spins) {
    const DaemonStats s = daemon.stats();
    if (s.engine.queue_depth == 0 && s.results >= results) return;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  FAIL() << "daemon never drained its queue to the workers";
}

std::string submit_line(const std::string& id, const std::string& circuit,
                        double ratio, int priority = 0,
                        double deadline = 0.0) {
  std::string s = "{\"op\":\"submit\",\"id\":\"" + id + "\",\"circuit\":\"" +
                  circuit + "\"";
  char buf[64];
  std::snprintf(buf, sizeof buf, ",\"ratio\":%.3f", ratio);
  s += buf;
  if (priority != 0) {
    std::snprintf(buf, sizeof buf, ",\"priority\":%d", priority);
    s += buf;
  }
  if (deadline > 0.0) {
    std::snprintf(buf, sizeof buf, ",\"deadline\":%.9g", deadline);
    s += buf;
  }
  return s + "}";
}

// ---------------------------------------------------------------------------
// Protocol basics
// ---------------------------------------------------------------------------

TEST(SizingDaemon, SubmitEmitsAcceptedThenExactlyOneResult) {
  Capture cap;
  DaemonOptions opt;
  opt.engine.threads = 1;
  {
    SizingDaemon daemon(opt, cap.emit());
    daemon.handle_line(submit_line("a", "c17", 0.8));
    daemon.drain();
  }
  const std::vector<std::string> lines = cap.snapshot();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(raw_field(lines[0], "event"), "accepted");
  EXPECT_EQ(raw_field(lines[0], "ticket"), "0");
  EXPECT_EQ(raw_field(lines[1], "event"), "result");
  EXPECT_EQ(raw_field(lines[1], "status"), "ok");
  EXPECT_EQ(raw_field(lines[1], "ok"), "true");
  EXPECT_EQ(raw_field(lines[1], "ticket"), "0");
  EXPECT_FALSE(raw_field(lines[1], "sizes_hash").empty());
  EXPECT_FALSE(raw_field(lines[1], "area").empty());
}

TEST(SizingDaemon, MalformedAndUnknownRequestsGetStructuredErrors) {
  Capture cap;
  DaemonOptions opt;
  opt.engine.threads = 1;
  SizingDaemon daemon(opt, cap.emit());

  daemon.handle_line("");              // blank: ignored, no response
  daemon.handle_line("   ");           // whitespace: ignored
  daemon.handle_line("not json at all");
  daemon.handle_line("{\"op\":\"submit\",\"circuit\":");  // truncated
  daemon.handle_line("{\"op\":\"frobnicate\",\"id\":\"x\"}");
  daemon.handle_line("{\"id\":\"y\"}");                   // no op
  daemon.handle_line(
      "{\"op\":\"submit\",\"id\":\"z\",\"circuit\":\"nonesuch99\"}");
  daemon.handle_line("{\"op\":\"cancel\"}");              // no ticket
  // Circuit names outside the grammar: sizes that overflow an int (once
  // served as adder2 / tiled1x1x1), one over the gate bound that would
  // allocate until bad_alloc, a zero size, missing fields.
  const char* bad_circuits[] = {"adder4294967298", "tiled4294967297x1x1",
                                "adder400000000",  "tiled0x1x1",
                                "adder",           "tiled1x1"};
  for (const char* name : bad_circuits)
    daemon.handle_line(submit_line(name, name, 0.8));
  // Numbers: only JSON number syntax, finite; integer fields exact and in
  // range (these once went through unchecked double casts: the priority
  // ran at INT_MIN, the seed as 2^64-1, the resize and the cancel named
  // session and ticket 0); ratio, target and deadline in their domains;
  // inner_threads no wider than the host.
  const std::string c17 = "{\"op\":\"submit\",\"circuit\":\"c17\",";
  const std::string too_wide = std::to_string(
      std::max(3000u, std::thread::hardware_concurrency() + 1));
  const std::string bad_numbers[] = {
      c17 + "\"ratio\":0.8,\"priority\":1e300}",
      c17 + "\"ratio\":0.8,\"priority\":2147483648}",
      c17 + "\"ratio\":0.8,\"seed\":-1}",
      c17 + "\"ratio\":0.8,\"seed\":18446744073709551616}",
      c17 + "\"ratio\":0.8,\"seed\":7.5}",
      c17 + "\"ratio\":0.8,\"max_steps\":1e3}",
      c17 + "\"ratio\":0.8,\"inner_threads\":" + too_wide + "}",
      c17 + "\"ratio\":0.8,\"inner_threads\":-1}",
      c17 + "\"ratio\":nan}",
      c17 + "\"ratio\":inf}",
      c17 + "\"ratio\":-inf}",
      c17 + "\"ratio\":0x1p3}",
      c17 + "\"ratio\":1e400}",
      c17 + "\"ratio\":+0.8}",
      c17 + "\"ratio\":.8}",
      c17 + "\"ratio\":0}",
      c17 + "\"ratio\":-0.5}",
      c17 + "\"ratio\":0.8,\"target\":-1}",
      c17 + "\"ratio\":0.8,\"deadline\":-1}",
      "{\"op\":\"resize\",\"session\":1e30}",
      "{\"op\":\"resize\",\"session\":0}",
      "{\"op\":\"release\",\"session\":1.5}",
      "{\"op\":\"cancel\",\"ticket\":1e30}",
      "{\"op\":\"cancel\",\"ticket\":-1}",
  };
  for (const std::string& line : bad_numbers) daemon.handle_line(line);
  const std::size_t bad = 12 + std::size(bad_numbers);
  // Every bad line produced exactly one structured invalid_input result,
  // and none was accepted.
  std::vector<std::string> lines = cap.snapshot();
  ASSERT_EQ(lines.size(), bad);
  for (const std::string& l : lines) {
    EXPECT_EQ(raw_field(l, "event"), "result") << l;
    EXPECT_EQ(raw_field(l, "status"), "invalid_input") << l;
    EXPECT_EQ(raw_field(l, "ok"), "false") << l;
    EXPECT_FALSE(raw_field(l, "error").empty()) << l;
  }
  // The daemon survived all of it: a clean request still works.
  daemon.handle_line(submit_line("good", "c17", 0.8));
  daemon.drain();
  const std::vector<std::string> good = results_for(cap.snapshot(), "good");
  ASSERT_EQ(good.size(), 1u);
  EXPECT_EQ(raw_field(good[0], "status"), "ok");
  const DaemonStats s = daemon.stats();
  EXPECT_EQ(s.invalid, bad);
  EXPECT_EQ(s.admitted, 1u);
}

TEST(SizingDaemon, CancelThroughTheProtocol) {
  Capture cap;
  DaemonOptions opt;
  opt.engine.threads = 1;
  SizingDaemon daemon(opt, cap.emit());
  // Occupy the single worker, then queue a job and cancel it by ticket.
  daemon.handle_line(submit_line("blocker", "tiled4x6x2", 0.55));
  wait_for_drain_to_workers(daemon, 0);
  daemon.handle_line(submit_line("victim", "c17", 0.8));
  // The victim's ticket is in its accepted ack.
  std::string ticket;
  for (const std::string& l : cap.snapshot())
    if (raw_field(l, "event") == "accepted" && raw_field(l, "id") == "victim")
      ticket = raw_field(l, "ticket");
  ASSERT_FALSE(ticket.empty());
  daemon.handle_line("{\"op\":\"cancel\",\"ticket\":" + ticket + "}");
  daemon.handle_line("{\"op\":\"cancel\",\"ticket\":99999}");  // never issued
  daemon.drain();

  const std::vector<std::string> lines = cap.snapshot();
  std::vector<std::string> cancels;
  for (const std::string& l : lines)
    if (raw_field(l, "event") == "cancel") cancels.push_back(l);
  ASSERT_EQ(cancels.size(), 2u);
  EXPECT_EQ(raw_field(cancels[0], "ok"), "true");
  EXPECT_EQ(raw_field(cancels[1], "ok"), "false");
  EXPECT_FALSE(raw_field(cancels[1], "error").empty());
  const std::vector<std::string> victim = results_for(lines, "victim");
  ASSERT_EQ(victim.size(), 1u);  // canceled jobs still get their result
  EXPECT_EQ(raw_field(victim[0], "status"), "canceled");
}

// ---------------------------------------------------------------------------
// The overload gate
// ---------------------------------------------------------------------------

TEST(SizingDaemon, OverloadBurstYieldsExactlyOneStructuredResponseEach) {
  Capture cap;
  DaemonOptions opt;
  opt.engine.threads = 1;
  opt.max_queue_depth = 2;  // admission bound
  opt.engine.shed = true;
  SizingDaemon daemon(opt, cap.emit());

  // Occupy the lone worker with a slow job so the burst below queues
  // behind it deterministically.
  daemon.handle_line(submit_line("blocker", "tiled4x6x2", 0.55));
  wait_for_drain_to_workers(daemon, 0);
  // Burst: a job whose deadline is unmeetable by construction (1ns — any
  // dispatch latency exceeds it, so the armed shedder always fires), one
  // admissible job, one submit over the queue bound, one malformed line.
  daemon.handle_line(submit_line("doomed", "c17", 0.8, 0, 1e-9));
  daemon.handle_line(submit_line("fine", "c17", 0.8));
  daemon.handle_line(submit_line("over", "c17", 0.8));  // depth 2 >= bound
  daemon.handle_line("{\"op\":\"submit\"");             // malformed
  daemon.drain();

  const std::vector<std::string> lines = cap.snapshot();
  struct Expect {
    const char* id;
    const char* status;
  };
  const Expect expected[] = {
      {"blocker", "ok"}, {"doomed", "shed"},      {"fine", "ok"},
      {"over", "rejected"},
  };
  for (const Expect& e : expected) {
    const std::vector<std::string> rs = results_for(lines, e.id);
    ASSERT_EQ(rs.size(), 1u) << e.id << ": exactly one terminal response";
    EXPECT_EQ(raw_field(rs[0], "status"), e.status) << rs[0];
  }
  // The malformed line (no id) also got exactly one structured response.
  const std::vector<std::string> anon = results_for(lines, "");
  ASSERT_EQ(anon.size(), 1u);
  EXPECT_EQ(raw_field(anon[0], "status"), "invalid_input");

  const DaemonStats s = daemon.stats();
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.invalid, 1u);
  EXPECT_EQ(s.engine.shed, 1u);
  EXPECT_EQ(s.engine.completed, 3u);
  EXPECT_GE(s.engine.queue_peak, 2u);
  EXPECT_EQ(s.results, 3u);  // engine-delivered results (blocker, doomed, fine)
  EXPECT_GT(s.p50_seconds, 0.0);
  EXPECT_GE(s.p99_seconds, s.p50_seconds);
}

// Shedding is armed by default and through engine.shed alone: a caller
// that clears it gets its expired queued job run, not shed.
TEST(SizingDaemon, ClearedEngineShedRunsAnExpiredQueuedJob) {
  Capture cap;
  DaemonOptions opt;
  EXPECT_TRUE(opt.engine.shed);
  opt.engine.threads = 1;
  opt.engine.shed = false;
  SizingDaemon daemon(opt, cap.emit());
  daemon.handle_line(submit_line("blocker", "tiled4x6x2", 0.55));
  wait_for_drain_to_workers(daemon, 0);
  daemon.handle_line(submit_line("expired", "c17", 0.8, 0, 1e-9));
  daemon.drain();

  const std::vector<std::string> rs = results_for(cap.snapshot(), "expired");
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_NE(raw_field(rs[0], "status"), "shed") << rs[0];
  EXPECT_EQ(daemon.stats().engine.shed, 0u);
}

// ---------------------------------------------------------------------------
// Deadline-pressure admission (the ECO-serving bugfix trio)
// ---------------------------------------------------------------------------

// Before the first result lands there is no EWMA runtime estimate; the
// old gate silently admitted every deadline job through that window. The
// fixed gate falls back to queue-depth-only pressure: refuse
// deadline-carrying submits once the backlog reaches the worker count.
TEST(SizingDaemon, ColdStartDeadlinePressureFallsBackToQueueDepth) {
  Capture cap;
  DaemonOptions opt;
  opt.engine.threads = 1;
  opt.deadline_pressure = 1.0;  // no max_queue_depth: pressure-only gate
  SizingDaemon daemon(opt, cap.emit());

  EXPECT_EQ(daemon.stats().ewma_run_seconds, 0.0);  // cold: no estimate yet
  daemon.handle_line(submit_line("blocker", "tiled4x6x2", 0.55));
  wait_for_drain_to_workers(daemon, 0);
  // Worker busy but backlog empty: a deadline submit is still admitted
  // (the conservative fallback refuses backlog, not all deadline work).
  daemon.handle_line(submit_line("early", "c17", 0.8, 0, 30.0));
  // Backlog now 1 >= 1 worker with no estimate: cold-start refusal.
  daemon.handle_line(submit_line("cold", "c17", 0.8, 0, 30.0));
  daemon.drain();

  const std::vector<std::string> lines = cap.snapshot();
  EXPECT_EQ(raw_field(results_for(lines, "early").at(0), "status"), "ok");
  const std::vector<std::string> cold = results_for(lines, "cold");
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_EQ(raw_field(cold[0], "status"), "rejected");
  EXPECT_NE(cold[0].find("cold start"), std::string::npos) << cold[0];
  const DaemonStats s = daemon.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_GT(s.ewma_run_seconds, 0.0);  // first successes seeded the EWMA
}

// The admission EWMA folds in successful completions only. Shed jobs
// return in near-zero wall time; the old code averaged them in, so a
// storm of failures dragged the estimate toward zero and re-opened
// admission exactly when the daemon was drowning.
TEST(SizingDaemon, FailureStormDoesNotContaminateTheRuntimeEwma) {
  Capture cap;
  DaemonOptions opt;
  opt.engine.threads = 1;
  // deadline_pressure stays 0: admission never refuses
  opt.engine.shed = true;
  SizingDaemon daemon(opt, cap.emit());

  daemon.handle_line(submit_line("seed", "c17", 0.8));
  daemon.drain();
  const double ewma0 = daemon.stats().ewma_run_seconds;
  ASSERT_GT(ewma0, 0.0);

  // Five unmeetable deadlines (1ns): each is shed at dispatch, failing
  // with ok=false in near-zero wall time.
  for (int i = 0; i < 5; ++i)
    daemon.handle_line(submit_line("doomed" + std::to_string(i), "c17", 0.8,
                                   0, 1e-9));
  daemon.drain();
  const DaemonStats s = daemon.stats();
  EXPECT_EQ(s.engine.shed, 5u);
  // Bit-identical: no failed result touched the estimate.
  EXPECT_EQ(s.ewma_run_seconds, ewma0);
}

// Predicted *completion* must include the job's own expected run, not
// just its queue wait: on an idle daemon the old estimate was exactly
// zero, admitting jobs whose deadline their own runtime would blow —
// only to shed or degrade them after the fact.
TEST(SizingDaemon, DeadlinePressureCountsTheJobsOwnRunTime) {
  Capture cap;
  DaemonOptions opt;
  opt.engine.threads = 1;
  opt.deadline_pressure = 1.0;
  SizingDaemon daemon(opt, cap.emit());

  daemon.handle_line(submit_line("seed", "c17", 0.8));
  daemon.drain();
  const double ewma = daemon.stats().ewma_run_seconds;
  ASSERT_GT(ewma, 0.0);
  ASSERT_EQ(daemon.stats().engine.queue_depth, 0u);  // idle: wait is zero

  // Deadline far under one expected run: refused up front even though
  // the queue is empty (the old gate predicted 0 here and admitted).
  daemon.handle_line(submit_line("tight", "c17", 0.8, 0, ewma * 0.25));
  // Deadline comfortably above one expected run: admitted.
  daemon.handle_line(submit_line("roomy", "c17", 0.8, 0, ewma * 100.0));
  daemon.drain();

  const std::vector<std::string> lines = cap.snapshot();
  const std::vector<std::string> tight = results_for(lines, "tight");
  ASSERT_EQ(tight.size(), 1u);
  EXPECT_EQ(raw_field(tight[0], "status"), "rejected");
  EXPECT_NE(tight[0].find("predicted completion"), std::string::npos)
      << tight[0];
  EXPECT_EQ(raw_field(results_for(lines, "roomy").at(0), "status"), "ok");
}

TEST(SizingDaemon, ShutdownRefusesLateSubmitsAndStatsKeepServing) {
  Capture cap;
  DaemonOptions opt;
  opt.engine.threads = 1;
  SizingDaemon daemon(opt, cap.emit());
  daemon.handle_line(submit_line("a", "c17", 0.8));
  EXPECT_FALSE(daemon.shutdown_requested());
  daemon.handle_line("{\"op\":\"shutdown\"}");
  EXPECT_TRUE(daemon.shutdown_requested());
  daemon.handle_line(submit_line("late", "c17", 0.8));
  daemon.drain();
  const std::vector<std::string> lines = cap.snapshot();
  const std::vector<std::string> late = results_for(lines, "late");
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(raw_field(late[0], "status"), "rejected");
  ASSERT_EQ(results_for(lines, "a").size(), 1u);  // admitted work completes
  bool saw_shutdown = false;
  for (const std::string& l : lines)
    if (raw_field(l, "event") == "shutdown") saw_shutdown = true;
  EXPECT_TRUE(saw_shutdown);
}

// ---------------------------------------------------------------------------
// Priority jump + bit-identity with the FIFO batch engine
// ---------------------------------------------------------------------------

TEST(SizingDaemon, PriorityJumpKeepsResultsBitIdenticalToTheFifoBatch) {
  // Reference: the same five jobs as a plain FIFO batch (priority is
  // ignored there; seeds derive from the index == the daemon's ticket).
  LoweredCircuit tiled = lower_gate_level(
      [] {
        TiledDatapathParams p;
        p.lanes = 4;
        p.stages = 6;
        p.bits = 2;
        return make_tiled_datapath(p);
      }(),
      Tech{});
  LoweredCircuit c17 = lower_gate_level(make_c17(), Tech{});
  const double ratios[] = {0.8, 0.7, 0.9};
  std::vector<const SizingNetwork*> nets{&tiled.net, &c17.net};
  std::vector<SizingJob> jobs;
  SizingJob blocker;
  blocker.network = 0;
  blocker.target_ratio = 0.55;
  jobs.push_back(blocker);
  for (const double r : ratios) {
    SizingJob low;
    low.network = 1;
    low.target_ratio = r;
    jobs.push_back(low);
  }
  SizingJob high;
  high.network = 1;
  high.target_ratio = 0.75;
  jobs.push_back(high);
  JobRunnerOptions bopt;
  bopt.threads = 1;
  const BatchResult reference = JobRunner(bopt).run(nets, jobs);
  for (const JobResult& r : reference.results) ASSERT_TRUE(r.ok) << r.error;

  Capture cap;
  DaemonOptions opt;
  opt.engine.threads = 1;
  SizingDaemon daemon(opt, cap.emit());
  daemon.handle_line(submit_line("t0", "tiled4x6x2", 0.55));
  wait_for_drain_to_workers(daemon, 0);  // blocker on the worker, queue empty
  daemon.handle_line(submit_line("t1", "c17", ratios[0]));
  daemon.handle_line(submit_line("t2", "c17", ratios[1]));
  daemon.handle_line(submit_line("t3", "c17", ratios[2]));
  daemon.handle_line(submit_line("t4", "c17", 0.75, /*priority=*/9));
  daemon.drain();

  const std::vector<std::string> lines = cap.snapshot();
  // Dispatch order: the high-priority t4, submitted behind three queued
  // low-priority jobs, must complete before all of them.
  std::vector<std::string> done_ids;
  for (const std::string& l : lines)
    if (raw_field(l, "event") == "result") done_ids.push_back(raw_field(l, "id"));
  ASSERT_EQ(done_ids.size(), 5u);
  const auto pos = [&](const std::string& id) {
    for (std::size_t i = 0; i < done_ids.size(); ++i)
      if (done_ids[i] == id) return i;
    ADD_FAILURE() << "no result for " << id;
    return done_ids.size();
  };
  EXPECT_LT(pos("t4"), pos("t1"));
  EXPECT_LT(pos("t4"), pos("t2"));
  EXPECT_LT(pos("t4"), pos("t3"));

  // Bit-identity: every ticket's solution hash equals the FIFO batch's.
  const char* ids[] = {"t0", "t1", "t2", "t3", "t4"};
  for (std::size_t i = 0; i < 5; ++i) {
    const std::vector<std::string> rs = results_for(lines, ids[i]);
    ASSERT_EQ(rs.size(), 1u) << ids[i];
    EXPECT_EQ(raw_field(rs[0], "status"), "ok") << rs[0];
    EXPECT_EQ(raw_field(rs[0], "seed"),
              std::to_string(reference.results[i].seed))
        << ids[i];
    EXPECT_EQ(raw_field(rs[0], "sizes_hash"),
              std::to_string(fnv_sizes(reference.results[i].result.sizes)))
        << ids[i] << ": scheduled stream must be bit-identical to the batch";
  }
}

}  // namespace
}  // namespace mft
