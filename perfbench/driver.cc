// Repo benchmark driver: runs one workload through the library's public
// API (JobRunner, run_sharded_solve, SizingDaemon::handle_line), checks
// every answer, and prints one JSON line of measurements for run.py.
//
//   mftbench --workload table1|tilos|shard|serve --seed N --seconds S
//            --workdir DIR [--trace-out FILE]
//
// CMakeLists.txt links this object twice: plain, and with trace.cc's span
// recorder interposed on the library entry points. The trace hooks are
// weak, so in the plain binary they are null and nothing is recorded.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/daemon.h"
#include "engine/runner.h"
#include "gen/blocks.h"
#include "gen/iscas_analog.h"
#include "gen/tiled.h"
#include "sizing/minflotransit.h"
#include "sizing/resize.h"
#include "sizing/shard.h"
#include "sizing/tilos.h"
#include "timing/lowering.h"
#include "trace.h"
#include "util/rng.h"
#include "util/str.h"

using namespace mft;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Latency charged to an operation that failed or was refused: it misses
/// every latency limit.
constexpr double kMissed = 1e9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string workdir = ".";
  std::string trace_out;
};

void trace_on(bool on) {
  if (mftbench::trace_enable != nullptr) mftbench::trace_enable(on);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linearly interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double gmean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// ---------------------------------------------------------------------------
// Answers and their checks
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t bits) {
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over the IEEE-754 bits of a size vector: the daemon's sizes_hash,
/// so served hashes and local ones compare directly.
std::uint64_t sizes_hash(const std::vector<double>& sizes) {
  std::uint64_t h = kFnvBasis;
  for (const double d : sizes) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    h = fnv_mix(h, bits);
  }
  return h;
}

/// Checks one answer independently of the library's timing code: sizes
/// inside the tech bounds, the critical path by a plain topological
/// longest-path walk over SizingNetwork::delay and dag() (not run_sta),
/// the area by SizingNetwork::area, and the reported delay, area and
/// met-target claims against both. Returns "" when the answer holds.
std::string check_answer(const SizingNetwork& net,
                         const std::vector<double>& sizes, double target,
                         bool claimed_met, double claimed_delay,
                         double claimed_area) {
  const int n = net.num_vertices();
  if (static_cast<int>(sizes.size()) != n)
    return strf("answer has %zu sizes, network has %d vertices", sizes.size(),
                n);
  const Tech& tech = net.tech();
  for (NodeId v = 0; v < n; ++v) {
    if (net.is_source(v)) continue;
    const double x = sizes[static_cast<std::size_t>(v)];
    if (!(x >= tech.min_size * (1.0 - 1e-12) &&
          x <= tech.max_size * (1.0 + 1e-12)))
      return strf("vertex %d has size %.17g outside [%g, %g]", v, x,
                  tech.min_size, tech.max_size);
  }
  const Digraph& dag = net.dag();
  const std::optional<std::vector<NodeId>> order = dag.topological_order();
  if (!order) return "network is not a DAG";
  std::vector<double> at(static_cast<std::size_t>(n), 0.0);
  double cp = 0.0;
  for (const NodeId v : *order) {
    const double end = at[static_cast<std::size_t>(v)] + net.delay(v, sizes);
    cp = std::max(cp, end);
    for (const ArcId a : dag.out_arcs(v)) {
      double& head = at[static_cast<std::size_t>(dag.head(a))];
      head = std::max(head, end);
    }
  }
  constexpr double kTol = 1e-9;
  if (std::abs(cp - claimed_delay) > kTol * cp)
    return strf("reported delay %.17g, recomputed critical path %.17g",
                claimed_delay, cp);
  const double area = net.area(sizes);
  if (std::abs(area - claimed_area) > kTol * area)
    return strf("reported area %.17g, recomputed %.17g", claimed_area, area);
  if (claimed_met && cp > target * (1.0 + kTol))
    return strf("claims target %.17g met at critical path %.17g", target, cp);
  if (!claimed_met && cp <= target * (1.0 - kTol))
    return strf("claims target %.17g missed at critical path %.17g", target,
                cp);
  return "";
}

/// One timed operation: a batch job, a shard job, or a served request.
struct Op {
  bool ok = false;   ///< answered with status ok and passed its checks
  bool met = false;  ///< the answer meets its delay target
  double latency = kMissed;  ///< due (submission) time to answer
  double service = 0.0;      ///< engine-reported run time of the answer
  double area_ratio = 0.0;   ///< answer area / minimum-sized area
  std::uint64_t hash = 0;    ///< sizes_hash of the answer
};

struct Report {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> errors;  ///< one per failed operation or check
  std::int64_t attempted = 0;
  int reps = 0;
  std::vector<double> unit_walls;  ///< each repetition's timed wall
  std::uint64_t digest = kFnvBasis;  ///< over every answer's sizes_hash
  /// Coverage denominator: summed wall time of the jobs whose root spans
  /// the traced run attributes, and on which threads those roots run.
  double job_wall = 0.0;
  bool roots_main = false;
  bool roots_workers = false;
  /// The driver thread's Pipeline::run only encloses the worker jobs and
  /// waits for them: a container, not self work (shard).
  bool main_pass_container = false;

  void fail(std::string msg) { errors.push_back(std::move(msg)); }
};

/// Timing metrics every workload reports. `reps[r][i]` is operation i of
/// repetition r (every repetition does the same work, so answers must
/// repeat bit for bit); `unit_walls[r]` is repetition r's timed wall.
void summarize(const std::vector<std::vector<Op>>& reps,
               const std::vector<double>& unit_walls, Report& out) {
  const std::vector<Op>& first = reps.front();
  std::vector<double> p50, p90, lat_mean;
  for (std::size_t r = 0; r < reps.size(); ++r) {
    if (reps[r].size() != first.size()) {
      out.fail(strf("repetition %zu ran %zu operations, repetition 1 ran %zu",
                    r + 1, reps[r].size(), first.size()));
      continue;
    }
    std::vector<double> lat;
    for (std::size_t i = 0; i < first.size(); ++i) {
      const Op& op = reps[r][i];
      lat.push_back(op.ok ? op.latency : kMissed);
      if (r > 0 && op.hash != first[i].hash)
        out.fail(strf("operation %zu of repetition %zu differs from "
                      "repetition 1",
                      i + 1, r + 1));
    }
    p50.push_back(quantile(lat, 0.5));
    p90.push_back(quantile(lat, 0.9));
    lat_mean.push_back(mean(lat));
  }
  std::vector<double> service;
  for (std::size_t i = 0; i < first.size(); ++i) {
    out.digest = fnv_mix(out.digest, first[i].hash);
    if (!first[i].ok) continue;
    std::vector<double> s;
    for (const std::vector<Op>& rep : reps)
      if (i < rep.size()) s.push_back(rep[i].service);
    service.push_back(median(s));
  }
  out.reps = static_cast<int>(reps.size());
  out.unit_walls = unit_walls;
  out.e2e["batch_s"] = median(unit_walls);
  out.e2e["job_gmean_s"] = gmean(service);
  out.e2e["p50_s"] = median(p50);
  out.e2e["p90_s"] = median(p90);
  out.e2e["lat_mean_s"] = median(lat_mean);
}

/// area_ratio (geometric mean over answers meeting their target) and
/// met_share (answers meeting their target over answers).
void answer_metrics(const std::vector<Op>& answers, Report& out) {
  std::vector<double> area;
  int answered = 0;
  for (const Op& op : answers) {
    if (!op.ok) continue;
    ++answered;
    if (op.met) area.push_back(op.area_ratio);
  }
  out.e2e["area_ratio"] = gmean(area);
  out.e2e["met_share"] =
      answered > 0 ? static_cast<double>(area.size()) / answered : 0.0;
}

// ---------------------------------------------------------------------------
// Circuits and set-up
// ---------------------------------------------------------------------------

/// One lowered circuit plus the facts every job on it shares.
struct Circuit {
  std::string name;
  std::unique_ptr<LoweredCircuit> lc;
  double dmin = 0.0;
  double min_area = 0.0;

  const SizingNetwork& net() const { return lc->net; }
};

/// "adderN", "rndN" (seeded random logic, 32 inputs), "tiledLxSxB", or an
/// ISCAS85 analog name. Built and lowered the way the daemon builds its
/// circuits, so vertex ids line up with served answers.
Netlist make_netlist(const std::string& name, std::uint64_t seed) {
  if (name.rfind("adder", 0) == 0)
    return make_ripple_adder(std::atoi(name.c_str() + 5));
  if (name.rfind("rnd", 0) == 0) {
    RandomLogicParams p;
    p.num_inputs = 32;
    p.num_gates = std::atoi(name.c_str() + 3);
    p.seed = seed;
    return make_random_logic(p);
  }
  if (name.rfind("tiled", 0) == 0) {
    TiledDatapathParams p;
    std::sscanf(name.c_str(), "tiled%dx%dx%d", &p.lanes, &p.stages, &p.bits);
    return make_tiled_datapath(p);
  }
  return make_iscas_analog(name);
}

struct SetupTimes {
  std::vector<double> total, build, dmin, warmup;

  void add(double t, double b, double d, double w) {
    total.push_back(t);
    build.push_back(b);
    dmin.push_back(d);
    warmup.push_back(w);
  }
  void report(Report& out) const {
    out.e2e["setup_s"] = median(total);
    out.layer["setup.build_s"] = median(build);
    out.layer["setup.dmin_s"] = median(dmin);
    out.layer["setup.warmup_s"] = median(warmup);
  }
};

/// Builds, lowers and freezes every named circuit, then computes Dmin and
/// the minimum-sized area; the two phases are timed separately.
std::vector<Circuit> build_circuits(const std::vector<std::string>& names,
                                    std::uint64_t seed, double* build_s,
                                    double* dmin_s) {
  const Clock::time_point t0 = Clock::now();
  std::vector<Circuit> cs;
  for (const std::string& name : names) {
    Circuit c;
    c.name = name;
    c.lc = std::make_unique<LoweredCircuit>(
        lower_gate_level(make_netlist(name, seed), Tech{}));
    cs.push_back(std::move(c));
  }
  *build_s = seconds_since(t0);
  const Clock::time_point t1 = Clock::now();
  for (Circuit& c : cs) {
    c.dmin = min_sized_delay(c.net());
    c.min_area = c.net().area(c.net().min_sizes());
  }
  *dmin_s = seconds_since(t1);
  return cs;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// The process's peak resident set so far.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// table1 and tilos: one closed JobRunner batch per repetition
// ---------------------------------------------------------------------------

const std::vector<std::string> kTable1 = {
    "adder32", "adder256", "c432",  "c499",  "c880",  "c1355",
    "c1908",   "c2670",    "c3540", "c5315", "c6288", "c7552"};

std::vector<SizingJob> batch_jobs(const std::vector<Circuit>& cs,
                                  const std::vector<double>& ratios,
                                  int max_iterations) {
  std::vector<SizingJob> jobs;
  for (std::size_t c = 0; c < cs.size(); ++c)
    for (const double r : ratios) {
      SizingJob job;
      job.network = static_cast<int>(c);
      job.target_ratio = r;
      job.options.max_iterations = max_iterations;
      job.label = strf("%s@%.1f", cs[c].name.c_str(), r);
      jobs.push_back(std::move(job));
    }
  return jobs;
}

void run_batch(const std::vector<std::string>& names,
               const std::vector<double>& ratios, int max_iterations,
               const Args& a, int threads, Report& out) {
  std::vector<Circuit> cs;
  std::vector<const SizingNetwork*> nets;
  std::unique_ptr<JobRunner> runner;
  SetupTimes setup;
  for (int s = 0; s < kSetupReps; ++s) {
    const Clock::time_point t0 = Clock::now();
    runner.reset();
    cs.clear();
    double build = 0.0, dmin = 0.0;
    cs = build_circuits(names, a.seed, &build, &dmin);
    nets.clear();
    for (const Circuit& c : cs) nets.push_back(&c.net());
    // Untimed warm-up at a target no timed job uses: first-touch
    // allocation in a fresh process is set-up cost, not solver work.
    const Clock::time_point t1 = Clock::now();
    JobRunnerOptions ropt;
    ropt.threads = threads;
    runner = std::make_unique<JobRunner>(ropt);
    const BatchResult warm =
        runner->run(nets, batch_jobs(cs, {0.8}, max_iterations));
    for (const JobResult& r : warm.results)
      if (!r.ok) out.fail("warm-up " + r.label + ": " + r.error);
    setup.add(seconds_since(t0), build, dmin, seconds_since(t1));
  }
  setup.report(out);

  const std::vector<SizingJob> jobs = batch_jobs(cs, ratios, max_iterations);
  std::vector<std::vector<Op>> reps;
  std::vector<double> walls, queue, run, busy;
  BatchResult first;
  trace_on(true);
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    BatchResult b = runner->run(nets, jobs);
    walls.push_back(seconds_since(t0));
    std::vector<Op> ops;
    double busy_s = 0.0;
    for (const JobResult& r : b.results) {
      Op op;
      op.ok = r.ok && !r.degraded;
      op.met = r.result.met_target;
      op.latency = r.queue_seconds + r.wall_seconds;
      op.service = r.wall_seconds;
      op.area_ratio = r.result.area / r.min_area;
      op.hash = sizes_hash(r.result.sizes);
      ops.push_back(op);
      queue.push_back(r.queue_seconds);
      run.push_back(r.wall_seconds);
      busy_s += r.wall_seconds;
    }
    busy.push_back(busy_s / (b.threads_used * walls.back()));
    reps.push_back(std::move(ops));
    if (reps.size() == 1) first = std::move(b);
  } while (seconds_since(start) < a.seconds);
  trace_on(false);

  double accepted = 0.0;
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    const JobResult& r = first.results[i];
    Op& op = reps.front()[i];
    if (!op.ok) {
      out.fail(r.label + ": " + to_string(r.status) + ": " + r.error);
      continue;
    }
    const std::string why = check_answer(
        *nets[static_cast<std::size_t>(jobs[i].network)], r.result.sizes,
        r.target, r.result.met_target, r.result.delay, r.result.area);
    if (!why.empty()) {
      op.ok = false;
      out.fail(r.label + ": " + why);
    }
    accepted += static_cast<double>(r.result.iterations.size());
  }
  summarize(reps, walls, out);
  answer_metrics(reps.front(), out);
  out.attempted = static_cast<std::int64_t>(jobs.size() * reps.size());
  out.layer["engine.queue_wait_s"] = mean(queue);
  out.layer["engine.run_s"] = mean(run);
  out.layer["engine.busy_share"] = mean(busy);
  out.layer["sizing.dphase.accepted"] = accepted;
  for (const double w : run) out.job_wall += w;
  out.roots_workers = true;
}

// ---------------------------------------------------------------------------
// shard: one run_sharded_solve per repetition
// ---------------------------------------------------------------------------

void run_shard(const Args& a, int threads, Report& out) {
  const std::string kCircuit = "tiled24x16x2";
  constexpr int kShards = 4;
  constexpr double kRatio = 0.7;

  struct ShardJob {
    int round = 0;
    int shard = 0;
    bool ok = false;
    double queue = 0.0;
    double wall = 0.0;
    std::uint64_t hash = 0;
    int iterations = 0;
  };
  // Filled by the runner's progress hook (serialized completion
  // callbacks); read only after run_sharded_solve returns.
  std::vector<ShardJob> sink;
  ShardOptions opt;
  opt.num_shards = kShards;
  opt.runner.threads = threads;
  opt.runner.progress = [&sink](const JobResult& r, int, int) {
    sink.push_back(ShardJob{r.shard_round, r.shard, r.ok, r.queue_seconds,
                            r.wall_seconds, sizes_hash(r.result.sizes),
                            static_cast<int>(r.result.iterations.size())});
  };

  std::vector<Circuit> cs;
  SetupTimes setup;
  for (int s = 0; s < kSetupReps; ++s) {
    const Clock::time_point t0 = Clock::now();
    cs.clear();
    double build = 0.0, dmin = 0.0;
    cs = build_circuits({kCircuit}, a.seed, &build, &dmin);
    const Clock::time_point t1 = Clock::now();
    const ShardSolveResult warm =
        run_sharded_solve(cs[0].net(), 0.8 * cs[0].dmin, opt);
    if (warm.status != EngineStatus::kOk)
      out.fail(std::string("warm-up solve: ") + to_string(warm.status));
    setup.add(seconds_since(t0), build, dmin, seconds_since(t1));
  }
  setup.report(out);

  const Circuit& c = cs[0];
  const double target = kRatio * c.dmin;
  std::vector<std::vector<Op>> reps;
  std::vector<Op> solves;
  std::vector<double> walls, queue, run, busy;
  double rounds = 0, jobs = 0, round_s = 0, reconcile_s = 0, slowest_s = 0,
         mean_s = 0, retries = 0, accepted = 0;
  ShardSolveResult first;
  trace_on(true);
  const Clock::time_point start = Clock::now();
  do {
    sink.clear();
    const Clock::time_point t0 = Clock::now();
    ShardSolveResult r;
    try {
      r = run_sharded_solve(c.net(), target, opt);
    } catch (const std::exception& e) {
      out.fail(std::string("sharded solve: ") + e.what());
      break;
    }
    const double wall = seconds_since(t0);
    walls.push_back(wall);
    std::sort(sink.begin(), sink.end(),
              [](const ShardJob& x, const ShardJob& y) {
                return x.round != y.round ? x.round < y.round
                                          : x.shard < y.shard;
              });
    std::vector<Op> ops;
    std::map<int, std::vector<double>> by_round;
    double busy_s = 0.0;
    for (const ShardJob& j : sink) {
      Op op;
      op.ok = j.ok;
      op.met = true;
      op.latency = j.queue + j.wall;
      op.service = j.wall;
      op.hash = j.hash;
      ops.push_back(op);
      queue.push_back(j.queue);
      run.push_back(j.wall);
      busy_s += j.wall;
      by_round[j.round].push_back(j.wall);
      accepted += j.iterations;
    }
    for (const auto& kv : by_round) {
      slowest_s += max_of(kv.second);
      mean_s += mean(kv.second);
    }
    busy.push_back(busy_s / (threads * wall));
    rounds += static_cast<double>(r.rounds.size());
    jobs += r.shard_jobs;
    for (const ShardRound& rr : r.rounds) round_s += rr.wall_seconds;
    reconcile_s += r.reconcile_seconds;
    retries += r.shard_retries;

    Op solve;
    solve.ok = r.status == EngineStatus::kOk;
    solve.met = r.result.met_target;
    solve.latency = wall;
    solve.service = wall;
    solve.area_ratio = r.result.area / c.min_area;
    solve.hash = sizes_hash(r.result.sizes);
    solves.push_back(solve);
    reps.push_back(std::move(ops));
    if (reps.size() == 1) first = std::move(r);
  } while (seconds_since(start) < a.seconds);
  trace_on(false);
  if (reps.empty()) return;

  if (!solves.front().ok)
    out.fail(std::string("sharded solve: ") + to_string(first.status));
  const std::string why =
      check_answer(c.net(), first.result.sizes, target,
                   first.result.met_target, first.result.delay,
                   first.result.area);
  if (!why.empty()) {
    solves.front().ok = false;
    out.fail("sharded solve: " + why);
  }
  for (std::size_t i = 1; i < solves.size(); ++i)
    if (solves[i].hash != solves.front().hash)
      out.fail(strf("sharded solve of repetition %zu differs from "
                    "repetition 1",
                    i + 1));
  summarize(reps, walls, out);
  out.digest = fnv_mix(out.digest, solves.front().hash);
  answer_metrics({solves.front()}, out);
  out.e2e["solve_s"] = out.e2e["batch_s"];
  out.attempted = static_cast<std::int64_t>(solves.size());

  const double n = static_cast<double>(reps.size());
  out.layer["sizing.shard.rounds"] = rounds / n;
  out.layer["sizing.shard.jobs"] = jobs / n;
  out.layer["sizing.shard.round_s"] = round_s / n;
  out.layer["sizing.shard.reconcile_s"] = reconcile_s / n;
  out.layer["sizing.shard.slowest_s"] = slowest_s / n;
  out.layer["sizing.shard.imbalance"] =
      mean_s > 0.0 ? slowest_s / mean_s : 0.0;
  out.layer["sizing.shard.retries"] = retries / n;
  out.layer["engine.queue_wait_s"] = mean(queue);
  out.layer["engine.run_s"] = mean(run);
  out.layer["engine.busy_share"] = mean(busy);
  out.layer["sizing.dphase.accepted"] = accepted / n;
  // Coverage: the per-shard jobs' root spans on the workers over those
  // jobs' own wall times. The driver thread's Pipeline::run span (the
  // whole sharded solve) holds the waits for them.
  for (const double w : run) out.job_wall += w;
  out.roots_workers = true;
  out.main_pass_container = true;
}

// ---------------------------------------------------------------------------
// serve: one in-process SizingDaemon on a seeded open-loop schedule
// ---------------------------------------------------------------------------

const std::vector<std::string> kServeCircuits = {"c432",  "c499",  "c880",
                                                 "c1355", "c1908", "c2670"};
const std::vector<double> kServeRatios = {0.6, 0.7, 0.8};
const std::string kSessionCircuit = "c1908";  // the ECO session's circuit
constexpr double kSessionRatio = 0.7;
// Rates chosen so that the worker pool and the request thread (which runs
// every resize) stay under half busy even when the host runs slow; see
// README.md.
constexpr double kSubmitRate = 16.0;  // cold submits per second
constexpr double kResizeRate = 6.0;  // ECO resizes per second
constexpr double kSubmitSlo = 1.0;   // seconds, due time to result
constexpr double kResizeSlo = 0.1;

/// Raw value of `key` in one flat JSON event line ("" when absent); string
/// values come back without their quotes.
std::string field(const std::string& line, const char* key) {
  const std::string pat = std::string("\"") + key + "\":";
  std::size_t i = line.find(pat);
  if (i == std::string::npos) return "";
  i += pat.size();
  if (i < line.size() && line[i] == '"') {
    const std::size_t end = line.find('"', i + 1);
    return line.substr(i + 1, end == std::string::npos ? end : end - i - 1);
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(i, end - i);
}

double num(const std::string& line, const char* key) {
  return std::strtod(field(line, key).c_str(), nullptr);
}

std::uint64_t u64(const std::string& line, const char* key) {
  return std::strtoull(field(line, key).c_str(), nullptr, 10);
}

/// Every event line the daemon emits, stamped on arrival.
class EventLog {
 public:
  using Entry = std::pair<Clock::time_point, std::string>;

  void add(const std::string& line) {
    const Clock::time_point t = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    events_.emplace_back(t, line);
  }
  std::vector<Entry> take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Entry> out = std::move(events_);
    events_.clear();
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<Entry> events_;
};

struct Request {
  double due = 0.0;  ///< seconds after the schedule starts
  bool resize = false;
  std::string id;
  std::string line;
  std::string circuit;  ///< submit
  double ratio = 0.0;   ///< submit
  ResizeDelta delta;    ///< resize, exactly as `line` encodes it
};

std::string vertex_list(const std::vector<std::pair<NodeId, double>>& items) {
  std::string s;
  for (const auto& it : items)
    s += strf("%s%d:%.17g", s.empty() ? "" : ",", it.first, it.second);
  return s;
}

/// The seeded open-loop schedule. Each class sends a fixed count at its
/// rate; its i-th request is due at a uniform point of the i-th of `count`
/// equal slots of the run (a Poisson stream's rate without its bursts,
/// which made latency too unsteady to gate). Submits cycle through every
/// circuit × ratio pair in a seeded order. Resizes form one ECO delta
/// chain against session `sid`, drawn in arrival order: zero deltas, ±1 %
/// target nudges kept near the base target, clustered load edits on 1–3
/// vertices of a 3-level band (later reverted), and size pins near the base
/// solution (later released), in a fixed mix.
std::vector<Request> make_schedule(std::uint64_t seed, double seconds,
                                   std::uint64_t sid, const SizingNetwork& net,
                                   const std::vector<double>& base_sizes,
                                   double base_target) {
  Rng rng(seed);
  const int ns =
      std::max(1, static_cast<int>(std::lround(kSubmitRate * seconds)));
  const int nr =
      std::max(1, static_cast<int>(std::lround(kResizeRate * seconds)));
  auto arrivals = [&](int count) {
    const double slot = seconds / count;
    std::vector<double> t(static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = slot * (static_cast<double>(i) + rng.uniform(0.0, 1.0));
    return t;
  };
  const std::vector<double> ts = arrivals(ns);
  const std::vector<double> tr = arrivals(nr);
  std::vector<Request> out;

  const std::size_t combos = kServeCircuits.size() * kServeRatios.size();
  std::vector<std::size_t> combo(static_cast<std::size_t>(ns));
  for (std::size_t i = 0; i < combo.size(); ++i) combo[i] = i % combos;
  for (std::size_t i = combo.size() - 1; i > 0; --i)
    std::swap(combo[i], combo[rng.index(i + 1)]);
  for (std::size_t i = 0; i < combo.size(); ++i) {
    Request q;
    q.due = ts[i];
    q.id = strf("s%zu", i);
    q.circuit = kServeCircuits[combo[i] / kServeRatios.size()];
    q.ratio = kServeRatios[combo[i] % kServeRatios.size()];
    q.line = strf(
        "{\"op\":\"submit\",\"id\":\"%s\",\"circuit\":\"%s\",\"ratio\":%.1f}",
        q.id.c_str(), q.circuit.c_str(), q.ratio);
    out.push_back(std::move(q));
  }

  const Tech& tech = net.tech();
  const int levels = net.num_levels();
  std::vector<std::vector<NodeId>> by_level(static_cast<std::size_t>(levels));
  for (NodeId v = 0; v < net.num_vertices(); ++v)
    if (!net.is_source(v) && net.vertex(v).b > 0.0)
      by_level[static_cast<std::size_t>(
                   net.level_of()[static_cast<std::size_t>(v)])]
          .push_back(v);
  std::vector<char> busy(static_cast<std::size_t>(net.num_vertices()), 0);
  struct Edit {
    std::vector<NodeId> vertices;
    double b_delta = 0.0;
  };
  std::vector<Edit> open_edits;
  std::vector<NodeId> pinned;
  auto free_in = [&](int lo, int hi) {
    std::vector<NodeId> cand;
    for (int l = std::max(0, lo); l < std::min(levels, hi); ++l)
      for (const NodeId v : by_level[static_cast<std::size_t>(l)])
        if (!busy[static_cast<std::size_t>(v)]) cand.push_back(v);
    return cand;
  };
  // The kind mix is fixed (40 % zero, 30 % nudges, 20 % load edits, 10 %
  // pins); the seed orders it and picks every delta's contents. Load
  // edits and pins nearly always fall back to a cold solve.
  enum Kind { kZero, kNudge, kLoads, kPins };
  std::vector<Kind> kinds(static_cast<std::size_t>(nr), kPins);
  const int nz = static_cast<int>(std::lround(0.40 * nr));
  const int nn = static_cast<int>(std::lround(0.70 * nr)) - nz;
  const int nl = static_cast<int>(std::lround(0.90 * nr)) - nz - nn;
  for (int k = 0; k < nz + nn + nl; ++k)
    kinds[static_cast<std::size_t>(k)] =
        k < nz ? kZero : (k < nz + nn ? kNudge : kLoads);
  for (std::size_t i = kinds.size() - 1; i > 0; --i)
    std::swap(kinds[i], kinds[rng.index(i + 1)]);
  // Load edits alternate between a new edit and reverting the oldest open
  // one, pins between pinning and releasing.
  bool revert_next = true, release_next = true;
  double target = base_target;
  for (int k = 0; k < nr; ++k) {
    Request q;
    q.due = tr[static_cast<std::size_t>(k)];
    q.resize = true;
    q.id = strf("r%d", k);
    std::string extra;
    const Kind kind = kinds[static_cast<std::size_t>(k)];
    if (kind == kZero) {
      // The zero delta: a fixpoint.
    } else if (kind == kNudge) {
      double dir = rng.flip(0.5) ? 1.0 : -1.0;
      if (target > base_target * 1.015) dir = -1.0;
      if (target < base_target * 0.985) dir = 1.0;
      target *= 1.0 + 0.01 * dir;
      q.delta.target_delay = target;
      extra = strf(",\"target\":%.17g", target);
    } else if (kind == kLoads) {
      std::vector<std::pair<NodeId, double>> loads;
      revert_next = !revert_next;
      if (!open_edits.empty() && revert_next) {
        const Edit e = open_edits.front();
        open_edits.erase(open_edits.begin());
        for (const NodeId v : e.vertices) {
          loads.emplace_back(v, -e.b_delta);
          busy[static_cast<std::size_t>(v)] = 0;
        }
      } else {
        const int lo = rng.uniform_int(0, std::max(0, levels - 3));
        std::vector<NodeId> cand = free_in(lo, lo + 3);
        Edit e;
        e.b_delta = rng.uniform(0.05, 0.3);
        const int want = rng.uniform_int(1, 3);
        while (static_cast<int>(e.vertices.size()) < want && !cand.empty()) {
          const std::size_t i = rng.index(cand.size());
          e.vertices.push_back(cand[i]);
          cand[i] = cand.back();
          cand.pop_back();
        }
        for (const NodeId v : e.vertices) {
          loads.emplace_back(v, e.b_delta);
          busy[static_cast<std::size_t>(v)] = 1;
        }
        if (!e.vertices.empty()) open_edits.push_back(e);
      }
      for (const auto& l : loads)
        q.delta.load_edits.push_back(ResizeLoadEdit{l.first, l.second});
      extra = ",\"loads\":\"" + vertex_list(loads) + "\"";
    } else {
      std::vector<std::pair<NodeId, double>> pins;
      release_next = !release_next;
      if (!pinned.empty() && release_next) {
        const std::size_t i = rng.index(pinned.size());
        const NodeId v = pinned[i];
        pinned[i] = pinned.back();
        pinned.pop_back();
        busy[static_cast<std::size_t>(v)] = 0;
        pins.emplace_back(v, 0.0);
      } else {
        const std::vector<NodeId> cand = free_in(0, levels);
        if (!cand.empty()) {
          const NodeId v = cand[rng.index(cand.size())];
          const double size = std::clamp(
              base_sizes[static_cast<std::size_t>(v)] * rng.uniform(1.0, 1.3),
              tech.min_size, tech.max_size);
          pinned.push_back(v);
          busy[static_cast<std::size_t>(v)] = 1;
          pins.emplace_back(v, size);
        }
      }
      for (const auto& p : pins)
        q.delta.pins.push_back(ResizePin{p.first, p.second});
      extra = ",\"pins\":\"" + vertex_list(pins) + "\"";
    }
    q.line = strf("{\"op\":\"resize\",\"id\":\"%s\",\"session\":%llu%s}",
                  q.id.c_str(), static_cast<unsigned long long>(sid),
                  extra.c_str());
    out.push_back(std::move(q));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Request& x, const Request& y) {
                     return x.due < y.due;
                   });
  return out;
}

void run_serve(const Args& a, int cpus, Report& out) {
  const int workers = std::max(1, cpus - 1);
  const std::string journal = a.workdir + "/serve.journal";
  EventLog log;  // outlives the daemon, whose destructor may still emit
  std::unique_ptr<SizingDaemon> daemon;
  std::map<std::string, Circuit> circuits;  // replay and check copies
  SetupTimes setup;
  std::string base_event;
  std::uint64_t sid = 0;
  for (int s = 0; s < kSetupReps; ++s) {
    const Clock::time_point t0 = Clock::now();
    daemon.reset();
    log.take();
    circuits.clear();
    std::remove(journal.c_str());
    double build = 0.0, dmin = 0.0;
    for (Circuit& c : build_circuits(kServeCircuits, a.seed, &build, &dmin)) {
      const std::string name = c.name;
      circuits[name] = std::move(c);
    }
    // Warm-up: the daemon builds each circuit on first use and its workers
    // touch their buffers; then the ECO session's base job runs and one
    // zero-delta resize builds the session's solver state.
    const Clock::time_point t1 = Clock::now();
    DaemonOptions dopt;
    dopt.engine.threads = workers;
    dopt.journal_path = journal;
    dopt.journal_compact_bytes = 64 * 1024;
    dopt.max_queue_depth = 256;
    daemon = std::make_unique<SizingDaemon>(
        dopt, [&log](const std::string& line) { log.add(line); });
    for (const std::string& name : kServeCircuits)
      daemon->handle_line(strf("{\"op\":\"submit\",\"id\":\"warm-%s\","
                               "\"circuit\":\"%s\",\"ratio\":0.8}",
                               name.c_str(), name.c_str()));
    daemon->handle_line(strf("{\"op\":\"submit\",\"id\":\"base\",\"circuit\":"
                             "\"%s\",\"ratio\":%.1f,\"session\":true}",
                             kSessionCircuit.c_str(), kSessionRatio));
    daemon->drain();
    sid = 0;
    for (const EventLog::Entry& e : log.take()) {
      const std::string& line = e.second;
      if (field(line, "id") == "base" && field(line, "event") == "accepted")
        sid = u64(line, "session");
      if (field(line, "event") != "result") continue;
      if (field(line, "status") != "ok")
        out.fail("warm-up " + field(line, "id") + ": " + field(line, "error"));
      if (field(line, "id") == "base") base_event = line;
    }
    if (sid == 0 || base_event.empty())
      throw std::runtime_error("the ECO session's base job did not answer");
    daemon->handle_line(
        strf("{\"op\":\"resize\",\"id\":\"warm-fixpoint\",\"session\":%llu}",
             static_cast<unsigned long long>(sid)));
    for (const EventLog::Entry& e : log.take())
      if (field(e.second, "status") != "ok")
        out.fail("warm-up resize: " + field(e.second, "error"));
    setup.add(seconds_since(t0), build, dmin, seconds_since(t1));
  }
  setup.report(out);

  // The session's base answer, replayed: the resize chain starts here.
  const Circuit& sc = circuits.at(kSessionCircuit);
  const double base_target = num(base_event, "target");
  if (base_target != kSessionRatio * sc.dmin)
    out.fail("session base: served target differs from ratio x Dmin");
  MinflotransitOptions bopt;
  bopt.seed = u64(base_event, "seed");
  const MinflotransitResult base =
      run_minflotransit(sc.net(), base_target, bopt);
  if (sizes_hash(base.sizes) != u64(base_event, "sizes_hash"))
    out.fail("session base: served sizes_hash differs from the replay");

  const std::vector<Request> sched = make_schedule(
      a.seed, a.seconds, sid, sc.net(), base.sizes, base_target);
  const DaemonStats before = daemon->stats();
  std::vector<double> sent(sched.size(), 0.0);
  double request_busy = 0.0;  // time the request thread spent in handle_line
  trace_on(true);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < sched.size(); ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(sched[i].due)));
    sent[i] = seconds_since(t0);
    daemon->handle_line(sched[i].line);
    request_busy += seconds_since(t0) - sent[i];
  }
  daemon->drain();
  trace_on(false);
  const DaemonStats after = daemon->stats();
  // The daemon's own high-water mark, before the replay below allocates.
  out.e2e["peak_rss_mb"] = peak_rss_mb();

  // Exactly one terminal event per request.
  std::map<std::string, std::vector<std::pair<double, std::string>>> results;
  double last_event = 0.0;
  for (const EventLog::Entry& e : log.take()) {
    if (field(e.second, "event") != "result") continue;
    const double t = std::chrono::duration<double>(e.first - t0).count();
    last_event = std::max(last_event, t);
    results[field(e.second, "id")].emplace_back(t, e.second);
  }
  std::vector<Op> ops(sched.size());
  std::vector<const std::string*> event(sched.size(), nullptr);
  std::vector<double> event_t(sched.size(), 0.0);
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const auto it = results.find(sched[i].id);
    const std::size_t count = it == results.end() ? 0 : it->second.size();
    if (count != 1) {
      out.fail(strf("request %s got %zu terminal events", sched[i].id.c_str(),
                    count));
      continue;
    }
    const std::string& ev = it->second.front().second;
    if (field(ev, "status") != "ok") {
      out.fail(sched[i].id + ": " + field(ev, "status") + ": " +
               field(ev, "error"));
      continue;
    }
    event[i] = &ev;
    event_t[i] = it->second.front().first;
    Op& op = ops[i];
    op.ok = true;
    op.latency = event_t[i] - sched[i].due;
    op.service = num(ev, "wall_seconds");
    op.hash = u64(ev, "sizes_hash");
  }

  // Untimed replay of the submits through run_minflotransit: one solve per
  // (circuit, ratio) pair, plus a solve under a request's own seed whenever
  // its served hash differs (the default pipeline ignores seeds).
  struct Group {
    std::string circuit;
    double ratio = 0.0;
    std::uint64_t seed = 0;
    MinflotransitResult res;
    std::uint64_t hash = 0;
  };
  std::map<std::pair<std::string, double>, Group> groups;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    if (sched[i].resize || event[i] == nullptr) continue;
    Group& g = groups[{sched[i].circuit, sched[i].ratio}];
    if (g.circuit.empty()) {
      g.circuit = sched[i].circuit;
      g.ratio = sched[i].ratio;
      g.seed = u64(*event[i], "seed");
    }
  }
  auto replay = [&circuits](const std::string& name, double ratio,
                            std::uint64_t seed) {
    const Circuit& c = circuits.at(name);
    MinflotransitOptions o;
    o.seed = seed;
    return run_minflotransit(c.net(), ratio * c.dmin, o);
  };
  {
    std::vector<Group*> todo;
    for (auto& kv : groups) todo.push_back(&kv.second);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    const std::size_t n =
        std::min(static_cast<std::size_t>(cpus), todo.size());
    for (std::size_t t = 0; t < n; ++t)
      pool.emplace_back([&] {
        for (std::size_t k = next++; k < todo.size(); k = next++) {
          Group& g = *todo[k];
          g.res = replay(g.circuit, g.ratio, g.seed);
          g.hash = sizes_hash(g.res.sizes);
        }
      });
    for (std::thread& t : pool) t.join();
  }

  // Untimed replay of the resize chain through one ResizeSession, in the
  // order the daemon's request thread applied it.
  ResizeSession rs(sc.net());
  if (!rs.adopt(base.sizes, base_target).ok || !rs.resize(ResizeDelta{}).ok)
    out.fail("resize replay: the session did not adopt the base answer");
  double accepted = 0.0;
  std::map<std::string, double> modes;
  std::vector<double> regions, sub_lat, rsz_lat, queue, run, overhead, late;
  double sub_wall = 0.0, rsz_wall = 0.0;
  int slo_ok = 0, fell_back = 0;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const Request& q = sched[i];
    Op& op = ops[i];
    late.push_back(sent[i] - q.due);
    if (q.resize) {
      const ResizeResult rr = rs.resize(q.delta);
      if (event[i] != nullptr) {
        const std::string& ev = *event[i];
        std::string why;
        if (!rr.ok)
          why = "replay refused the delta: " + rr.error;
        else if (sizes_hash(rr.sizes) != op.hash ||
                 field(ev, "mode") != to_string(rr.mode))
          why = "served answer differs from the replay";
        else
          why = check_answer(rs.net(), rr.sizes, num(ev, "target"),
                             field(ev, "met_target") == "true",
                             num(ev, "delay"), num(ev, "area"));
        if (!why.empty()) {
          op.ok = false;
          out.fail(q.id + ": " + why);
        } else {
          op.met = field(ev, "met_target") == "true";
          op.area_ratio = num(ev, "area") / sc.min_area;
          modes[field(ev, "mode")] += 1.0;
          if (field(ev, "fell_back") == "true") ++fell_back;
          if (num(ev, "region") > 0.0) regions.push_back(num(ev, "region"));
          rsz_wall += op.service;
        }
      }
      rsz_lat.push_back(op.ok ? op.latency : kMissed);
      if (op.ok && op.latency <= kResizeSlo) ++slo_ok;
      continue;
    }
    if (event[i] != nullptr) {
      const std::string& ev = *event[i];
      const Group& g = groups.at({q.circuit, q.ratio});
      const Circuit& c = circuits.at(q.circuit);
      const MinflotransitResult* res = &g.res;
      MinflotransitResult own;
      if (op.hash != g.hash) {
        own = replay(q.circuit, q.ratio, u64(ev, "seed"));
        res = &own;
      }
      std::string why;
      if (num(ev, "target") != q.ratio * c.dmin)
        why = "served target differs from ratio x Dmin";
      else if (sizes_hash(res->sizes) != op.hash)
        why = "served sizes_hash differs from the replay";
      else
        why = check_answer(c.net(), res->sizes, q.ratio * c.dmin,
                           res->met_target, num(ev, "delay"),
                           num(ev, "area"));
      if (!why.empty()) {
        op.ok = false;
        out.fail(q.id + ": " + why);
      } else {
        op.met = res->met_target;
        op.area_ratio = num(ev, "area") / c.min_area;
        accepted += static_cast<double>(res->iterations.size());
        queue.push_back(num(ev, "queue_seconds"));
        run.push_back(op.service);
        overhead.push_back(event_t[i] - sent[i] - queue.back() - op.service);
        sub_wall += op.service;
      }
    }
    sub_lat.push_back(op.ok ? op.latency : kMissed);
    if (op.ok && op.latency <= kSubmitSlo) ++slo_ok;
  }

  const double makespan = last_event - sched.front().due;
  summarize({ops}, {makespan}, out);
  answer_metrics(ops, out);
  out.attempted = static_cast<std::int64_t>(sched.size());
  const double slo_share =
      static_cast<double>(slo_ok) / static_cast<double>(sched.size());
  out.e2e["submit_p50_s"] = quantile(sub_lat, 0.5);
  out.e2e["submit_p90_s"] = quantile(sub_lat, 0.9);
  out.e2e["resize_p50_s"] = quantile(rsz_lat, 0.5);
  out.e2e["resize_p90_s"] = quantile(rsz_lat, 0.9);
  out.e2e["slo_share"] = slo_share;

  std::map<std::string, double>& L = out.layer;
  L["engine.queue_wait_s"] = mean(queue);
  L["engine.run_s"] = mean(run);
  L["engine.busy_share"] = sub_wall / (workers * makespan);
  L["engine.daemon.request_busy_share"] = request_busy / makespan;
  L["engine.daemon.overhead_s"] = mean(overhead);
  L["engine.daemon.late_s"] = mean(late);
  L["engine.daemon.rejected"] =
      static_cast<double>(after.rejected - before.rejected);
  L["engine.daemon.shed"] =
      static_cast<double>(after.engine.shed - before.engine.shed);
  L["engine.daemon.submit_p50_s"] = out.e2e["submit_p50_s"];
  L["engine.daemon.submit_p90_s"] = out.e2e["submit_p90_s"];
  L["engine.daemon.slo_share"] = slo_share;
  L["util.journal.appends"] =
      static_cast<double>(after.journal_records - before.journal_records);
  L["util.journal.fsyncs"] =
      static_cast<double>(after.journal_fsyncs - before.journal_fsyncs);
  L["util.journal.compactions"] = static_cast<double>(
      after.journal_compactions - before.journal_compactions);
  L["sizing.resize.fixpoint"] = modes["fixpoint"];
  L["sizing.resize.warm"] = modes["warm"];
  L["sizing.resize.cold"] = modes["cold"];
  L["sizing.resize.fell_back"] = fell_back;
  L["sizing.resize.warm_share"] =
      modes["warm"] + modes["cold"] > 0.0
          ? modes["warm"] / (modes["warm"] + modes["cold"])
          : 0.0;
  L["sizing.resize.region_vertices"] = mean(regions);
  L["sizing.resize.p50_s"] = out.e2e["resize_p50_s"];
  L["sizing.resize.p90_s"] = out.e2e["resize_p90_s"];
  L["sizing.dphase.accepted"] = accepted;
  out.job_wall = sub_wall + rsz_wall;
  out.roots_main = true;
  out.roots_workers = true;
  daemon.reset();
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Every per-layer metric a workload fills from public result fields or
/// benchmark timers; the ones a workload does not exercise stay 0.
const char* const kPublicLayers[] = {
    "setup.build_s",
    "setup.dmin_s",
    "setup.warmup_s",
    "engine.queue_wait_s",
    "engine.run_s",
    "engine.busy_share",
    "engine.daemon.request_busy_share",
    "engine.daemon.overhead_s",
    "engine.daemon.late_s",
    "engine.daemon.rejected",
    "engine.daemon.shed",
    "engine.daemon.submit_p50_s",
    "engine.daemon.submit_p90_s",
    "engine.daemon.slo_share",
    "util.journal.appends",
    "util.journal.fsyncs",
    "util.journal.compactions",
    "sizing.resize.fixpoint",
    "sizing.resize.warm",
    "sizing.resize.cold",
    "sizing.resize.fell_back",
    "sizing.resize.warm_share",
    "sizing.resize.region_vertices",
    "sizing.resize.p50_s",
    "sizing.resize.p90_s",
    "sizing.shard.rounds",
    "sizing.shard.jobs",
    "sizing.shard.round_s",
    "sizing.shard.reconcile_s",
    "sizing.shard.slowest_s",
    "sizing.shard.imbalance",
    "sizing.shard.retries",
    "sizing.dphase.accepted",
};

/// Per-layer metrics from the span recorder, per repetition.
void add_trace_layers(const mftbench::TraceTotals& t, Report& out) {
  using namespace mftbench;
  std::map<std::string, double>& L = out.layer;
  const double n = std::max(1, out.reps);
  L["mcf.ns_s"] = t.self_s[kNs] / n;
  L["mcf.lp_s"] = t.self_s[kLp] / n;
  L["mcf.solves"] = static_cast<double>(t.calls[kNs]) / n;
  L["mcf.pivots"] = static_cast<double>(t.pivots) / n;
  L["mcf.ns_per_pivot"] =
      t.pivots > 0 ? 1e9 * t.self_s[kNs] / static_cast<double>(t.pivots)
                   : 0.0;
  L["mcf.builds"] = static_cast<double>(t.builds) / n;
  L["timing.sta_tilos_s"] = t.sta_tilos_s / n;
  L["timing.sta_other_s"] = (t.self_s[kSta] - t.sta_tilos_s) / n;
  L["timing.critical_s"] = t.self_s[kCritical] / n;
  L["timing.balance_s"] = t.self_s[kBalance] / n;
  L["timing.weights_s"] = t.self_s[kWeights] / n;
  L["timing.sta_calls"] = static_cast<double>(t.calls[kSta]) / n;
  L["timing.delays_recomputed"] =
      static_cast<double>(t.delays_recomputed) / n;
  L["sizing.tilos.self_s"] = t.self_s[kTilos] / n;
  L["sizing.tilos.bumps"] = static_cast<double>(t.bumps) / n;
  L["sizing.tilos.us_per_bump"] =
      t.bumps > 0 ? 1e6 * t.total_s[kTilos] / static_cast<double>(t.bumps)
                  : 0.0;
  L["sizing.dphase.emit_s"] = t.self_s[kDphase] / n;
  L["sizing.dphase.calls"] = static_cast<double>(t.calls[kDphase]) / n;
  L["sizing.dphase.accept_ratio"] =
      t.calls[kDphase] > 0 ? L["sizing.dphase.accepted"] * n /
                                 static_cast<double>(t.calls[kDphase])
                           : 0.0;
  L["sizing.wphase.self_s"] = t.self_s[kWphase] / n;
  L["sizing.wphase.calls"] = static_cast<double>(t.calls[kWphase]) / n;
  L["sizing.wphase.sweeps"] = static_cast<double>(t.sweeps) / n;
  L["sizing.pass.self_s"] =
      (t.self_s[kPass] - (out.main_pass_container ? t.pass_main_self_s : 0.0)) /
      n;
  const double roots = (out.roots_main ? t.root_main_s : 0.0) +
                       (out.roots_workers ? t.root_worker_s : 0.0);
  L["sizing.pass.coverage"] = out.job_wall > 0.0 ? roots / out.job_wall : 0.0;
  L["sizing.resize.self_s"] = t.self_s[kResize] / n;
  L["util.journal.append_s"] = t.self_s[kJournal] / n;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += strf("\\u%04x", static_cast<unsigned>(c));
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string json_object(const std::map<std::string, double>& m) {
  std::string s;
  for (const auto& kv : m) {
    s += strf("%s\"%s\":", s.empty() ? "" : ",", kv.first.c_str());
    s += std::isfinite(kv.second) ? strf("%.17g", kv.second) : "null";
  }
  return "{" + s + "}";
}

bool parse_args(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload")
      a.workload = v;
    else if (k == "--seed")
      a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds")
      a.seconds = std::atof(v);
    else if (k == "--workdir")
      a.workdir = v;
    else if (k == "--trace-out")
      a.trace_out = v;
    else
      return false;
  }
  return (a.workload == "table1" || a.workload == "tilos" ||
          a.workload == "shard" || a.workload == "serve") &&
         a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload table1|tilos|shard|serve --seed N "
                 "--seconds S --workdir DIR [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  const int cpus = cpu_count();
  Report out;
  for (const char* name : kPublicLayers) out.layer[name] = 0.0;
  try {
    if (a.workload == "table1") {
      run_batch(kTable1, {0.7, 0.6}, MinflotransitOptions{}.max_iterations, a,
                cpus, out);
    } else if (a.workload == "tilos") {
      std::vector<std::string> names = kTable1;
      for (const char* r : {"rnd1000", "rnd2000", "rnd4000"})
        names.push_back(r);
      run_batch(names, {0.7, 0.6, 0.5}, 0, a, cpus, out);
    } else if (a.workload == "shard") {
      run_shard(a, cpus, out);
    } else {
      run_serve(a, cpus, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const bool traced = mftbench::trace_totals != nullptr;
  if (traced) {
    add_trace_layers(mftbench::trace_totals(), out);
    if (!a.trace_out.empty() && !mftbench::trace_write_chrome(a.trace_out))
      out.fail("could not write " + a.trace_out);
  }
  // serve reads it before its untimed replay; the others at exit.
  if (out.e2e.count("peak_rss_mb") == 0)
    out.e2e["peak_rss_mb"] = peak_rss_mb();
  const std::int64_t attempted = std::max<std::int64_t>(1, out.attempted);
  const std::int64_t failed = std::min<std::int64_t>(
      attempted, static_cast<std::int64_t>(out.errors.size()));
  out.e2e["error_share"] =
      static_cast<double>(failed) / static_cast<double>(attempted);
  out.e2e["ok_share"] = 1.0 - out.e2e["error_share"];

  std::string errors;
  for (std::size_t i = 0; i < out.errors.size() && i < 20; ++i)
    errors += (i ? ",\"" : "\"") + json_escape(out.errors[i]) + "\"";
  std::string walls;
  for (const double w : out.unit_walls)
    walls += strf("%s%.6f", walls.empty() ? "" : ",", w);
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"reps\":%d,\"threads\":%d,"
      "\"traced\":%s,\"attempted\":%lld,\"failed\":%lld,"
      "\"digest\":\"%016llx\",\"errors\":[%s],\"unit_walls\":[%s],"
      "\"e2e\":%s,\"layer\":%s}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), out.reps,
      cpus, traced ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed),
      static_cast<unsigned long long>(out.digest), errors.c_str(),
      walls.c_str(), json_object(out.e2e).c_str(),
      json_object(out.layer).c_str());
  return out.errors.empty() ? 0 : 1;
}
