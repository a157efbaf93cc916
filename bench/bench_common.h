// Shared helpers for the benchmark binaries: flag parsing, timing, JSON
// records, the wide-datapath generator and delay-target calibration.
// Named circuits load through gen/circuit_name.h.
//
// The paper reports rows "for sizing solutions where the area penalty is
// within 1.5–1.75 times that of a minimum sized circuit" (§3). Absolute
// delay values are technology-bound, so each bench calibrates its per-
// circuit target the same way: bisect the delay target until the TILOS area
// ratio lands near the middle of that band.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "engine/runner.h"
#include "gen/blocks.h"
#include "gen/circuit_name.h"
#include "sizing/minflotransit.h"
#include "timing/lowering.h"
#include "util/stopwatch.h"
#include "util/str.h"

namespace mft::bench {

/// Shared `--flag N` / `--flag=N` / environment-variable integer parsing
/// for the bench binaries. A malformed value is a hard error — a silently
/// wrong thread count would mislabel the emitted numbers.
inline int bench_int_flag(int argc, char** argv, const char* flag,
                          const char* env_name, int fallback) {
  auto parse = [&](const char* s) {
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || v < 0) {
      std::fprintf(stderr, "error: bad %s value '%s'\n", flag, s);
      std::exit(2);
    }
    return static_cast<int>(v);
  };
  const std::size_t len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return parse(argv[i + 1]);
    }
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=')
      return parse(argv[i] + len + 1);
  }
  if (env_name != nullptr)
    if (const char* env = std::getenv(env_name)) return parse(env);
  return fallback;
}

/// Engine thread count for a bench binary: `--threads N` / `--threads=N`
/// on the command line, else the MFT_BENCH_THREADS environment variable,
/// else 0 (= hardware concurrency, resolved by JobRunner).
inline int bench_threads(int argc, char** argv) {
  return bench_int_flag(argc, argv, "--threads", "MFT_BENCH_THREADS", 0);
}

/// Inner-loop (level-parallel) thread count: `--inner-threads N`, else the
/// MFT_BENCH_INNER_THREADS environment variable, else `fallback`.
inline int bench_inner_threads(int argc, char** argv, int fallback = 0) {
  return bench_int_flag(argc, argv, "--inner-threads",
                        "MFT_BENCH_INNER_THREADS", fallback);
}

/// Wall times of repeated runs of one timed section. BENCH_*.json numbers
/// derived from a single total are at the mercy of CI noise; `min` is the
/// least-noise estimate of the true cost and `median` its robust central
/// tendency — emit those alongside (or instead of) the total.
struct RepeatTiming {
  std::vector<double> seconds;

  double total() const {
    double t = 0.0;
    for (const double s : seconds) t += s;
    return t;
  }
  double min() const {
    return seconds.empty()
               ? 0.0
               : *std::min_element(seconds.begin(), seconds.end());
  }
  double median() const {
    if (seconds.empty()) return 0.0;
    std::vector<double> sorted = seconds;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  }
};

/// Times `fn()` `repeats` times.
template <typename F>
RepeatTiming time_repeats(int repeats, F&& fn) {
  RepeatTiming t;
  t.seconds.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    Stopwatch sw;
    fn();
    t.seconds.push_back(sw.seconds());
  }
  return t;
}

/// Shared progress line for bench batches.
inline void print_progress(const JobResult& r, int done, int total) {
  std::printf("  [%d/%d] %-20s %6.2fs%s\n", done, total, r.label.c_str(),
              r.wall_seconds, r.ok ? "" : "  FAILED");
  std::fflush(stdout);
}

/// Shared trailer line for bench batches.
inline void print_engine_summary(const BatchResult& batch) {
  std::printf("engine: %d threads, %d jobs in %.1fs (%.2f jobs/s)\n",
              batch.threads_used, static_cast<int>(batch.results.size()),
              batch.wall_seconds, batch.jobs_per_second);
}

/// Machine-readable benchmark record sink. Each entry is one benchmark run
/// (name, wall seconds, and free-form numeric metrics such as pivot counts
/// or optimal costs); write() emits a JSON array so the perf trajectory can
/// be diffed across PRs (BENCH_flow_solvers.json, BENCH_table1.json, ...).
class BenchJson {
 public:
  void add(const std::string& name, double wall_seconds,
           std::vector<std::pair<std::string, double>> metrics = {}) {
    entries_.push_back(Entry{name, wall_seconds, std::move(metrics)});
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f, "  {\"name\": \"%s\", \"wall_seconds\": %.9g",
                   e.name.c_str(), e.wall_seconds);
      for (const auto& [key, value] : e.metrics)
        std::fprintf(f, ", \"%s\": %.17g", key.c_str(), value);
      std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Entry {
    std::string name;
    double wall_seconds = 0.0;
    std::vector<std::pair<std::string, double>> metrics;
  };
  std::vector<Entry> entries_;
};

/// A wide datapath array: `slices` independent `bits`-bit ripple-carry
/// chains in one netlist. Width scales with `slices`, depth with `bits` —
/// the single-large-circuit shape of bench_inner's kernels and bench_eco's
/// serving path.
inline Netlist make_wide_datapath(int slices, int bits) {
  Netlist nl(strf("datapath%dx%d", slices, bits));
  for (int s = 0; s < slices; ++s) {
    const std::string p = "s" + std::to_string(s);
    GateId carry = nl.add_input(p + "_cin");
    for (int i = 0; i < bits; ++i) {
      const GateId a = nl.add_input(strf("%s_a%d", p.c_str(), i));
      const GateId b = nl.add_input(strf("%s_b%d", p.c_str(), i));
      const AdderBits fa =
          add_full_adder_nand(nl, a, b, carry, strf("%s_fa%d", p.c_str(), i));
      carry = fa.cout;
      nl.mark_output(fa.sum);
    }
    nl.mark_output(carry);
  }
  return nl;
}

struct CalibratedTarget {
  double dmin = 0.0;    ///< CP of the minimum-sized circuit
  double target = 0.0;  ///< calibrated delay target
  double tilos_area_ratio = 0.0;  ///< TILOS area / min area at `target`
};

/// Engine-parallel calibration: a per-circuit bisection run in lock step —
/// every bisection step is ONE
/// engine batch of TILOS-only probe jobs (max_iterations = 0) across all
/// circuits, fanned over the runner's workers. Each circuit's bisection
/// decisions depend only on its own probe outcomes, and TILOS probes are
/// bit-identical at any worker/inner-thread count, so the calibrated delay
/// specs are identical to the sequential version at any thread count —
/// while the longest sequential stretch of the Table-1 reproduction now
/// parallelizes like the rest of the batch.
inline std::vector<CalibratedTarget> calibrate_targets(
    const std::vector<const SizingNetwork*>& networks,
    const JobRunnerOptions& ropt, double area_ratio = 1.6, int steps = 7) {
  const std::size_t n = networks.size();
  std::vector<CalibratedTarget> cals(n);
  std::vector<double> lo(n, 0.05), hi(n, 1.0), min_area(n);
  std::vector<double> best_target(n), best_ratio(n, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    min_area[i] = networks[i]->area(networks[i]->min_sizes());
  const JobRunner runner(ropt);
  for (int step = 0; step < steps; ++step) {
    std::vector<SizingJob> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      SizingJob job;
      job.network = static_cast<int>(i);
      // Ratio-form target: the runner resolves mid * Dmin itself (same
      // arithmetic on the same cached Dmin), so Dmin is computed exactly
      // once per network — in the runner's NetInfo cache — instead of a
      // second time here.
      job.target_ratio = 0.5 * (lo[i] + hi[i]);
      // D/W refinement off; the pinned pipeline shape (engine_test's
      // legacy contract) still runs one W-phase canonicalization per
      // feasible probe — it never touches result.initial, which is all
      // the bisection reads, and costs little next to the TILOS probe.
      job.options.max_iterations = 0;
      job.label = "calibrate/" + std::to_string(i) + "@" +
                  std::to_string(step);
      jobs.push_back(std::move(job));
    }
    const BatchResult batch = runner.run(networks, jobs);
    for (std::size_t i = 0; i < n; ++i) {
      const double mid = 0.5 * (lo[i] + hi[i]);
      const JobResult& jr = batch.results[i];
      if (step == 0) {
        cals[i].dmin = jr.dmin;  // the runner's cached min-sized delay
        best_target[i] = cals[i].dmin;
      }
      if (!jr.ok) {
        // A dead probe is a bench bug, not an infeasible target; treating
        // it as the latter would silently loosen the calibrated spec and
        // mislabel every downstream number.
        std::fprintf(stderr, "error: calibration probe %s failed: %s\n",
                     jr.label.c_str(), jr.error.c_str());
        std::exit(2);
      }
      if (!jr.result.initial.met_target) {
        lo[i] = mid;  // infeasible: relax
        continue;
      }
      best_target[i] = mid * cals[i].dmin;
      best_ratio[i] = jr.result.initial.area / min_area[i];
      if (best_ratio[i] > area_ratio)
        lo[i] = mid;  // too expensive: relax the target
      else
        hi[i] = mid;  // cheap: tighten
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    cals[i].target = best_target[i];
    cals[i].tilos_area_ratio = best_ratio[i];
  }
  return cals;
}

/// Single-circuit calibration: bisects the delay target so TILOS lands at
/// roughly `area_ratio` times the minimum-sized area (the paper's
/// 1.5–1.75 band -> default 1.6). Delegates to calibrate_targets with a
/// one-job batch, so there is exactly one copy of the bisection rule.
inline CalibratedTarget calibrate_target(const SizingNetwork& net,
                                         double area_ratio = 1.6,
                                         int steps = 7) {
  JobRunnerOptions ropt;
  ropt.threads = 1;
  return calibrate_targets({&net}, ropt, area_ratio, steps).front();
}

}  // namespace mft::bench
