// mft_cli — the full command-line face of the sizer, the entry point a
// downstream user would script against. All sizing runs go through the
// engine layer (engine/runner.h): even a single request is a one-job batch,
// and --sweep fans a whole area-delay trade-off curve out across --threads
// workers.
//
// Usage:
//   mft_cli --circuit c6288 --target-ratio 0.7 [options]
//   mft_cli --bench path/to/file.bench --target-ratio 0.6 --granularity transistor
//   mft_cli --circuit c432 --sweep --threads 4 --json sweep.json
//
// Options:
//   --circuit NAME        built-in circuit, grammar and size bound in
//                         gen/circuit_name.h (see --list-circuits)
//   --list-circuits       print every built-in circuit name and exit
//   --bench PATH          read an ISCAS85 .bench file instead
//   --target-ratio R      delay target as a fraction of Dmin, in (0, 2]
//                         (default 0.6)
//   --granularity G       gate | transistor (default gate)
//   --wires               co-size wires (gate granularity only)
//   --tilos-only          stop after the TILOS baseline
//   --beta B              D-phase trust bound, > 0 (default 0.25)
//   --bumpsize B          TILOS bump factor, > 1 (default 1.1)
//   --sweep               run the full area-delay trade-off curve instead
//                         of a single target
//   --ratios R1,R2,...    sweep targets as fractions of Dmin
//                         (default 1.0,0.9,0.8,0.7,0.6,0.5,0.4)
//   --threads N           engine worker threads (default: hardware)
//   --inner-threads N     level-parallel STA/W-phase threads per job
//                         (default 0: leftover --threads capacity goes to
//                         the widest jobs; results identical at any value)
//   --context-cache N     per-worker context-pool LRU bound (0 = keep one
//                         context per network ever touched); eviction
//                         never changes results
//   --shards K            sharded large-netlist solve: cut the network into
//                         K level bands, size them as parallel engine jobs,
//                         reconcile boundary budgets (sizing/shard.h);
//                         K=1 is bit-identical to the monolithic pipeline
//   --json PATH           write machine-readable results as JSON (engine
//                         batch shape; a shard-summary shape with --shards)
//   --csv PATH            write the per-element sizing CSV (single run)
//   --histogram           print the size histogram (single run)
//   --deadline S          per-job wall-clock deadline in seconds (sharded
//                         mode: deadline for the whole solve); an expired
//                         job returns its best-so-far feasible solution
//                         flagged "degraded"
//   --eco PATH            ECO serving replay: solve the base target once,
//                         then apply the delta script at PATH against the
//                         warm session — one line per directive:
//                           target <R>       retarget to R x Dmin
//                           load <v> <dB>    add dB to vertex v's fixed load
//                           pin <v> <size>   pin vertex v (size 0 releases)
//                           apply            resize with the staged delta
//                         '#' comments and blank lines are skipped; each
//                         apply prints mode/delay/area and the re-solve
//                         wall time (warm-start resize, not a fresh solve)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/runner.h"
#include "gen/circuit_name.h"
#include "gen/iscas_analog.h"
#include "netlist/bench_io.h"
#include "netlist/netlist.h"
#include "netlist/stats.h"
#include "sizing/report.h"
#include "sizing/resize.h"
#include "sizing/shard.h"
#include "timing/lowering.h"
#include "util/stopwatch.h"
#include "util/str.h"
#include "util/table.h"

using namespace mft;

namespace {

struct Args {
  std::string circuit = "c17";
  std::string bench_path;
  std::string csv_path;
  std::string json_path;
  std::string eco_path;
  std::string granularity = "gate";
  std::vector<double> sweep_ratios = {1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4};
  double target_ratio = 0.6;
  double beta = 0.25;
  double bumpsize = 1.1;
  int threads = 0;        // 0 = hardware concurrency
  int inner_threads = 0;  // 0 = runner policy (leftover cores)
  int shards = 0;         // 0 = monolithic solve
  int context_cache = 0;  // 0 = unbounded context pools
  double deadline = 0.0;  // 0 = no deadline
  bool sweep = false;
  bool wires = false;
  bool tilos_only = false;
  bool histogram = false;
  bool fast_math = false;
};

/// One line per accepted flag — printed whenever parsing fails, so an
/// unknown or malformed flag gets the full menu, not a bare error.
const char* option_listing() {
  return
      "  --circuit NAME        built-in circuit, grammar and size bound in\n"
      "                        gen/circuit_name.h (see --list-circuits)\n"
      "  --list-circuits       print every built-in circuit name and exit\n"
      "  --bench PATH          read an ISCAS85 .bench file instead\n"
      "  --target-ratio R      delay target as a fraction of Dmin, in (0, 2]\n"
      "                        (default 0.6)\n"
      "  --granularity G       gate | transistor (default gate)\n"
      "  --wires               co-size wires (gate granularity only)\n"
      "  --tilos-only          stop after the TILOS baseline\n"
      "  --beta B              D-phase trust bound, > 0 (default 0.25)\n"
      "  --bumpsize B          TILOS bump factor, > 1 (default 1.1)\n"
      "  --sweep               run the full area-delay trade-off curve\n"
      "  --ratios R1,R2,...    sweep targets as fractions of Dmin\n"
      "  --threads N           engine worker threads (default: hardware)\n"
      "  --inner-threads N     level-parallel STA/W-phase threads per job\n"
      "  --context-cache N     per-worker context-pool LRU bound\n"
      "  --shards K            sharded solve with K level bands\n"
      "  --deadline S          per-job (or per-solve, with --shards) "
      "wall-clock\n"
      "                        deadline in seconds; expired jobs return "
      "their\n"
      "                        best-so-far feasible solution, flagged "
      "degraded\n"
      "  --eco PATH            solve the base target, then replay the ECO\n"
      "                        delta script at PATH against the warm "
      "session\n"
      "                        (directives: target R | load V DB | pin V S "
      "|\n"
      "                        apply; '#' comments)\n"
      "  --fast-math           FP-reassociated delay folds: faster, "
      "reproducible\n"
      "                        for a fixed binary but NOT bit-identical to "
      "the\n"
      "                        default exact mode (incompatible with "
      "--shards,\n"
      "                        whose reconciliation is bit-identity-gated)\n"
      "  --json PATH           write machine-readable results as JSON\n"
      "  --csv PATH            write the per-element sizing CSV (single "
      "run)\n"
      "  --histogram           print the size histogram (single run)\n";
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "error: %s\nusage: mft_cli [options]\noptions:\n%s",
               msg, option_listing());
  std::exit(2);
}

/// Every built-in --circuit spelling, one per line (patterns shown with
/// their parameter syntax). Shared by --list-circuits and the unknown
/// circuit diagnostic.
std::string circuit_listing() {
  std::string out;
  out += "  c17             the 6-NAND c17 benchmark\n";
  out += "  adder<N>        N-bit ripple-carry adder, e.g. adder32\n";
  out += "  tiled<L>x<S>x<B> L-lane S-stage B-bit tiled datapath mesh,\n";
  out += "                  e.g. tiled64x48x4 (~110k gates)\n";
  out += strf("                  (adder and tiled sizes: at most %lld gates)\n",
              static_cast<long long>(kMaxNamedCircuitGates));
  for (const IscasAnalogSpec& spec : iscas85_specs()) {
    const std::size_t pad =
        spec.name.size() < 16 ? 16 - spec.name.size() : 1;
    out += "  " + spec.name + std::string(pad, ' ') + spec.function + "\n";
  }
  return out;
}

std::vector<double> parse_ratio_list(const std::string& s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string item = s.substr(pos, comma - pos);
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (item.empty() || end == item.c_str() || *end != '\0' || v <= 0.0 ||
        v > 2.0)
      usage(("--ratios entry out of (0, 2]: '" + item + "'").c_str());
    out.push_back(v);
    pos = comma + 1;
  }
  if (out.empty()) usage("--ratios needs at least one value");
  return out;
}

Args parse(int argc, char** argv) {
  Args a;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing value");
    return argv[++i];
  };
  // The flag's value as a whole-string double that `ok` accepts, else the
  // usage error.
  auto real = [&](int& i, const std::string& f, auto ok) {
    const char* s = value(i);
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !ok(v))
      usage(("bad " + f + " value '" + std::string(s) + "'").c_str());
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--circuit") a.circuit = value(i);
    else if (f == "--bench") a.bench_path = value(i);
    else if (f == "--target-ratio")
      a.target_ratio =
          real(i, f, [](double v) { return v > 0.0 && v <= 2.0; });
    else if (f == "--granularity") a.granularity = value(i);
    else if (f == "--wires") a.wires = true;
    else if (f == "--tilos-only") a.tilos_only = true;
    else if (f == "--beta")
      a.beta = real(i, f, [](double v) { return v > 0.0 && std::isfinite(v); });
    else if (f == "--bumpsize")
      a.bumpsize =
          real(i, f, [](double v) { return v > 1.0 && std::isfinite(v); });
    else if (f == "--sweep") a.sweep = true;
    else if (f == "--ratios") a.sweep_ratios = parse_ratio_list(value(i));
    else if (f == "--threads" || f == "--inner-threads" || f == "--shards" ||
             f == "--context-cache") {
      const char* s = value(i);
      char* end = nullptr;
      const long v = std::strtol(s, &end, 10);
      if (end == s || *end != '\0' || v < 0)
        usage(("bad " + f + " value '" + std::string(s) + "'").c_str());
      (f == "--threads"         ? a.threads
       : f == "--inner-threads" ? a.inner_threads
       : f == "--shards"        ? a.shards
                                : a.context_cache) = static_cast<int>(v);
    }
    else if (f == "--deadline")
      a.deadline = real(i, f, [](double v) { return v >= 0.0; });
    else if (f == "--fast-math") a.fast_math = true;
    else if (f == "--list-circuits") {
      std::printf("built-in circuits (--circuit NAME):\n%s",
                  circuit_listing().c_str());
      std::exit(0);
    }
    else if (f == "--eco") a.eco_path = value(i);
    else if (f == "--json") a.json_path = value(i);
    else if (f == "--csv") a.csv_path = value(i);
    else if (f == "--histogram") a.histogram = true;
    else usage(("unknown flag " + f).c_str());
  }
  if (a.granularity != "gate" && a.granularity != "transistor")
    usage("--granularity must be gate or transistor");
  if (a.wires && a.granularity != "gate")
    usage("--wires needs --granularity gate");
  if (a.shards > 0 && a.sweep)
    usage("--shards is a single-target mode; drop --sweep");
  if (a.fast_math && a.shards > 0)
    usage(
        "--fast-math cannot be combined with --shards: shard "
        "reconciliation depends on bit-identical re-evaluation of boundary "
        "timing, which FP-reassociated folds do not guarantee");
  if (!a.eco_path.empty() && (a.sweep || a.shards > 0))
    usage("--eco is a single warm-session mode; drop --sweep / --shards");
  return a;
}

/// Builds the requested circuit, exiting with a clear diagnostic (never
/// silent fallback behavior) when --bench is missing/unparsable or
/// --circuit is not a name gen/circuit_name.h accepts.
Netlist build_circuit(const Args& a) {
  if (!a.bench_path.empty()) {
    std::ifstream probe(a.bench_path);
    if (!probe.good()) {
      std::fprintf(stderr, "error: cannot open --bench file '%s'\n",
                   a.bench_path.c_str());
      std::exit(2);
    }
    try {
      return read_bench_file(a.bench_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: failed to parse --bench file '%s':\n  %s\n",
                   a.bench_path.c_str(), e.what());
      std::exit(2);
    }
  }
  try {
    return make_named_circuit(a.circuit);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "error: bad --circuit '%s':\n  %s\n"
                 "available circuits:\n%s",
                 a.circuit.c_str(), e.what(), circuit_listing().c_str());
    std::exit(2);
  }
}

/// The engine configuration shared by every execution mode; a new knob
/// added here reaches single/sweep/sharded alike.
JobRunnerOptions make_runner_options(const Args& args) {
  JobRunnerOptions ropt;
  ropt.threads = args.threads;
  ropt.inner_threads = args.inner_threads;
  ropt.context_cache_limit = args.context_cache;
  ropt.fast_math = args.fast_math;
  return ropt;
}

/// Per-job completion line of the sweep and sharded modes.
void print_progress(const JobResult& r, int done, int total) {
  std::printf("  [%d/%d] %-16s %.2fs on thread %d\n", done, total,
              r.label.c_str(), r.wall_seconds, r.thread);
  std::fflush(stdout);
}

MinflotransitOptions make_options(const Args& args) {
  MinflotransitOptions opt;
  opt.dphase.beta = args.beta;
  opt.tilos.bumpsize = args.bumpsize;
  if (args.tilos_only) opt.max_iterations = 0;
  return opt;
}

/// Shared single-solution epilogue (--histogram / --csv), used by the
/// single-target and sharded modes. Returns false on an I/O failure.
bool write_solution_outputs(const Args& args, const LoweredCircuit& lc,
                            const std::vector<double>& sizes) {
  if (args.histogram)
    std::printf("\nsize histogram (xminimum size):\n%s",
                size_histogram(lc.net, sizes).c_str());
  if (!args.csv_path.empty()) {
    std::ofstream f(args.csv_path);
    if (!f.good()) {
      std::fprintf(stderr, "cannot write %s\n", args.csv_path.c_str());
      return false;
    }
    f << sizing_csv(lc.net, sizes);
    std::printf("\nwrote %s\n", args.csv_path.c_str());
  }
  return true;
}

int run_single(const Args& args, const LoweredCircuit& lc, double dmin) {
  const double target = args.target_ratio * dmin;
  std::printf("%d sizeable elements, Dmin = %.3f, target = %.3f (%.2f Dmin)\n\n",
              lc.net.num_sizeable(), dmin, target, args.target_ratio);

  SizingJob job;
  job.target_ratio = args.target_ratio;
  job.options = make_options(args);
  job.label = args.circuit + strf("@%.2f", args.target_ratio);
  job.deadline_seconds = args.deadline;

  const BatchResult batch =
      JobRunner(make_runner_options(args)).run({&lc.net}, {job});
  const JobResult& r = batch.results.front();
  // Write the machine-readable record first: it carries ok/error fields,
  // so scripted callers get it on failure too (as in --sweep mode).
  if (!args.json_path.empty() && !write_batch_json(args.json_path, batch))
    std::fprintf(stderr, "warning: cannot write %s\n", args.json_path.c_str());
  if (!r.ok) {
    std::fprintf(stderr, "error: sizing failed [%s]: %s\n",
                 to_string(r.status), r.error.c_str());
    return 1;
  }
  if (r.degraded)
    std::printf("DEGRADED [%s]: reporting the best-so-far feasible "
                "solution\n",
                to_string(r.status));
  if (!r.result.initial.met_target) {
    std::printf("TARGET UNREACHABLE: best achievable delay %.4f (%.2f Dmin)\n",
                r.result.initial.achieved_delay,
                r.result.initial.achieved_delay / dmin);
    return 1;
  }
  std::printf("%s\n%s", compare_report(lc.net, r.result).c_str(),
              timing_summary(lc.net, r.result.sizes).c_str());
  std::printf(
      "\nengine     : %d thread%s (%d inner); job wall time %.2fs "
      "(TILOS %.2fs, %d D/W iterations, %lld simplex pivots)\n",
      batch.threads_used, batch.threads_used == 1 ? "" : "s", r.inner_threads,
      r.wall_seconds, r.result.tilos_seconds,
      static_cast<int>(r.result.iterations.size()),
      static_cast<long long>(r.stats.ns_pivots));
  return write_solution_outputs(args, lc, r.result.sizes) ? 0 : 1;
}

int run_sharded(const Args& args, const LoweredCircuit& lc, double dmin) {
  const double target = args.target_ratio * dmin;
  std::printf(
      "%d sizeable elements, Dmin = %.3f, target = %.3f (%.2f Dmin), "
      "%d shards\n\n",
      lc.net.num_sizeable(), dmin, target, args.target_ratio, args.shards);

  ShardOptions opt;
  opt.num_shards = args.shards;
  opt.options = make_options(args);
  opt.deadline_seconds = args.deadline;
  opt.runner = make_runner_options(args);
  opt.runner.progress = print_progress;
  ShardSolveResult r;
  try {
    r = run_sharded_solve(lc.net, target, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: sharded solve failed: %s\n", e.what());
    return 1;
  }
  std::printf("\n");
  if (r.degraded)
    std::printf("DEGRADED [%s]: reporting the best-so-far feasible "
                "solution\n",
                to_string(r.status));
  // Machine-readable record first, like the single/sweep modes: scripted
  // callers get it even when the target turns out unreachable.
  if (!args.json_path.empty()) {
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   args.json_path.c_str());
    } else {
      std::fprintf(
          f,
          "{\n  \"mode\": \"sharded\", \"shards\": %d, \"met_target\": %s,\n"
          "  \"dmin\": %.17g, \"target\": %.17g, \"area\": %.17g, "
          "\"delay\": %.17g,\n"
          "  \"shard_jobs\": %d, \"converged\": %s, \"total_seconds\": %.9g,\n"
          "  \"cut_levels\": [",
          r.num_shards, r.result.met_target ? "true" : "false", dmin, target,
          r.result.area, r.result.delay, r.shard_jobs,
          r.converged ? "true" : "false", r.result.total_seconds);
      for (std::size_t i = 0; i < r.cut_levels.size(); ++i)
        std::fprintf(f, "%s%d", i ? ", " : "", r.cut_levels[i]);
      std::fprintf(f, "],\n  \"rounds\": [\n");
      for (std::size_t i = 0; i < r.rounds.size(); ++i) {
        const ShardRound& rr = r.rounds[i];
        std::fprintf(f,
                     "    {\"critical_path\": %.17g, \"area\": %.17g, "
                     "\"met_target\": %s, \"shards_solved\": %d, "
                     "\"wall_seconds\": %.9g}%s\n",
                     rr.critical_path, rr.area,
                     rr.met_target ? "true" : "false", rr.shards_solved,
                     rr.wall_seconds, i + 1 < r.rounds.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
      std::printf("wrote %s\n", args.json_path.c_str());
    }
  }
  if (!r.result.met_target) {
    std::printf("TARGET UNREACHABLE: best stitched delay %.4f (%.2f Dmin)\n",
                r.result.initial.achieved_delay,
                r.result.initial.achieved_delay / dmin);
    return 1;
  }
  std::printf("%s\n%s", compare_report(lc.net, r.result).c_str(),
              timing_summary(lc.net, r.result.sizes).c_str());
  std::string cuts;
  for (std::size_t i = 0; i < r.cut_levels.size(); ++i)
    cuts += (i ? "," : "") + std::to_string(r.cut_levels[i]);
  std::printf(
      "\nsharding   : %d shards (cut levels %s); %d reconciliation "
      "round%s, %d shard jobs, %sconverged; total %.2fs\n",
      r.num_shards, cuts.c_str(), static_cast<int>(r.rounds.size()),
      r.rounds.size() == 1 ? "" : "s", r.shard_jobs,
      r.converged ? "" : "NOT ", r.result.total_seconds);
  return write_solution_outputs(args, lc, r.result.sizes) ? 0 : 1;
}

int run_sweep(const Args& args, const LoweredCircuit& lc, double dmin) {
  const double min_area = lc.net.area(lc.net.min_sizes());
  std::printf("%d sizeable elements, Dmin = %.3f; sweeping %d targets\n\n",
              lc.net.num_sizeable(), dmin,
              static_cast<int>(args.sweep_ratios.size()));

  std::vector<SizingJob> jobs;
  for (const double ratio : args.sweep_ratios) {
    SizingJob job;
    job.target_ratio = ratio;
    job.options = make_options(args);
    job.label = args.circuit + strf("@%.3f", ratio);
    job.deadline_seconds = args.deadline;
    jobs.push_back(std::move(job));
  }

  JobRunnerOptions ropt = make_runner_options(args);
  ropt.progress = print_progress;
  const BatchResult batch = JobRunner(ropt).run({&lc.net}, jobs);

  Table t({"delay/Dmin", "TILOS area/min", "MFT area/min", "savings",
           "job wall"});
  bool any_failed = false;
  bool any_met = false;
  int degraded = 0;
  for (const JobResult& r : batch.results) {
    if (!r.ok) {
      std::fprintf(stderr, "error: job %s failed [%s]: %s\n", r.label.c_str(),
                   to_string(r.status), r.error.c_str());
      any_failed = true;
      continue;
    }
    if (r.degraded) ++degraded;
    if (!r.result.initial.met_target) {
      t.add_row({strf("%.3f", r.target / dmin), "unreachable", "-", "-",
                 strf("%.2fs", r.wall_seconds)});
      continue;
    }
    any_met = true;
    const double savings = 100.0 * (1.0 - r.result.area / r.result.initial.area);
    t.add_row({strf("%.3f", r.target / dmin),
               strf("%.3f", r.result.initial.area / min_area),
               strf("%.3f", r.result.area / min_area), strf("%.1f%%", savings),
               strf("%.2fs", r.wall_seconds)});
  }
  std::printf("\n%s", t.to_text().c_str());
  if (degraded > 0)
    std::printf("\n%d job%s hit a budget and report%s best-so-far feasible "
                "solutions (see \"degraded\" in --json)\n",
                degraded, degraded == 1 ? "" : "s", degraded == 1 ? "s" : "");
  std::printf(
      "\nengine     : %d thread%s; %d jobs in %.2fs (%.2f jobs/s)\n",
      batch.threads_used, batch.threads_used == 1 ? "" : "s",
      static_cast<int>(batch.results.size()), batch.wall_seconds,
      batch.jobs_per_second);
  if (!args.json_path.empty()) {
    if (write_batch_json(args.json_path, batch))
      std::printf("wrote %s\n", args.json_path.c_str());
    else
      std::fprintf(stderr, "warning: cannot write %s\n",
                   args.json_path.c_str());
  }
  // Scriptable exit code, consistent with the single-run mode: nonzero
  // when any job errored or no target on the curve was reachable.
  return (any_failed || !any_met) ? 1 : 0;
}

/// ECO serving replay: one base cold solve opens the warm session, then
/// the delta script drives resize(delta) — the same warm/cold machinery
/// the daemon's "resize" op serves, minus the protocol.
int run_eco(const Args& args, const LoweredCircuit& lc, double dmin) {
  std::ifstream in(args.eco_path);
  if (!in.good()) {
    std::fprintf(stderr, "error: cannot open --eco script '%s'\n",
                 args.eco_path.c_str());
    return 2;
  }
  const double target = args.target_ratio * dmin;
  std::printf("%d sizeable elements, Dmin = %.3f, base target = %.3f "
              "(%.2f Dmin)\n",
              lc.net.num_sizeable(), dmin, target, args.target_ratio);

  ResizeSession session(lc.net);
  Stopwatch base_sw;
  const ResizeResult base = session.solve(target);
  if (!base.ok || !base.met_target) {
    std::fprintf(stderr, "error: base solve %s\n",
                 base.ok ? "missed the target" : base.error.c_str());
    return 1;
  }
  std::printf("base solve : %.2fs  area %.1f  delay %.4f\n\n",
              base_sw.seconds(), base.area, base.delay);

  ResizeDelta staged;
  int line_no = 0, applies = 0;
  double final_area = base.area, final_delay = base.delay;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op) || op[0] == '#') continue;
    auto bad = [&](const char* why) {
      std::fprintf(stderr, "error: %s:%d: %s: '%s'\n", args.eco_path.c_str(),
                   line_no, why, line.c_str());
      return 1;
    };
    if (op == "target") {
      double ratio = 0.0;
      if (!(ls >> ratio) || !(ratio > 0.0))
        return bad("target needs a positive Dmin ratio");
      staged.target_delay = ratio * dmin;
    } else if (op == "load") {
      ResizeLoadEdit e;
      if (!(ls >> e.vertex >> e.b_delta))
        return bad("load needs '<vertex> <b_delta>'");
      staged.load_edits.push_back(e);
    } else if (op == "pin") {
      ResizePin p;
      if (!(ls >> p.vertex >> p.size))
        return bad("pin needs '<vertex> <size>' (size 0 releases)");
      staged.pins.push_back(p);
    } else if (op == "apply") {
      Stopwatch sw;
      const ResizeResult r = session.resize(staged);
      if (!r.ok) {
        std::fprintf(stderr, "error: %s:%d: resize rejected: %s\n",
                     args.eco_path.c_str(), line_no, r.error.c_str());
        return 1;
      }
      ++applies;
      final_area = r.area;
      final_delay = r.delay;
      std::printf(
          "apply #%-3d : %8.1fms  %-8s%s delay %.4f / %.4f%s  area %.1f  "
          "dirty %d  region %d\n",
          applies, 1e3 * sw.seconds(), to_string(r.mode),
          r.fell_back ? " (fell back)" : "", r.delay, r.target,
          r.met_target ? "" : "  TARGET MISSED", r.area, r.dirty_vertices,
          r.region_vertices);
      staged = ResizeDelta{};
    } else {
      return bad("unknown directive (target | load | pin | apply)");
    }
  }
  if (!staged.load_edits.empty() || !staged.pins.empty() ||
      staged.target_delay != 0.0)
    std::fprintf(stderr,
                 "warning: %s ends with staged edits and no final 'apply'; "
                 "they were not applied\n",
                 args.eco_path.c_str());
  std::printf("\n%d delta%s applied; final area %.1f, delay %.4f (target "
              "%.4f)\n",
              applies, applies == 1 ? "" : "s", final_area, final_delay,
              session.target());
  return write_solution_outputs(args, lc, session.sizes()) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);
  Netlist nl = build_circuit(args);
  if (!args.bench_path.empty()) args.circuit = nl.name();
  std::printf("circuit %s: %s\n", nl.name().c_str(),
              to_string(compute_stats(nl)).c_str());

  if (args.granularity == "transistor" && !nl.is_primitive_only()) {
    std::printf("tech-mapping composites to NAND/NOR/NOT for transistor "
                "sizing...\n");
    nl = tech_map_to_primitives(nl);
  }
  GateLoweringOptions gopt;
  gopt.size_wires = args.wires;
  LoweredCircuit lc = args.granularity == "transistor"
                          ? lower_transistor_level(nl, Tech{})
                          : lower_gate_level(nl, Tech{}, gopt);
  const double dmin = min_sized_delay(lc.net);
  if (!args.eco_path.empty()) return run_eco(args, lc, dmin);
  if (args.sweep) return run_sweep(args, lc, dmin);
  if (args.shards > 0) return run_sharded(args, lc, dmin);
  return run_single(args, lc, dmin);
}
