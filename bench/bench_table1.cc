// Reproduces Table 1: area savings of MINFLOTRANSIT over TILOS and the CPU
// time of both, for ripple-carry adders and the ten ISCAS85 analogs, at
// delay specs calibrated so the TILOS area penalty sits in the paper's
// 1.5–1.75× band (§3). Expected shape (not absolute numbers): savings ≈1%
// on adders, 2–17% elsewhere, largest on c6288; MINFLOTRANSIT total time
// within ~2–4× of TILOS.
//
// Both the calibration and the sizing runs go through the engine
// (--threads / MFT_BENCH_THREADS to fan them out): the per-circuit TILOS
// bisection runs in lock step, one batch of probe jobs per bisection step
// (calibrate_targets in bench_common.h), and the sized circuits are one
// final batch. Probe outcomes are bit-identical at any worker count, so
// the delay specs are too; results are collected in job order so the
// table is as well.
#include <cstdio>

#include "bench_common.h"
#include "util/str.h"
#include "util/table.h"

using namespace mft;
using namespace mft::bench;

int main(int argc, char** argv) {
  const std::vector<std::string> circuits = {
      "adder32", "adder256", "c432",  "c499",  "c880",  "c1355",
      "c1908",   "c2670",    "c3540", "c5315", "c6288", "c7552"};

  Table table({"Circuit", "# Gates", "Area savings over TILOS", "Delay spec",
               "CPU (TILOS)", "CPU (OURS)", "TILOS area/min", "MFT area/min"});
  BenchJson json;

  std::printf("Table 1: MINFLOTRANSIT vs TILOS at calibrated delay specs\n");
  std::printf("(paper: UltraSPARC-10 seconds; here: this machine)\n\n");

  // Build and lower every circuit, then calibrate all of them through the
  // engine: each bisection step is one batch of TILOS probe jobs.
  std::vector<Netlist> netlists;
  std::vector<LoweredCircuit> lowered;
  for (const std::string& name : circuits) {
    netlists.push_back(make_named_circuit(name));
    lowered.push_back(lower_gate_level(netlists.back(), Tech{}));
  }
  std::vector<const SizingNetwork*> networks;
  for (const LoweredCircuit& lc : lowered) networks.push_back(&lc.net);

  JobRunnerOptions calopt;
  calopt.threads = bench_threads(argc, argv);
  std::printf("calibrating %d circuits through the engine...\n",
              static_cast<int>(networks.size()));
  const std::vector<CalibratedTarget> cals =
      calibrate_targets(networks, calopt);

  std::vector<SizingJob> jobs;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    SizingJob job;
    job.network = static_cast<int>(c);
    job.target_delay = cals[c].target;  // absolute, calibrated
    job.label = circuits[c];
    jobs.push_back(std::move(job));
  }

  JobRunnerOptions ropt;
  ropt.threads = bench_threads(argc, argv);
  ropt.progress = print_progress;
  const JobRunner runner(ropt);
  std::printf("running %d circuits on %d threads...\n",
              static_cast<int>(jobs.size()), runner.threads());
  const BatchResult batch = runner.run(networks, jobs);

  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const JobResult& jr = batch.results[c];
    if (!jr.ok) {
      std::fprintf(stderr, "error: %s failed: %s\n", circuits[c].c_str(),
                   jr.error.c_str());
      continue;
    }
    const MinflotransitResult& r = jr.result;
    const double min_area = jr.min_area;
    const double savings =
        r.initial.met_target && r.met_target
            ? 100.0 * (1.0 - r.area / r.initial.area)
            : 0.0;
    table.add_row({circuits[c], std::to_string(netlists[c].num_logic_gates()),
                   strf("%.1f%%", savings),
                   strf("%.2f Dmin", jr.target / cals[c].dmin),
                   strf("%.2fs", r.tilos_seconds),
                   strf("%.2fs", r.total_seconds),
                   strf("%.2f", r.initial.area / min_area),
                   strf("%.2f", r.area / min_area)});
    json.add("table1/" + circuits[c], r.total_seconds,
             {{"gates", static_cast<double>(netlists[c].num_logic_gates())},
              {"tilos_seconds", r.tilos_seconds},
              {"iterations", static_cast<double>(r.iterations.size())},
              {"area_savings_pct", savings},
              {"tilos_area_ratio", r.initial.area / min_area},
              {"mft_area_ratio", r.area / min_area},
              {"job_wall_seconds", jr.wall_seconds}});
  }
  std::printf("%s\n", table.to_text().c_str());
  std::printf("CSV:\n%s", table.to_csv().c_str());
  print_engine_summary(batch);
  if (!json.write("BENCH_table1.json"))
    std::fprintf(stderr, "warning: could not write BENCH_table1.json\n");
  return 0;
}
