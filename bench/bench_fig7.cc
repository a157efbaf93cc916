// Reproduces Figure 7: comparative area-delay trade-off curves for gate
// sizing of c432 and c6288, TILOS vs MINFLOTRANSIT. Both axes normalized:
// delay to the minimum-sized circuit's delay, area to the minimum-sized
// circuit's area. Expected shape: the MINFLOTRANSIT curve lies on or below
// the TILOS curve everywhere, with the gap widening at aggressive targets
// on c6288 (paper: 14.2% at 0.5·Dmin).
//
// Both circuits' sweep points are submitted as one engine batch, so with
// --threads N (or MFT_BENCH_THREADS) the whole figure is produced in
// parallel; results are collected in job order, so the printed tables are
// identical at any thread count.
#include <cstdio>

#include "bench_common.h"
#include "util/str.h"
#include "util/table.h"

using namespace mft;
using namespace mft::bench;

int main(int argc, char** argv) {
  const std::vector<std::string> names = {"c432", "c6288"};

  // Sequential prologue: build/lower each circuit and probe its
  // feasibility floor with an aggressive TILOS run (the figure's x-axis
  // starts there).
  std::vector<Netlist> netlists;
  std::vector<LoweredCircuit> lowered;
  std::vector<double> dmin, floor_ratio;
  for (const std::string& name : names) {
    netlists.push_back(make_named_circuit(name));
    lowered.push_back(lower_gate_level(netlists.back(), Tech{}));
    const SizingNetwork& net = lowered.back().net;
    dmin.push_back(min_sized_delay(net));
    floor_ratio.push_back(run_tilos(net, 0.05 * dmin.back()).achieved_delay /
                          dmin.back());
  }

  // One batch over both circuits: (circuit, ratio) jobs in figure order.
  std::vector<const SizingNetwork*> networks;
  for (const LoweredCircuit& lc : lowered) networks.push_back(&lc.net);
  std::vector<SizingJob> jobs;
  for (std::size_t c = 0; c < names.size(); ++c) {
    for (double f : {1.0, 0.9, 0.8, 0.7, 0.55, 0.4, 0.25, 0.1}) {
      SizingJob job;
      job.network = static_cast<int>(c);
      job.target_ratio = floor_ratio[c] + f * (1.0 - floor_ratio[c]);
      job.label = names[c] + strf("@%.3f", job.target_ratio);
      jobs.push_back(std::move(job));
    }
  }

  JobRunnerOptions ropt;
  ropt.threads = bench_threads(argc, argv);
  ropt.inner_threads = bench_inner_threads(argc, argv);
  ropt.progress = print_progress;
  const JobRunner runner(ropt);
  std::printf("running %d sweep jobs on %d threads...\n",
              static_cast<int>(jobs.size()), runner.threads());
  const BatchResult batch = runner.run(networks, jobs);

  for (std::size_t c = 0; c < names.size(); ++c) {
    std::printf("\nFigure 7 series: %s (%d gates, Dmin = %.1f, floor = %.2f Dmin)\n",
                names[c].c_str(), netlists[c].num_logic_gates(), dmin[c],
                floor_ratio[c]);
    Table t({"delay/Dmin", "TILOS area/min", "MFT area/min", "savings"});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].network != static_cast<int>(c)) continue;
      const JobResult& r = batch.results[i];
      if (!r.ok || !r.result.initial.met_target) continue;
      const double savings =
          100.0 * (1.0 - r.result.area / r.result.initial.area);
      t.add_row({strf("%.3f", r.target / dmin[c]),
                 strf("%.3f", r.result.initial.area / r.min_area),
                 strf("%.3f", r.result.area / r.min_area),
                 strf("%.1f%%", savings)});
    }
    std::printf("%s\nCSV:\n%s\n", t.to_text().c_str(), t.to_csv().c_str());
    std::fflush(stdout);
  }
  print_engine_summary(batch);
  return 0;
}
