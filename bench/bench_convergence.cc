// Convergence behavior (paper §3: "only a few tens of iterations were
// required ... no more than 100 iterations" on the steepest parts of the
// trade-off curve). Prints the per-iteration area trajectory of the D/W
// alternation for representative circuits at moderate and steep targets.
// The (circuit × target) runs are one engine batch; trajectories come back
// in job order regardless of --threads.
#include <cstdio>

#include "bench_common.h"
#include "util/str.h"
#include "util/table.h"

using namespace mft;
using namespace mft::bench;

int main(int argc, char** argv) {
  const std::vector<std::string> names = {"c432", "c1355", "c6288"};

  std::printf("MINFLOTRANSIT convergence trajectories\n\n");

  // Sequential prologue: build/lower each circuit and probe its floor.
  std::vector<Netlist> netlists;
  std::vector<LoweredCircuit> lowered;
  std::vector<double> dmin, floor_d;
  for (const std::string& name : names) {
    netlists.push_back(make_named_circuit(name));
    lowered.push_back(lower_gate_level(netlists.back(), Tech{}));
    const SizingNetwork& net = lowered.back().net;
    dmin.push_back(min_sized_delay(net));
    floor_d.push_back(run_tilos(net, 0.05 * dmin.back()).achieved_delay);
  }

  std::vector<const SizingNetwork*> networks;
  for (const LoweredCircuit& lc : lowered) networks.push_back(&lc.net);
  std::vector<SizingJob> jobs;
  for (std::size_t c = 0; c < names.size(); ++c) {
    for (double lambda : {0.5, 0.15}) {  // moderate and steep
      SizingJob job;
      job.network = static_cast<int>(c);
      job.target_delay = floor_d[c] + lambda * (dmin[c] - floor_d[c]);
      job.label = names[c] + strf("@%.2fDmin", job.target_delay / dmin[c]);
      jobs.push_back(std::move(job));
    }
  }

  JobRunnerOptions ropt;
  ropt.threads = bench_threads(argc, argv);
  ropt.inner_threads = bench_inner_threads(argc, argv);
  ropt.progress = print_progress;
  const JobRunner runner(ropt);
  std::printf("running %d jobs on %d threads...\n",
              static_cast<int>(jobs.size()), runner.threads());
  const BatchResult batch = runner.run(networks, jobs);

  Table summary({"circuit", "target", "iterations", "TILOS area", "final area",
                 "savings"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::size_t c = static_cast<std::size_t>(jobs[i].network);
    const JobResult& jr = batch.results[i];
    if (!jr.ok || !jr.result.initial.met_target) continue;
    const MinflotransitResult& r = jr.result;
    summary.add_row({names[c], strf("%.2f Dmin", jr.target / dmin[c]),
                     std::to_string(r.iterations.size()),
                     strf("%.1f", r.initial.area), strf("%.1f", r.area),
                     strf("%.1f%%", 100.0 * (1.0 - r.area / r.initial.area))});
    std::printf("%s @ %.2f Dmin — area per iteration:", names[c].c_str(),
                jr.target / dmin[c]);
    for (std::size_t it = 0; it < r.iterations.size(); ++it)
      std::printf("%s %.0f", it ? "," : "", r.iterations[it].area);
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\n%s", summary.to_text().c_str());
  print_engine_summary(batch);
  return 0;
}
