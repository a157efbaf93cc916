// Ablation A2: the D-phase trust bound β (MINΔD/MAXΔD = ∓/±β·delay).
// The paper requires the bounds to be "small" for the Taylor linearization
// (Theorem 3 proof) — too small wastes iterations, too large triggers
// backoffs. Sweeps β and reports final savings, iteration count and time.
#include <cstdio>

#include "bench_common.h"
#include "util/stopwatch.h"
#include "util/str.h"
#include "util/table.h"

using namespace mft;
using namespace mft::bench;

int main() {
  std::printf("Ablation: D-phase trust bound beta\n\n");
  for (const std::string& name : {std::string("c880"), std::string("c1355")}) {
    const Netlist nl = make_named_circuit(name);
    const LoweredCircuit lc = lower_gate_level(nl, Tech{});
    const CalibratedTarget cal = calibrate_target(lc.net);
    Table t({"beta", "savings", "iterations", "time", "final area"});
    for (double beta : {0.02, 0.05, 0.1, 0.25, 0.5, 0.8}) {
      MinflotransitOptions opt;
      opt.dphase.beta = beta;
      Stopwatch sw;
      const MinflotransitResult r = run_minflotransit(lc.net, cal.target, opt);
      t.add_row({strf("%.2f", beta),
                 strf("%.2f%%", 100.0 * (1.0 - r.area / r.initial.area)),
                 std::to_string(r.iterations.size()), strf("%.2fs", sw.seconds()),
                 strf("%.1f", r.area)});
      std::fflush(stdout);
    }
    std::printf("%s (target %.2f Dmin):\n%s\n", name.c_str(),
                cal.target / cal.dmin, t.to_text().c_str());
  }
  return 0;
}
