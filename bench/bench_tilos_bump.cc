// Ablation A3: TILOS bumpsize (§3 uses 1.1). Small bumps give finer initial
// solutions at more STA passes; large bumps overshoot and waste area that
// the W-phase must claw back. Reports TILOS quality/time and the
// MINFLOTRANSIT result seeded from each.
#include <cstdio>

#include "bench_common.h"
#include "util/str.h"
#include "util/table.h"

using namespace mft;
using namespace mft::bench;

int main() {
  std::printf("Ablation: TILOS bumpsize (paper uses 1.1)\n\n");
  const Netlist nl = make_named_circuit("c880");
  const LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const CalibratedTarget cal = calibrate_target(lc.net);
  Table t({"bumpsize", "TILOS bumps", "TILOS area", "TILOS time", "MFT area",
           "MFT savings"});
  for (double bump : {1.01, 1.05, 1.1, 1.2, 1.5, 2.0}) {
    MinflotransitOptions opt;
    opt.tilos.bumpsize = bump;
    const MinflotransitResult r = run_minflotransit(lc.net, cal.target, opt);
    if (!r.initial.met_target) {
      t.add_row({strf("%.2f", bump), "-", "infeasible", "-", "-", "-"});
      continue;
    }
    t.add_row({strf("%.2f", bump), std::to_string(r.initial.bumps),
               strf("%.1f", r.initial.area), strf("%.3fs", r.tilos_seconds),
               strf("%.1f", r.area),
               strf("%.2f%%", 100.0 * (1.0 - r.area / r.initial.area))});
    std::fflush(stdout);
  }
  std::printf("c880 @ %.2f Dmin:\n%s", cal.target / cal.dmin,
              t.to_text().c_str());
  return 0;
}
