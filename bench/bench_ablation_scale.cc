// Ablation A4: decimal integerization of the D-phase flow (§2.3.1: "by
// choosing appropriate powers of 10, arbitrary accuracy can be maintained
// with almost no penalty"). Sweeps the cost scaling digits and compares the
// D-phase objective against a high-precision reference, plus the end-to-end
// area.
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "util/stopwatch.h"
#include "util/str.h"
#include "util/table.h"

using namespace mft;
using namespace mft::bench;

int main() {
  std::printf("Ablation: D-phase integerization scale (powers of 10)\n\n");
  const Netlist nl = make_named_circuit("c880");
  const LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const CalibratedTarget cal = calibrate_target(lc.net);
  const TilosResult tilos = run_tilos(lc.net, cal.target);

  DPhaseOptions ref_opt;
  ref_opt.cost_digits = 8;
  ref_opt.supply_digits = 6;
  const DPhaseResult ref = run_dphase(lc.net, tilos.sizes, ref_opt);

  Table t({"cost digits", "supply digits", "objective", "rel err vs 10^8",
           "D-phase time", "MFT final area"});
  for (int digits : {1, 2, 3, 4, 6}) {
    DPhaseOptions opt;
    opt.cost_digits = digits;
    opt.supply_digits = std::max(1, digits - 1);
    Stopwatch sw;
    const DPhaseResult d = run_dphase(lc.net, tilos.sizes, opt);
    const double dphase_time = sw.seconds();
    MinflotransitOptions mopt;
    mopt.dphase = opt;
    const MinflotransitResult r = run_minflotransit(lc.net, cal.target, mopt);
    t.add_row({std::to_string(digits), std::to_string(opt.supply_digits),
               strf("%.4f", d.objective),
               strf("%.2e", std::abs(d.objective - ref.objective) /
                                std::max(1e-12, std::abs(ref.objective))),
               strf("%.4fs", dphase_time), strf("%.2f", r.area)});
    std::fflush(stdout);
  }
  std::printf("c880 @ %.2f Dmin (reference objective %.4f):\n%s",
              cal.target / cal.dmin, ref.objective, t.to_text().c_str());
  return 0;
}
