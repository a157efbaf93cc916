// Ablation A5: where does the win actually come from?
//  1. "W-only"     — no D-phase at all: a single SMP least-fixpoint pass on
//                    the TILOS solution (max_iterations = 0).
//  2. "uniform-D"  — full D/W alternation but with uniform objective
//                    weights instead of the eq. (7) C_i = x_i·y_i.
//  3. "full"       — the paper's algorithm.
// The gap 1→3 is the value of budget redistribution; the gap 2→3 is the
// value of the sensitivity-weighted objective specifically.
#include <cstdio>

#include "bench_common.h"
#include "util/str.h"
#include "util/table.h"

using namespace mft;
using namespace mft::bench;

int main() {
  std::printf("Ablation: W-only vs uniform-weight D-phase vs full MINFLOTRANSIT\n\n");
  Table t({"circuit", "TILOS area", "W-only", "uniform-D", "full",
           "W-only sav", "uniform sav", "full sav"});
  for (const std::string& name :
       {std::string("c880"), std::string("c1355"), std::string("c6288")}) {
    const Netlist nl = make_named_circuit(name);
    const LoweredCircuit lc = lower_gate_level(nl, Tech{});
    const CalibratedTarget cal = calibrate_target(lc.net);

    MinflotransitOptions wonly;
    wonly.max_iterations = 0;
    MinflotransitOptions uniform;
    uniform.dphase.uniform_weights = true;
    const MinflotransitResult a = run_minflotransit(lc.net, cal.target, wonly);
    const MinflotransitResult b = run_minflotransit(lc.net, cal.target, uniform);
    const MinflotransitResult c = run_minflotransit(lc.net, cal.target);
    if (!c.initial.met_target) continue;
    auto sav = [&](const MinflotransitResult& r) {
      return strf("%.2f%%", 100.0 * (1.0 - r.area / r.initial.area));
    };
    t.add_row({name, strf("%.1f", c.initial.area), strf("%.1f", a.area),
               strf("%.1f", b.area), strf("%.1f", c.area), sav(a), sav(b),
               sav(c)});
    std::fflush(stdout);
  }
  std::printf("%s", t.to_text().c_str());
  return 0;
}
