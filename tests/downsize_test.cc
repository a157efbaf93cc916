// Near-optimality probes (paper Theorem 3): a greedy local search started
// from MINFLOTRANSIT's output should reclaim almost nothing, while started
// from raw TILOS it reclaims plenty — independent evidence that the D/W
// alternation, not luck, removes the greedy oversizing.
#include <gtest/gtest.h>

#include "gen/blocks.h"
#include "sizing/downsize.h"
#include "sizing/minflotransit.h"
#include "timing/lowering.h"

namespace mft {
namespace {

TEST(Downsize, RejectsInfeasibleStart) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const auto x = lc.net.min_sizes();
  const double cp = run_sta(lc.net, x).critical_path;
  EXPECT_THROW(greedy_downsize(lc.net, x, 0.5 * cp), CheckError);
}

TEST(Downsize, PreservesTimingAndNeverGrows) {
  Netlist nl = make_ripple_adder(4);
  LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const double dmin = min_sized_delay(lc.net);
  const double target = 0.6 * dmin;
  const TilosResult tilos = run_tilos(lc.net, target);
  ASSERT_TRUE(tilos.met_target);
  const DownsizeResult d = greedy_downsize(lc.net, tilos.sizes, target);
  EXPECT_LE(d.area, tilos.area * (1 + 1e-12));
  EXPECT_LE(run_sta(lc.net, d.sizes).critical_path, target * (1 + 1e-9));
  for (NodeId v = 0; v < lc.net.num_vertices(); ++v) {
    if (!lc.net.is_source(v)) {
      EXPECT_LE(d.sizes[static_cast<std::size_t>(v)],
                tilos.sizes[static_cast<std::size_t>(v)] * (1 + 1e-12));
    }
  }
}

TEST(Downsize, MinflotransitLeavesLittleOnTheTable) {
  struct Case {
    Netlist (*make)();
    double ratio;    ///< target / Dmin; 0 = 30 % of the way from the
                     ///< TILOS floor up to Dmin
    double reclaim;  ///< largest share of area local search may reclaim
  };
  const Case cases[] = {
      {+[] { return make_c17(); }, 0.0, 0.05},
      {+[] { return make_ripple_adder(4); }, 0.0, 0.05},
      {+[] { return make_comparator(4); }, 0.0, 0.05},
      {+[] { return make_ripple_adder(6); }, 0.55, 0.02},
  };
  for (const Case& c : cases) {
    Netlist nl = c.make();
    LoweredCircuit lc = lower_gate_level(nl, Tech{});
    const double dmin = min_sized_delay(lc.net);
    const double floor_d = run_tilos(lc.net, 0.05 * dmin).achieved_delay;
    const double target =
        c.ratio > 0.0 ? c.ratio * dmin : floor_d + 0.3 * (dmin - floor_d);
    const MinflotransitResult r = run_minflotransit(lc.net, target);
    ASSERT_TRUE(r.met_target) << nl.name();

    const DownsizeResult polish = greedy_downsize(lc.net, r.sizes, target);
    // Local search reclaims little after MINFLOTRANSIT...
    EXPECT_LE(r.area - polish.area, c.reclaim * r.area) << nl.name();
    // ...and the MFT result beats (or ties) even a *polished* TILOS point,
    // because TILOS+local-search is still a local method.
    const DownsizeResult tilos_polished =
        greedy_downsize(lc.net, r.initial.sizes, target);
    EXPECT_LE(r.area, tilos_polished.area * 1.05) << nl.name();
  }
}

}  // namespace
}  // namespace mft
