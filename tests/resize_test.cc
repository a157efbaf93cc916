// Tests for the ECO resize session: the zero-delta fixpoint contract
// (bit-identical sizes), warm-vs-cold equivalence at small perturbations,
// the cold-fallback triggers, pin semantics across re-solves, and delta
// validation leaving a rejected session untouched.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "gen/blocks.h"
#include "sizing/minflotransit.h"
#include "sizing/resize.h"
#include "sizing/tilos.h"
#include "timing/lowering.h"

namespace mft {
namespace {

LoweredCircuit lower(const Netlist& nl) {
  return lower_gate_level(nl, Tech{});
}

/// A non-source vertex whose level sits nearest the middle of the network —
/// a representative spot for a local ECO load edit.
NodeId mid_level_vertex(const SizingNetwork& net) {
  const int want = net.num_levels() / 2;
  NodeId best = -1;
  int best_dist = net.num_levels() + 1;
  for (NodeId v = 0; v < net.num_vertices(); ++v) {
    if (net.is_source(v)) continue;
    const int dist =
        std::abs(net.level_of()[static_cast<std::size_t>(v)] - want);
    if (dist < best_dist) {
      best_dist = dist;
      best = v;
    }
  }
  return best;
}

TEST(Resize, ZeroDeltaIsABitIdenticalFixpoint) {
  LoweredCircuit lc = lower(make_c17());
  const double target = 0.7 * min_sized_delay(lc.net);
  ResizeSession rs(lc.net);
  const ResizeResult base = rs.solve(target);
  ASSERT_TRUE(base.ok) << base.error;
  ASSERT_TRUE(base.met_target);

  const ResizeResult fp = rs.resize(ResizeDelta{});
  ASSERT_TRUE(fp.ok) << fp.error;
  EXPECT_EQ(fp.mode, ResizeMode::kFixpoint);
  EXPECT_EQ(fp.dirty_vertices, 0);
  EXPECT_TRUE(fp.met_target);
  // The contract: bit-identical, not merely close.
  EXPECT_EQ(fp.sizes, base.sizes);

  // And idempotent: a second zero delta returns the same vector again.
  const ResizeResult fp2 = rs.resize(ResizeDelta{});
  ASSERT_TRUE(fp2.ok) << fp2.error;
  EXPECT_EQ(fp2.mode, ResizeMode::kFixpoint);
  EXPECT_EQ(fp2.sizes, base.sizes);
}

TEST(Resize, AdoptedStateIsAFixpointToo) {
  LoweredCircuit lc = lower(make_c17());
  const double target = 0.7 * min_sized_delay(lc.net);
  const MinflotransitResult m = run_minflotransit(lc.net, target);
  ASSERT_TRUE(m.met_target);

  ResizeSession rs(lc.net);
  const ResizeResult a = rs.adopt(m.sizes, target);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.mode, ResizeMode::kFixpoint);
  EXPECT_TRUE(a.met_target);

  const ResizeResult fp = rs.resize(ResizeDelta{});
  ASSERT_TRUE(fp.ok) << fp.error;
  EXPECT_EQ(fp.mode, ResizeMode::kFixpoint);
  EXPECT_EQ(fp.sizes, m.sizes);
}

TEST(Resize, WarmResizeMatchesAColdSolveOnTheEditedNetwork) {
  Netlist nl = make_ripple_adder(16);
  LoweredCircuit warm_lc = lower(nl);
  const double target = 0.75 * min_sized_delay(warm_lc.net);
  const NodeId v = mid_level_vertex(warm_lc.net);
  const double b_delta = 0.05;

  ResizeSession rs(warm_lc.net);
  ASSERT_TRUE(rs.solve(target).ok);
  ResizeDelta delta;
  delta.load_edits.push_back({v, b_delta});
  const ResizeResult warm = rs.resize(delta);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.met_target);
  EXPECT_LE(warm.delay, warm.target * (1.0 + 1e-9));
  EXPECT_EQ(warm.dirty_vertices, 1);
  // A one-vertex edit on this instance stays under the carve threshold.
  EXPECT_EQ(warm.mode, ResizeMode::kWarm);
  EXPECT_FALSE(warm.fell_back);
  EXPECT_GT(warm.region_vertices, 0);
  EXPECT_LT(warm.region_vertices, warm_lc.net.num_vertices());

  // Cold reference: a fresh solve on an identically-edited network.
  LoweredCircuit cold_lc = lower(nl);
  cold_lc.net.eco_add_b(v, b_delta);
  ResizeSession cold_rs(cold_lc.net);
  const ResizeResult cold = cold_rs.solve(target);
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_TRUE(cold.met_target);

  // Both meet timing on the edited network; the warm answer's area must be
  // competitive with the from-scratch solve at this perturbation size.
  EXPECT_LE(warm.area, cold.area * 1.10);
  EXPECT_GE(warm.area, cold.area * 0.90);
}

TEST(Resize, RegionOverThresholdTriggersTheColdFallback) {
  LoweredCircuit lc = lower(make_ripple_adder(8));
  const double target = 0.75 * min_sized_delay(lc.net);
  ResizeOptions opt;
  opt.full_solve_frac = 0.0;  // any dirty region exceeds the threshold
  ResizeSession rs(lc.net, opt);
  ASSERT_TRUE(rs.solve(target).ok);

  ResizeDelta delta;
  delta.load_edits.push_back({mid_level_vertex(rs.net()), 0.05});
  const ResizeResult r = rs.resize(delta);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.mode, ResizeMode::kCold);
  EXPECT_FALSE(r.fell_back);  // warm never attempted, straight to cold
  EXPECT_TRUE(r.met_target);
}

TEST(Resize, InfeasibleRetargetFallsBackAndReportsTheMiss) {
  LoweredCircuit lc = lower(make_c17());
  const double dmin = min_sized_delay(lc.net);
  ResizeSession rs(lc.net);
  ASSERT_TRUE(rs.solve(0.9 * dmin).ok);

  ResizeDelta delta;
  delta.target_delay = 1e-3 * dmin;  // unreachable at any sizing
  const ResizeResult r = rs.resize(delta);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.mode, ResizeMode::kCold);
  EXPECT_TRUE(r.fell_back);  // warm retarget attempted, verification failed
  EXPECT_FALSE(r.met_target);
}

TEST(Resize, LoosenedTargetResolvesWarmWithoutAreaGrowth) {
  LoweredCircuit lc = lower(make_ripple_adder(8));
  const double dmin = min_sized_delay(lc.net);
  ResizeSession rs(lc.net);
  const ResizeResult base = rs.solve(0.6 * dmin);
  ASSERT_TRUE(base.ok);
  ASSERT_TRUE(base.met_target);

  ResizeDelta delta;
  delta.target_delay = 0.8 * dmin;
  const ResizeResult r = rs.resize(delta);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.mode, ResizeMode::kWarm);
  EXPECT_EQ(r.dirty_vertices, 0);
  EXPECT_TRUE(r.met_target);
  // Relaxing the target must never cost area.
  EXPECT_LE(r.area, base.area * (1.0 + 1e-9));
}

TEST(Resize, PinsHoldExactSizesAcrossSubsequentResizes) {
  LoweredCircuit lc = lower(make_ripple_adder(8));
  const double target = 0.75 * min_sized_delay(lc.net);
  ResizeSession rs(lc.net);
  ASSERT_TRUE(rs.solve(target).ok);
  const NodeId pinned = mid_level_vertex(rs.net());
  const double pin_size = 2.5;

  ResizeDelta pin_delta;
  pin_delta.pins.push_back({pinned, pin_size});
  const ResizeResult p = rs.resize(pin_delta);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_TRUE(p.met_target);
  EXPECT_DOUBLE_EQ(p.sizes[static_cast<std::size_t>(pinned)], pin_size);

  // The pin survives an unrelated load edit elsewhere in the network.
  NodeId other = -1;
  for (NodeId v = 0; v < rs.net().num_vertices(); ++v)
    if (!rs.net().is_source(v) && v != pinned) {
      other = v;
      break;
    }
  ASSERT_GE(other, 0);
  ResizeDelta edit;
  edit.load_edits.push_back({other, 0.05});
  const ResizeResult e = rs.resize(edit);
  ASSERT_TRUE(e.ok) << e.error;
  EXPECT_TRUE(e.met_target);
  EXPECT_DOUBLE_EQ(e.sizes[static_cast<std::size_t>(pinned)], pin_size);

  // Releasing the pin (size 0) re-solves with the vertex free again.
  ResizeDelta release;
  release.pins.push_back({pinned, 0.0});
  const ResizeResult f = rs.resize(release);
  ASSERT_TRUE(f.ok) << f.error;
  EXPECT_TRUE(f.met_target);
}

TEST(Resize, RejectedDeltasLeaveTheSessionUntouched) {
  LoweredCircuit lc = lower(make_c17());
  const double target = 0.7 * min_sized_delay(lc.net);
  ResizeSession rs(lc.net);
  const ResizeResult base = rs.solve(target);
  ASSERT_TRUE(base.ok);
  const int n = rs.net().num_vertices();
  NodeId source = -1, gate = -1;
  for (NodeId v = 0; v < n; ++v) {
    if (rs.net().is_source(v) && source < 0) source = v;
    if (!rs.net().is_source(v) && gate < 0) gate = v;
  }
  ASSERT_GE(source, 0);
  ASSERT_GE(gate, 0);

  {
    ResizeDelta d;  // unknown vertex
    d.load_edits.push_back({static_cast<NodeId>(n + 5), 0.1});
    const ResizeResult r = rs.resize(d);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("unknown vertex"), std::string::npos) << r.error;
  }
  {
    ResizeDelta d;  // load edit on a source
    d.load_edits.push_back({source, 0.1});
    const ResizeResult r = rs.resize(d);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("source"), std::string::npos) << r.error;
  }
  {
    ResizeDelta d;  // b driven negative
    d.load_edits.push_back({gate, -1e9});
    const ResizeResult r = rs.resize(d);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("degenerate"), std::string::npos) << r.error;
  }
  {
    ResizeDelta d;  // pin outside the tech's size range
    d.pins.push_back({gate, 1e6});
    const ResizeResult r = rs.resize(d);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("outside"), std::string::npos) << r.error;
  }
  {
    ResizeDelta d;  // negative target
    d.target_delay = -1.0;
    const ResizeResult r = rs.resize(d);
    EXPECT_FALSE(r.ok);
  }
  // Non-finite numbers: refused before any state is touched (a NaN load
  // once reached the network's b before a check refused it).
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double b_before = rs.net().vertex(gate).b;
  for (const double bad : {kNaN, kInf, -kInf}) {
    SCOPED_TRACE(bad);
    ResizeDelta load;
    load.load_edits.push_back({gate, bad});
    const ResizeResult rl = rs.resize(load);
    EXPECT_FALSE(rl.ok);
    EXPECT_NE(rl.error.find("finite"), std::string::npos) << rl.error;
    ResizeDelta target;
    target.target_delay = bad;
    EXPECT_FALSE(rs.resize(target).ok);
  }
  {
    ResizeDelta d;  // NaN pin (once read as a release)
    d.pins.push_back({gate, kNaN});
    const ResizeResult r = rs.resize(d);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("finite"), std::string::npos) << r.error;
  }
  {
    ResizeDelta d;  // finite edits whose sum overflows
    d.load_edits.push_back({gate, 1e308});
    d.load_edits.push_back({gate, 1e308});
    EXPECT_FALSE(rs.resize(d).ok);
  }
  EXPECT_EQ(rs.net().vertex(gate).b, b_before);

  // After every rejection the session is exactly where solve() left it.
  const ResizeResult fp = rs.resize(ResizeDelta{});
  ASSERT_TRUE(fp.ok) << fp.error;
  EXPECT_EQ(fp.mode, ResizeMode::kFixpoint);
  EXPECT_EQ(fp.sizes, base.sizes);
}

TEST(Resize, ResizeBeforeSolveIsRejected) {
  LoweredCircuit lc = lower(make_c17());
  ResizeSession rs(lc.net);
  const ResizeResult r = rs.resize(ResizeDelta{});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no sized state"), std::string::npos) << r.error;
}

}  // namespace
}  // namespace mft
