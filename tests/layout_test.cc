// Tests for the frozen SweepPlan layout (timing/sizing_network.h) and the
// level-contiguous streaming kernels built on it:
//  - structural validity: the sweep permutation is topological and level-
//    contiguous, the CSR tables mirror the AoS construction data
//    (SizingVertex::loads, reverse_loads(), the timing DAG) term for term,
//  - bit-identity: the streaming STA / W-phase kernels reproduce direct
//    array-of-structs reference implementations EXACTLY (operator== on
//    doubles) across all three lowerings on randomized size vectors — the
//    layout refactor is a memory-order change, not a numerical one,
//  - fast-math: the explicitly gated reassociated folds stay within the
//    tolerance documented on SweepPlan::delay_at_fast (1e-12 relative per
//    delay, 1e-9 on accumulated path quantities).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "gen/blocks.h"
#include "sizing/wphase.h"
#include "timing/lowering.h"
#include "timing/sta.h"
#include "util/rng.h"

namespace mft {
namespace {

/// The three lowerings of one shared circuit, by ablation-arm index.
SizingNetwork make_net(int lowering) {
  const Netlist nl = make_ripple_adder(24);
  if (lowering == 2) return std::move(lower_transistor_level(nl, Tech{}).net);
  GateLoweringOptions opt;
  opt.size_wires = lowering == 1;
  return std::move(lower_gate_level(nl, Tech{}, opt).net);
}

std::vector<double> random_sizes(const SizingNetwork& net, Rng& rng) {
  std::vector<double> x = net.min_sizes();
  for (NodeId v = 0; v < net.num_vertices(); ++v)
    if (!net.is_source(v))
      x[static_cast<std::size_t>(v)] *= rng.uniform(1.0, 8.0);
  return x;
}

// ---------------------------------------------------------------------------
// Array-of-structs reference kernels: the pre-SweepPlan walks (per-vertex
// heap load vectors, id-indexed values, Digraph adjacency, topological
// order). Everything the streaming kernels compute must match these
// bit for bit.
// ---------------------------------------------------------------------------

double aos_delay(const SizingNetwork& net, NodeId v,
                 const std::vector<double>& sizes) {
  const SizingVertex& sv = net.vertex(v);
  if (sv.kind == VertexKind::kSource) return 0.0;
  double load = sv.b;
  for (const LoadTerm& t : sv.loads)
    load += t.coeff * sizes[static_cast<std::size_t>(t.vertex)];
  return sv.a_self + load / sizes[static_cast<std::size_t>(v)];
}

TimingReport aos_run_sta(const SizingNetwork& net,
                         const std::vector<double>& sizes) {
  const std::size_t n = static_cast<std::size_t>(net.num_vertices());
  const Digraph& g = net.dag();
  TimingReport r;
  r.delay.resize(n);
  r.at.assign(n, 0.0);
  r.rt.assign(n, std::numeric_limits<double>::infinity());
  for (NodeId v = 0; v < net.num_vertices(); ++v)
    r.delay[static_cast<std::size_t>(v)] = aos_delay(net, v, sizes);
  r.critical_path = 0.0;
  r.cp_vertex = kInvalidNode;
  for (NodeId v : net.topological_order()) {
    double at = 0.0;
    for (ArcId a : g.in_arcs(v)) {
      const NodeId j = g.tail(a);
      at = std::max(at, r.at[static_cast<std::size_t>(j)] +
                            r.delay[static_cast<std::size_t>(j)]);
    }
    r.at[static_cast<std::size_t>(v)] = at;
    const double end = at + r.delay[static_cast<std::size_t>(v)];
    if (r.cp_vertex == kInvalidNode || end > r.critical_path) {
      r.critical_path = end;
      r.cp_vertex = v;
    }
  }
  const auto& topo = net.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    double rt = std::numeric_limits<double>::infinity();
    if (net.vertex(v).is_po || g.out_degree(v) == 0)
      rt = r.critical_path - r.delay[static_cast<std::size_t>(v)];
    for (ArcId a : g.out_arcs(v)) {
      const NodeId j = g.head(a);
      rt = std::min(rt, r.rt[static_cast<std::size_t>(j)] -
                            r.delay[static_cast<std::size_t>(v)]);
    }
    r.rt[static_cast<std::size_t>(v)] = rt;
  }
  return r;
}

WPhaseResult aos_wphase(const SizingNetwork& net,
                        const std::vector<double>& budget) {
  const Tech& tech = net.tech();
  WPhaseResult res;
  res.sizes = net.min_sizes();
  const auto& topo = net.topological_order();
  const int max_sweeps = std::max(4, net.num_vertices());
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    ++res.sweeps;
    double max_rel_change = 0.0;
    char infeasible = 0;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const NodeId v = *it;
      const SizingVertex& sv = net.vertex(v);
      if (sv.kind == VertexKind::kSource) continue;
      const double d = budget[static_cast<std::size_t>(v)];
      if (d <= sv.a_self) {
        infeasible = 1;
        res.sizes[static_cast<std::size_t>(v)] = tech.max_size;
        continue;
      }
      double load = sv.b;
      for (const LoadTerm& t : sv.loads)
        load += t.coeff * res.sizes[static_cast<std::size_t>(t.vertex)];
      double x = load / (d - sv.a_self);
      if (x > tech.max_size) {
        infeasible = 1;
        x = tech.max_size;
      }
      x = std::max(x, tech.min_size);
      const double old = res.sizes[static_cast<std::size_t>(v)];
      max_rel_change = std::max(max_rel_change, std::abs(x - old) / old);
      res.sizes[static_cast<std::size_t>(v)] = x;
    }
    if (infeasible) res.feasible = false;
    if (max_rel_change < 1e-12) break;
  }
  return res;
}

TEST(SweepPlan, StructureMirrorsConstructionData) {
  for (int lowering = 0; lowering < 3; ++lowering) {
    SCOPED_TRACE("lowering " + std::to_string(lowering));
    const SizingNetwork net = make_net(lowering);
    const SweepPlan& pl = net.plan();
    const int n = net.num_vertices();
    ASSERT_EQ(pl.n, n);

    // vid is exactly the level order, pos_of its inverse.
    ASSERT_EQ(pl.vid, net.level_order());
    for (int p = 0; p < n; ++p) {
      EXPECT_EQ(pl.pos_of[static_cast<std::size_t>(
                    pl.vid[static_cast<std::size_t>(p)])],
                p);
      EXPECT_EQ(pl.topo_pos[static_cast<std::size_t>(p)],
                net.topo_position()[static_cast<std::size_t>(
                    pl.vid[static_cast<std::size_t>(p)])]);
    }

    // The permutation is topological: every timing arc and every load
    // dependency crosses strictly forward in position space. (Loads point
    // at fanout vertices — strictly HIGHER positions — which is what lets
    // the W-phase relax in reverse position order.)
    const Digraph& g = net.dag();
    for (ArcId a = 0; a < g.num_arcs(); ++a)
      EXPECT_LT(pl.pos_of[static_cast<std::size_t>(g.tail(a))],
                pl.pos_of[static_cast<std::size_t>(g.head(a))]);

    // Levels are contiguous position runs.
    const auto& off = net.level_offsets();
    for (int l = 0; l < net.num_levels(); ++l)
      for (int p = off[static_cast<std::size_t>(l)];
           p < off[static_cast<std::size_t>(l) + 1]; ++p)
        EXPECT_EQ(net.level_of()[static_cast<std::size_t>(
                      pl.vid[static_cast<std::size_t>(p)])],
                  l);

    // SoA attributes and the four CSR tables mirror the AoS data exactly,
    // preserving per-vertex term order (the bit-identity precondition).
    for (int p = 0; p < n; ++p) {
      const std::size_t pi = static_cast<std::size_t>(p);
      const NodeId v = pl.vid[pi];
      const SizingVertex& sv = net.vertex(v);
      EXPECT_EQ(pl.a_self[pi], sv.a_self);
      EXPECT_EQ(pl.b[pi], sv.b);
      EXPECT_EQ(pl.source[pi] != 0, sv.kind == VertexKind::kSource);
      EXPECT_EQ(pl.sink[pi] != 0, sv.is_po || g.out_degree(v) == 0);

      ASSERT_EQ(pl.load_off[pi + 1] - pl.load_off[pi],
                static_cast<int>(sv.loads.size()));
      for (std::size_t t = 0; t < sv.loads.size(); ++t) {
        const std::size_t k = static_cast<std::size_t>(pl.load_off[pi]) + t;
        EXPECT_EQ(pl.load_pos[k],
                  pl.pos_of[static_cast<std::size_t>(sv.loads[t].vertex)]);
        EXPECT_EQ(pl.load_coeff[k], sv.loads[t].coeff);
      }

      const auto& rev = net.reverse_loads()[static_cast<std::size_t>(v)];
      ASSERT_EQ(pl.rload_off[pi + 1] - pl.rload_off[pi],
                static_cast<int>(rev.size()));
      for (std::size_t t = 0; t < rev.size(); ++t) {
        const std::size_t k = static_cast<std::size_t>(pl.rload_off[pi]) + t;
        EXPECT_EQ(pl.rload_pos[k],
                  pl.pos_of[static_cast<std::size_t>(rev[t].vertex)]);
        EXPECT_EQ(pl.rload_coeff[k], rev[t].coeff);
      }

      const auto& in = g.in_arcs(v);
      ASSERT_EQ(pl.fanin_off[pi + 1] - pl.fanin_off[pi],
                static_cast<int>(in.size()));
      for (std::size_t t = 0; t < in.size(); ++t)
        EXPECT_EQ(pl.fanin_pos[static_cast<std::size_t>(pl.fanin_off[pi]) + t],
                  pl.pos_of[static_cast<std::size_t>(g.tail(in[t]))]);

      const auto& out = g.out_arcs(v);
      ASSERT_EQ(pl.fanout_off[pi + 1] - pl.fanout_off[pi],
                static_cast<int>(out.size()));
      for (std::size_t t = 0; t < out.size(); ++t)
        EXPECT_EQ(
            pl.fanout_pos[static_cast<std::size_t>(pl.fanout_off[pi]) + t],
            pl.pos_of[static_cast<std::size_t>(g.head(out[t]))]);
    }
  }
}

TEST(SweepPlan, StaBitIdenticalToAosReference) {
  for (int lowering = 0; lowering < 3; ++lowering) {
    SCOPED_TRACE("lowering " + std::to_string(lowering));
    const SizingNetwork net = make_net(lowering);
    Rng rng(0x5eedull + static_cast<std::uint64_t>(lowering));
    TimingScratch scratch;
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<double> x = random_sizes(net, rng);
      const TimingReport ref = aos_run_sta(net, x);

      // Stateless overload and the scratch overload (full recompute path).
      const TimingReport got = run_sta(net, x);
      EXPECT_EQ(ref.delay, got.delay);
      EXPECT_EQ(ref.at, got.at);
      EXPECT_EQ(ref.rt, got.rt);
      EXPECT_EQ(ref.critical_path, got.critical_path);
      EXPECT_EQ(ref.cp_vertex, got.cp_vertex);

      // Incremental path (warm scratch from the previous trial's sizes).
      const TimingReport& inc = run_sta(net, x, scratch);
      EXPECT_EQ(ref.at, inc.at);
      EXPECT_EQ(ref.rt, inc.rt);
      EXPECT_EQ(ref.cp_vertex, inc.cp_vertex);
    }
  }
}

TEST(SweepPlan, WPhaseBitIdenticalToAosReference) {
  for (int lowering = 0; lowering < 3; ++lowering) {
    SCOPED_TRACE("lowering " + std::to_string(lowering));
    const SizingNetwork net = make_net(lowering);
    Rng rng(0xabcdull + static_cast<std::uint64_t>(lowering));
    const std::vector<double> sized = random_sizes(net, rng);
    std::vector<double> budget(static_cast<std::size_t>(net.num_vertices()));
    for (NodeId v = 0; v < net.num_vertices(); ++v)
      budget[static_cast<std::size_t>(v)] = net.delay(v, sized);

    const WPhaseResult ref = aos_wphase(net, budget);
    const WPhaseResult got = solve_wphase(net, budget);
    EXPECT_EQ(ref.sizes, got.sizes);
    EXPECT_EQ(ref.feasible, got.feasible);
    EXPECT_EQ(ref.sweeps, got.sweeps);
  }
}

TEST(SweepPlan, DelayHelpersMatchAos) {
  for (int lowering = 0; lowering < 3; ++lowering) {
    SCOPED_TRACE("lowering " + std::to_string(lowering));
    const SizingNetwork net = make_net(lowering);
    Rng rng(0x77ull + static_cast<std::uint64_t>(lowering));
    const std::vector<double> x = random_sizes(net, rng);
    std::vector<double> x_pos;
    net.plan().gather(x, x_pos);
    for (NodeId v = 0; v < net.num_vertices(); ++v) {
      const int p = net.plan().pos_of[static_cast<std::size_t>(v)];
      EXPECT_EQ(net.delay(v, x), aos_delay(net, v, x));
      EXPECT_EQ(net.plan().delay_at(p, x_pos), aos_delay(net, v, x));
    }
  }
}

// Fast math is opt-in and NOT bit-identical — it must stay within the
// tolerance documented on SweepPlan::delay_at_fast.
TEST(FastMath, WithinDocumentedTolerance) {
  constexpr double kDelayRelTol = 1e-12;
  constexpr double kPathRelTol = 1e-9;
  auto rel = [](double a, double b) {
    const double mag = std::max(std::abs(a), std::abs(b));
    if (!std::isfinite(mag) || mag == 0.0) return 0.0;  // inf RT == inf RT
    return std::abs(a - b) / mag;
  };
  for (int lowering = 0; lowering < 3; ++lowering) {
    SCOPED_TRACE("lowering " + std::to_string(lowering));
    const SizingNetwork net = make_net(lowering);
    Rng rng(0xfa57ull + static_cast<std::uint64_t>(lowering));
    const std::vector<double> x = random_sizes(net, rng);
    const std::size_t n = static_cast<std::size_t>(net.num_vertices());

    TimingScratch exact, fast;
    fast.fast_math = true;
    const TimingReport& re = run_sta(net, x, exact);
    const TimingReport& rf = run_sta(net, x, fast);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(rel(re.delay[i], rf.delay[i]), kDelayRelTol);
      EXPECT_LE(rel(re.at[i], rf.at[i]), kPathRelTol);
      EXPECT_LE(rel(re.rt[i], rf.rt[i]), kPathRelTol);
    }
    EXPECT_LE(rel(re.critical_path, rf.critical_path), kPathRelTol);

    // Flipping the mode on a warm scratch must force a full recompute in
    // the new mode (never mix folds), and flipping back restores exact
    // results bit for bit.
    fast.fast_math = false;
    const TimingReport& back = run_sta(net, x, fast);
    EXPECT_EQ(re.delay, back.delay);
    EXPECT_EQ(re.at, back.at);
    EXPECT_EQ(re.critical_path, back.critical_path);

    // W-phase under fast math: same sweep structure, sizes within the
    // accumulated-path tolerance.
    std::vector<double> budget(n);
    for (NodeId v = 0; v < net.num_vertices(); ++v)
      budget[static_cast<std::size_t>(v)] = net.delay(v, x);
    const WPhaseResult we = solve_wphase(net, budget);
    const WPhaseResult wf = solve_wphase(net, budget, /*arena=*/nullptr,
                                         /*abort=*/nullptr,
                                         /*fast_math=*/true);
    EXPECT_EQ(we.feasible, wf.feasible);
    ASSERT_EQ(we.sizes.size(), wf.sizes.size());
    for (std::size_t i = 0; i < we.sizes.size(); ++i)
      EXPECT_LE(rel(we.sizes[i], wf.sizes[i]), kPathRelTol);
  }
}

}  // namespace
}  // namespace mft
