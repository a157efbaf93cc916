// Tests for the frozen SweepPlan layout (timing/sizing_network.h) and the
// level-contiguous streaming kernels built on it:
//  - structural validity: the sweep permutation is topological and level-
//    contiguous, the CSR tables mirror the AoS construction data
//    (SizingVertex::loads, reverse_loads(), the timing DAG) term for term,
//  - bit-identity: the streaming STA / W-phase kernels reproduce direct
//    array-of-structs reference implementations EXACTLY (operator== on
//    doubles) across all three lowerings on randomized size vectors — the
//    layout refactor is a memory-order change, not a numerical one,
//  - levelization: on every generated circuit (gate, gate+wires, and
//    transistor lowering) no two same-level vertices share an arc or a
//    load term, and every load term's orientation agrees with the
//    topological order — what makes the level-ordered sweeps read the
//    values the topological sweeps read,
//  - warm starts: the warm-started W-phase matches cold on triangular
//    networks and converges to the same fixpoint on coupled ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "gen/blocks.h"
#include "gen/iscas_analog.h"
#include "sizing/tilos.h"
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

// ---------------------------------------------------------------------------
// Levelization
// ---------------------------------------------------------------------------

struct NamedNet {
  std::string name;
  LoweredCircuit lc;
};

std::vector<NamedNet> level_corpus() {
  std::vector<NamedNet> nets;
  auto gate = [&](const std::string& name, Netlist nl) {
    nets.push_back({name, lower_gate_level(nl, Tech{})});
  };
  gate("c17", make_c17());
  gate("adder16", make_ripple_adder(16));
  gate("mux16", make_mux_tree(4));
  gate("cmp8", make_comparator(8));
  gate("alu8", make_alu(8));
  gate("mult8", make_array_multiplier(8));
  gate("parity8", tech_map_to_primitives(make_parity_sec(8)));
  RandomLogicParams prm;
  prm.num_inputs = 24;
  prm.num_gates = 400;
  prm.seed = 7;
  gate("rnd400", make_random_logic(prm));
  for (const IscasAnalogSpec& spec : iscas85_specs())
    gate(spec.name, make_iscas_analog(spec.name));
  GateLoweringOptions wires;
  wires.size_wires = true;
  nets.push_back(
      {"adder8+wires", lower_gate_level(make_ripple_adder(8), Tech{}, wires)});
  nets.push_back(
      {"adder4-trans", lower_transistor_level(make_ripple_adder(4), Tech{})});
  nets.push_back({"c17-trans", lower_transistor_level(make_c17(), Tech{})});
  return nets;
}

TEST(Levelization, LevelOrderMatchesTopologicalOrderOnEveryGeneratedCircuit) {
  for (const NamedNet& t : level_corpus()) {
    SCOPED_TRACE(t.name);
    const SizingNetwork& net = t.lc.net;
    const auto& level = net.level_of();
    const auto& pos = net.topo_position();
    const auto& order = net.level_order();
    const auto& off = net.level_offsets();
    const int n = net.num_vertices();

    // Structure: offsets partition level_order, levels ascending, sorted by
    // topological position within a level; every vertex appears once.
    ASSERT_EQ(static_cast<int>(order.size()), n);
    ASSERT_EQ(static_cast<int>(off.size()), net.num_levels() + 1);
    EXPECT_EQ(off.front(), 0);
    EXPECT_EQ(off.back(), n);
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    for (int l = 0; l < net.num_levels(); ++l) {
      for (int i = off[static_cast<std::size_t>(l)];
           i < off[static_cast<std::size_t>(l) + 1]; ++i) {
        const NodeId v = order[static_cast<std::size_t>(i)];
        EXPECT_EQ(level[static_cast<std::size_t>(v)], l);
        EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
        seen[static_cast<std::size_t>(v)] = 1;
        if (i > off[static_cast<std::size_t>(l)]) {
          EXPECT_LT(pos[static_cast<std::size_t>(
                        order[static_cast<std::size_t>(i - 1)])],
                    pos[static_cast<std::size_t>(v)]);
        }
      }
    }

    // Arcs: strictly level-increasing (in particular never intra-level).
    const Digraph& g = net.dag();
    for (ArcId a = 0; a < g.num_arcs(); ++a)
      EXPECT_LT(level[static_cast<std::size_t>(g.tail(a))],
                level[static_cast<std::size_t>(g.head(a))])
          << "arc " << a;

    // Load terms: never intra-level, and ordered like the topological
    // order — that equivalence is what makes the level-ordered sweeps read
    // exactly the values the topological sweeps read.
    for (NodeId v = 0; v < n; ++v) {
      for (const LoadTerm& t2 : net.vertex(v).loads) {
        const NodeId j = t2.vertex;
        EXPECT_NE(level[static_cast<std::size_t>(v)],
                  level[static_cast<std::size_t>(j)])
            << "load " << v << "<-" << j;
        EXPECT_EQ(pos[static_cast<std::size_t>(v)] < pos[static_cast<std::size_t>(j)],
                  level[static_cast<std::size_t>(v)] <
                      level[static_cast<std::size_t>(j)])
            << "load " << v << "<-" << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Warm-started W-phase
// ---------------------------------------------------------------------------

TEST(Wphase, WarmStartMatchesColdOnTriangularNetworks) {
  // Gate-level loads point strictly downstream: one reverse-topological
  // sweep is exact from ANY start, so warm == cold bit for bit.
  const LoweredCircuit lc = lower_gate_level(make_comparator(8), Tech{});
  const SizingNetwork& net = lc.net;
  const double dmin = min_sized_delay(net);
  const TilosResult tilos = run_tilos(net, 0.7 * dmin);
  ASSERT_TRUE(tilos.met_target);
  std::vector<double> budget(static_cast<std::size_t>(net.num_vertices()));
  for (NodeId v = 0; v < net.num_vertices(); ++v)
    budget[static_cast<std::size_t>(v)] = net.delay(v, tilos.sizes);

  const WPhaseResult cold = solve_wphase(net, budget);
  ASSERT_TRUE(cold.feasible);
  const WPhaseResult warm = solve_wphase(net, budget, tilos.sizes);
  ASSERT_TRUE(warm.feasible);
  for (std::size_t i = 0; i < cold.sizes.size(); ++i)
    EXPECT_EQ(cold.sizes[i], warm.sizes[i]) << i;

  // Warm-starting from the fixpoint itself converges in a single sweep and
  // moves nothing.
  const WPhaseResult again = solve_wphase(net, budget, cold.sizes);
  EXPECT_EQ(again.sweeps, 1);
  EXPECT_EQ(again.sizes, cold.sizes);
}

TEST(Wphase, WarmStartConvergesToTheSameFixpointOnCoupledNetworks) {
  // Transistor blocks load each other mutually, so the trajectory is
  // start-dependent — but the fixpoint is unique: warm and cold must agree
  // to the sweep tolerance, with the warm start never needing more sweeps.
  const LoweredCircuit lc = lower_transistor_level(make_ripple_adder(4), Tech{});
  const SizingNetwork& net = lc.net;
  std::vector<double> x = net.min_sizes();
  for (NodeId v = 0; v < net.num_vertices(); ++v)
    if (!net.is_source(v)) x[static_cast<std::size_t>(v)] *= 3.0;
  std::vector<double> budget(static_cast<std::size_t>(net.num_vertices()));
  for (NodeId v = 0; v < net.num_vertices(); ++v)
    budget[static_cast<std::size_t>(v)] = net.delay(v, x);

  const WPhaseResult cold = solve_wphase(net, budget);
  ASSERT_TRUE(cold.feasible);
  const WPhaseResult warm = solve_wphase(net, budget, x);
  ASSERT_TRUE(warm.feasible);
  for (std::size_t i = 0; i < cold.sizes.size(); ++i)
    EXPECT_NEAR(warm.sizes[i], cold.sizes[i],
                1e-9 * std::max(1.0, cold.sizes[i]))
        << i;
  EXPECT_LE(warm.sweeps, cold.sweeps);
}

}  // namespace
}  // namespace mft
