// Randomized property tests over the whole stack, parameterized by seed
// (TEST_P sweeps): monotonicity laws of the Elmore IR, W-phase optimality
// laws (idempotence, least-fixpoint dominance), D-phase safety laws
// (non-negative objective, causality preservation), and TILOS dominance.
#include <gtest/gtest.h>

#include "gen/blocks.h"
#include "lp/dense_simplex.h"
#include "mcf/network_simplex.h"
#include "mcf/ssp.h"
#include "netlist/bench_io.h"
#include "sizing/minflotransit.h"
#include "timing/delay_balance.h"
#include "timing/lowering.h"
#include "util/rng.h"

namespace mft {
namespace {

Netlist random_circuit(std::uint64_t seed) {
  RandomLogicParams p;
  Rng rng(seed);
  p.num_inputs = rng.uniform_int(6, 20);
  p.num_gates = rng.uniform_int(40, 240);
  p.seed = seed * 977 + 1;
  return make_random_logic(p);
}

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST_P(SeededProperty, UpsizingIsMonotoneInTheElmoreModel) {
  Netlist nl = random_circuit(GetParam());
  LoweredCircuit lc = lower_gate_level(nl, Tech{});
  Rng rng(GetParam() ^ 0xABCD);
  std::vector<double> x = lc.net.min_sizes();
  for (NodeId v = 0; v < lc.net.num_vertices(); ++v)
    if (!lc.net.is_source(v))
      x[static_cast<std::size_t>(v)] = rng.uniform(1.0, 8.0);

  for (int trial = 0; trial < 25; ++trial) {
    NodeId v = static_cast<NodeId>(rng.index(
        static_cast<std::size_t>(lc.net.num_vertices())));
    if (lc.net.is_source(v)) continue;
    const double own_before = lc.net.delay(v, x);
    std::vector<double> upstream_before;
    for (const LoadTerm& t : lc.net.reverse_loads()[static_cast<std::size_t>(v)])
      upstream_before.push_back(lc.net.delay(t.vertex, x));

    auto y = x;
    y[static_cast<std::size_t>(v)] *= 1.5;
    // Own delay can only drop; every loading driver can only slow down.
    EXPECT_LE(lc.net.delay(v, y), own_before + 1e-12);
    std::size_t k = 0;
    for (const LoadTerm& t : lc.net.reverse_loads()[static_cast<std::size_t>(v)])
      EXPECT_GE(lc.net.delay(t.vertex, y), upstream_before[k++] - 1e-12);
  }
}

TEST_P(SeededProperty, CriticalPathIsMaxOverAllPathSums) {
  Netlist nl = random_circuit(GetParam());
  LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const auto x = lc.net.min_sizes();
  const TimingReport t = run_sta(lc.net, x);
  // Random downstream walks can never beat the reported CP.
  Rng rng(GetParam() ^ 0x77);
  const Digraph& g = lc.net.dag();
  for (int walk = 0; walk < 30; ++walk) {
    const auto sources = g.sources();
    NodeId v = sources[rng.index(sources.size())];
    double sum = 0.0;
    while (true) {
      sum += t.delay[static_cast<std::size_t>(v)];
      if (g.out_degree(v) == 0) break;
      v = g.head(g.out_arcs(v)[rng.index(
          static_cast<std::size_t>(g.out_degree(v)))]);
    }
    EXPECT_LE(sum, t.critical_path + 1e-9);
  }
  // And the reconstructed critical path realizes it exactly.
  double cp = 0.0;
  for (NodeId v : t.critical_vertices(lc.net))
    cp += t.delay[static_cast<std::size_t>(v)];
  EXPECT_NEAR(cp, t.critical_path, 1e-9);
}

TEST_P(SeededProperty, WPhaseIsIdempotent) {
  Netlist nl = random_circuit(GetParam());
  LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const double dmin = min_sized_delay(lc.net);
  const TilosResult tilos = run_tilos(lc.net, 0.8 * dmin);
  ASSERT_TRUE(tilos.met_target);
  std::vector<double> budget(static_cast<std::size_t>(lc.net.num_vertices()));
  for (NodeId v = 0; v < lc.net.num_vertices(); ++v)
    budget[static_cast<std::size_t>(v)] = lc.net.delay(v, tilos.sizes);
  const WPhaseResult once = solve_wphase(lc.net, budget);
  ASSERT_TRUE(once.feasible);
  // Re-deriving budgets from the fixpoint and re-solving changes nothing:
  // the W-phase output is self-consistent (it IS the least fixpoint).
  std::vector<double> budget2(static_cast<std::size_t>(lc.net.num_vertices()));
  for (NodeId v = 0; v < lc.net.num_vertices(); ++v)
    budget2[static_cast<std::size_t>(v)] =
        std::max(budget[static_cast<std::size_t>(v)],
                 lc.net.delay(v, once.sizes));
  const WPhaseResult twice = solve_wphase(lc.net, budget2);
  ASSERT_TRUE(twice.feasible);
  for (NodeId v = 0; v < lc.net.num_vertices(); ++v)
    EXPECT_NEAR(twice.sizes[static_cast<std::size_t>(v)],
                once.sizes[static_cast<std::size_t>(v)], 1e-6);
}

TEST_P(SeededProperty, DPhaseBudgetsRemainRealizableAndSafe) {
  Netlist nl = random_circuit(GetParam());
  LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const double dmin = min_sized_delay(lc.net);
  const TilosResult tilos = run_tilos(lc.net, 0.75 * dmin);
  ASSERT_TRUE(tilos.met_target);
  for (BalanceMode mode : {BalanceMode::kAsap, BalanceMode::kAlap}) {
    DPhaseOptions opt;
    opt.balance = mode;
    const DPhaseResult d = run_dphase(lc.net, tilos.sizes, opt);
    ASSERT_TRUE(d.solved);
    EXPECT_GE(d.objective, -1e-9);
    const WPhaseResult w = solve_wphase(lc.net, d.budget);
    ASSERT_TRUE(w.feasible);
    const TimingReport t = run_sta(lc.net, w.sizes);
    EXPECT_LE(t.critical_path, tilos.achieved_delay * (1 + 1e-6));
    EXPECT_TRUE(t.safe(lc.net));
  }
}

TEST_P(SeededProperty, MinflotransitDominatesTilos) {
  Netlist nl = random_circuit(GetParam());
  LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const double dmin = min_sized_delay(lc.net);
  const double floor_d = run_tilos(lc.net, 0.05 * dmin).achieved_delay;
  const double target = floor_d + 0.3 * (dmin - floor_d);
  const MinflotransitResult r = run_minflotransit(lc.net, target);
  ASSERT_TRUE(r.initial.met_target);
  EXPECT_TRUE(r.met_target);
  EXPECT_LE(r.area, r.initial.area * (1 + 1e-9));
  EXPECT_LE(r.delay, target * (1 + 1e-9));
}

TEST_P(SeededProperty, BenchRoundTripPreservesFunction) {
  Netlist nl = random_circuit(GetParam());
  Netlist back = read_bench_string(write_bench_string(nl), "rt");
  ASSERT_EQ(back.num_inputs(), nl.num_inputs());
  Rng rng(GetParam() ^ 0xF00D);
  for (int vec = 0; vec < 10; ++vec) {
    std::vector<bool> in(static_cast<std::size_t>(nl.num_inputs()));
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.flip(0.5);
    EXPECT_EQ(nl.evaluate(in), back.evaluate(in)) << "vector " << vec;
  }
}

// Small random MCF instance, feasible by construction (supplies are the
// imbalance of a random sub-capacity flow) and bounded (uncapacitated arcs
// carry nonnegative cost, so no uncapacitated negative cycle exists).
McfProblem random_mcf(std::uint64_t seed, int max_nodes) {
  Rng rng(seed);
  const int n = rng.uniform_int(2, max_nodes);
  McfProblem p(n);
  const int m = rng.uniform_int(n, 3 * n);
  for (int i = 0; i < m; ++i) {
    const NodeId t = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    NodeId h = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    if (h == t) h = (h + 1) % n;
    const Flow cap = rng.flip(0.35) ? kInfFlow : rng.uniform_int(0, 30);
    const Cost cost = rng.uniform_int(cap == kInfFlow ? 0 : -15, 40);
    p.add_arc(t, h, cap, cost);
  }
  for (ArcId a = 0; a < p.num_arcs(); ++a) {
    const McfArc& arc = p.arc(a);
    if (arc.capacity == 0) continue;
    const Flow f = arc.capacity == kInfFlow
                       ? rng.uniform_int(0, 10)
                       : rng.uniform_int(0, static_cast<int>(arc.capacity));
    p.add_supply(arc.tail, f);
    p.add_supply(arc.head, -f);
  }
  return p;
}

// Solves the LP dual of `p` with the dense simplex (a completely
// independent algorithmic lineage):
//     max Σ supply(v)·π(v) − Σ_{finite a} cap(a)·z(a)
//     s.t. π(tail) − π(head) − [z(a)] ≤ cost(a),  z ≥ 0,  π(0) = 0
// By strong duality its optimum equals the min-cost-flow optimum.
double dense_dual_objective(const McfProblem& p, bool* solved) {
  std::vector<int> zvar(static_cast<std::size_t>(p.num_arcs()), -1);
  int nz = 0;
  for (ArcId a = 0; a < p.num_arcs(); ++a)
    if (p.arc(a).capacity != kInfFlow)
      zvar[static_cast<std::size_t>(a)] = p.num_nodes() + nz++;
  DenseLp lp(p.num_nodes() + nz);
  for (NodeId v = 0; v < p.num_nodes(); ++v)
    lp.set_objective(v, static_cast<double>(p.supply(v)));
  lp.add_bounds(0, 0.0, 0.0);  // pin the dual's translation freedom
  for (ArcId a = 0; a < p.num_arcs(); ++a) {
    const McfArc& arc = p.arc(a);
    std::vector<double> row(static_cast<std::size_t>(lp.num_vars()), 0.0);
    row[static_cast<std::size_t>(arc.tail)] += 1.0;
    row[static_cast<std::size_t>(arc.head)] -= 1.0;
    const int z = zvar[static_cast<std::size_t>(a)];
    if (z >= 0) {
      row[static_cast<std::size_t>(z)] = -1.0;
      lp.set_objective(z, -static_cast<double>(arc.capacity));
      std::vector<double> pos(static_cast<std::size_t>(lp.num_vars()), 0.0);
      pos[static_cast<std::size_t>(z)] = -1.0;
      lp.add_row(pos, 0.0);  // z >= 0
    }
    lp.add_row(row, static_cast<double>(arc.cost));
  }
  const auto sol = lp.solve();
  *solved = sol.has_value();
  return sol ? sol->objective : 0.0;
}

TEST(CrossSolverAgreement, AllSolversAndTheDenseDualAgree) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const McfProblem p = random_mcf(seed, 12);
    const McfSolution ns = solve_network_simplex(p);
    const McfSolution ssp = solve_ssp(p);
    const McfSolution cc = solve_cycle_canceling(p);
    ASSERT_EQ(ns.status, McfStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(ssp.status, McfStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(cc.status, McfStatus::kOptimal) << "seed " << seed;
    EXPECT_EQ(ns.total_cost, ssp.total_cost) << "seed " << seed;
    EXPECT_EQ(ns.total_cost, cc.total_cost) << "seed " << seed;
    std::string why;
    EXPECT_TRUE(check_flow_optimal(p, ns, &why)) << "seed " << seed << ": " << why;

    // Canonical duals are a function of p alone: exact across solvers, and
    // still optimal against each solver's own flow.
    McfSolution canon[] = {ns, ssp, cc};
    for (McfSolution& c : canon) {
      canonicalize_potentials(p, 0, c);
      EXPECT_TRUE(check_flow_optimal(p, c, &why)) << "seed " << seed << ": "
                                                  << why;
    }
    EXPECT_EQ(canon[0].potential, canon[1].potential) << "seed " << seed;
    EXPECT_EQ(canon[0].potential, canon[2].potential) << "seed " << seed;

    bool lp_solved = false;
    const double dual = dense_dual_objective(p, &lp_solved);
    ASSERT_TRUE(lp_solved) << "seed " << seed;
    EXPECT_NEAR(dual, static_cast<double>(ns.total_cost), 1e-6)
        << "seed " << seed;
  }
}

TEST(CrossSolverAgreement, StatusClassificationMatchesTheSspOracle) {
  // Larger random instances with arbitrary balanced supplies: routing may
  // be impossible, and the simplex must classify exactly like SSP.
  int non_optimal = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 131 + 7);
    const int n = rng.uniform_int(3, 20);
    McfProblem p(n);
    const int m = rng.uniform_int(2, 2 * n);
    for (int i = 0; i < m; ++i) {
      const NodeId t = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
      NodeId h = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
      if (h == t) h = (h + 1) % n;
      p.add_arc(t, h, rng.flip(0.5) ? kInfFlow : rng.uniform_int(0, 25),
                rng.uniform_int(0, 30));
    }
    Flow pushed = 0;
    for (NodeId v = 0; v + 1 < n; ++v) {
      const Flow s = rng.uniform_int(-8, 8);
      p.add_supply(v, s);
      pushed += s;
    }
    p.add_supply(n - 1, -pushed);
    const McfSolution ns = solve_network_simplex(p);
    const McfSolution ssp = solve_ssp(p);
    EXPECT_EQ(ns.status, ssp.status) << "seed " << seed;
    if (ns.status != McfStatus::kOptimal) ++non_optimal;
    if (ns.status == McfStatus::kOptimal) {
      EXPECT_EQ(ns.total_cost, ssp.total_cost) << "seed " << seed;
    }
  }
  // The sweep must actually exercise the non-optimal classifications.
  EXPECT_GT(non_optimal, 0);

  // Unboundedness: an uncapacitated negative cycle.
  McfProblem cyc(3);
  cyc.add_arc(0, 1, kInfFlow, -5);
  cyc.add_arc(1, 2, kInfFlow, 1);
  cyc.add_arc(2, 0, kInfFlow, 1);
  EXPECT_EQ(solve_network_simplex(cyc).status, McfStatus::kUnbounded);
  EXPECT_EQ(solve_ssp(cyc).status, McfStatus::kUnbounded);
}

TEST_P(SeededProperty, TransistorLoweringConservesStructure) {
  Netlist nl = tech_map_to_primitives(random_circuit(GetParam()));
  LoweredCircuit lc = lower_transistor_level(nl, Tech{});
  // Vertex count: every primitive gate contributes 2 transistors per input.
  int expect = nl.num_inputs();
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(g);
    if (gate.kind != GateKind::kInput)
      expect += 2 * static_cast<int>(gate.fanins.size());
  }
  EXPECT_EQ(lc.net.num_vertices(), expect);
  const TimingReport t = run_sta(lc.net, lc.net.min_sizes());
  EXPECT_TRUE(t.safe(lc.net));
  EXPECT_GT(t.critical_path, 0.0);
}

}  // namespace
}  // namespace mft
