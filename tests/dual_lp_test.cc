// Validates the difference-constraint dual LP (the D-phase reduction,
// eq. (10)) against hand solutions and against the independent dense
// simplex oracle in src/lp.
#include <gtest/gtest.h>

#include <cmath>

#include "lp/dense_simplex.h"
#include "mcf/dual_lp.h"
#include "util/rng.h"
#include "util/status.h"

namespace mft {
namespace {

constexpr double kTol = 1e-3;  // decimal-scaling quantum is 1e-4

TEST(DualFlowLp, SingleChainMovesSlackToWeightedVertex) {
  // Variables: g (ground), a, b. Maximize 2*(a-g) + 1*(b-a)
  // s.t. a-g <= 3, b-a <= 4, g-b >= -10 i.e. b-g <= 10 overall via g-b <= ...
  DualFlowLp lp(3);
  lp.fix_zero(0);
  lp.add_constraint(1, 0, 3.0);   // a <= 3
  lp.add_constraint(2, 1, 4.0);   // b - a <= 4
  lp.add_constraint(0, 2, 0.0);   // -b <= 0  => b >= 0
  lp.add_objective_difference(1, 0, 2.0);
  lp.add_objective_difference(2, 1, 1.0);
  auto res = lp.solve();
  ASSERT_TRUE(res.solved);
  // a wants to be max (coeff of a in expanded objective is 2-1=1 >0), b max.
  EXPECT_NEAR(res.r[1], 3.0, kTol);
  EXPECT_NEAR(res.r[2], 7.0, kTol);
  EXPECT_NEAR(res.objective, 2 * 3 + 1 * 4, 10 * kTol);
}

TEST(DualFlowLp, GroundedVariablesStayZero) {
  DualFlowLp lp(4);
  lp.fix_zero(0);
  lp.fix_zero(3);
  lp.add_constraint(1, 0, 5.0);
  lp.add_constraint(2, 1, 1.0);
  lp.add_constraint(3, 2, 2.0);  // 0 - r2 <= 2 => r2 >= -2
  lp.add_objective_difference(2, 1, 1.0);
  auto res = lp.solve();
  ASSERT_TRUE(res.solved);
  EXPECT_EQ(res.r[0], 0.0);
  EXPECT_EQ(res.r[3], 0.0);
  // r2 - r1 maximal: r2 can rise until r2 >= -2... r2 - r1 <= 1 binds with
  // r1 as low as possible. r1 has only upper constraints; flow duality
  // keeps it finite through the objective-balance: optimum is r2-r1 = 1.
  EXPECT_NEAR(res.r[2] - res.r[1], 1.0, kTol);
}

TEST(DualFlowLp, InfeasibleFlowMeansUnboundedLp) {
  // maximize r1 with only upper-bounding constraint in the wrong direction:
  // r1 unbounded above => dual flow infeasible.
  DualFlowLp lp(2);
  lp.fix_zero(0);
  lp.add_constraint(0, 1, 0.0);  // -r1 <= 0, no upper bound on r1
  lp.add_objective_difference(1, 0, 1.0);
  auto res = lp.solve();
  EXPECT_FALSE(res.solved);
  EXPECT_EQ(res.flow_status, McfStatus::kInfeasible);
}

TEST(DualFlowLp, ReturnedSolutionNeverViolatesTrueConstraints) {
  // Conservative floor-rounding must keep r feasible for the *real* w.
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = rng.uniform_int(3, 10);
    DualFlowLp lp(n);
    lp.fix_zero(0);
    struct C {
      int a, b;
      double w;
    };
    std::vector<C> cs;
    // A ring of constraints guarantees boundedness in both directions.
    for (int v = 1; v < n; ++v) {
      cs.push_back({v, v - 1, rng.uniform(0.0, 5.0)});
      cs.push_back({v - 1, v, rng.uniform(0.0, 5.0)});
    }
    for (const C& c : cs) lp.add_constraint(c.a, c.b, c.w);
    for (int v = 1; v < n; ++v)
      lp.add_objective_difference(v, rng.uniform_int(0, v - 1),
                                  rng.uniform(0.1, 3.0));
    auto res = lp.solve();
    ASSERT_TRUE(res.solved) << "trial " << trial;
    for (const C& c : cs)
      EXPECT_LE(res.r[c.a] - res.r[c.b], c.w + 1e-9)
          << "trial " << trial << " constraint " << c.a << "-" << c.b;
  }
}

// r is the canonical optimal dual, a function of the LP alone: the three
// solvers reach it bit for bit from different optimal flows and potentials.
// Variables without an objective term have a range of optimal values, so
// the solvers' own duals differ there.
TEST(DualFlowLp, AllThreeFlowSolversAgreeOnObjective) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.uniform_int(4, 12);
    DualFlowLp lp(n);
    lp.fix_zero(0);
    for (int v = 1; v < n; ++v) {
      lp.add_constraint(v, v - 1, rng.uniform(0.0, 4.0));
      lp.add_constraint(v - 1, v, rng.uniform(0.0, 4.0));
    }
    for (int e = 0; e < n; ++e) {
      int a = rng.uniform_int(0, n - 1), b = rng.uniform_int(0, n - 1);
      if (a != b) lp.add_constraint(a, b, rng.uniform(0.0, 6.0));
    }
    for (int v = 1; v < n; ++v)
      if (rng.flip(0.5))
        lp.add_objective_difference(v, v - 1, rng.uniform(0.1, 2.0));
    auto ns = lp.solve(FlowSolver::kNetworkSimplex);
    auto ssp = lp.solve(FlowSolver::kSsp);
    auto cc = lp.solve(FlowSolver::kCycleCanceling);
    ASSERT_TRUE(ns.solved);
    ASSERT_TRUE(ssp.solved);
    ASSERT_TRUE(cc.solved);
    EXPECT_EQ(ns.r, ssp.r) << "trial " << trial;
    EXPECT_EQ(ns.r, cc.r) << "trial " << trial;
    EXPECT_EQ(ns.objective, ssp.objective) << "trial " << trial;
    EXPECT_EQ(ns.objective, cc.objective) << "trial " << trial;
    EXPECT_EQ(ns.flow_cost, ssp.flow_cost) << "trial " << trial;
    EXPECT_EQ(ns.flow_cost, cc.flow_cost) << "trial " << trial;
  }
}

// The decisive test: the flow-dual optimum must equal the optimum computed
// by a dense simplex with a completely independent implementation, and each
// r_v must be the largest value r_v takes over the optimal face (the dense
// simplex maximizes it with the objective held at its optimum).
TEST(DualFlowLp, MatchesDenseSimplexOracleOnRandomInstances) {
  Rng rng(31337);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = rng.uniform_int(3, 8);
    DualFlowLp lp(n);
    DenseLp oracle(n);
    lp.fix_zero(0);
    oracle.add_bounds(0, 0.0, 0.0);

    // Ring constraints for boundedness + random chords. Use one-decimal
    // weights so decimal scaling is exact and the comparison is tight.
    auto add = [&](int a, int b, double w) {
      lp.add_constraint(a, b, w);
      std::vector<double> row(static_cast<std::size_t>(n), 0.0);
      row[static_cast<std::size_t>(a)] = 1.0;
      row[static_cast<std::size_t>(b)] = -1.0;
      oracle.add_row(row, w);
    };
    for (int v = 1; v < n; ++v) {
      add(v, v - 1, 0.1 * rng.uniform_int(0, 50));
      add(v - 1, v, 0.1 * rng.uniform_int(0, 50));
    }
    for (int e = 0; e < n; ++e) {
      int a = rng.uniform_int(0, n - 1), b = rng.uniform_int(0, n - 1);
      if (a != b) add(a, b, 0.1 * rng.uniform_int(0, 80));
    }
    std::vector<double> c(static_cast<std::size_t>(n), 0.0);
    for (int v = 1; v < n; ++v) {
      const double coeff = 0.5 * rng.uniform_int(1, 6);
      const int minus = rng.uniform_int(0, v - 1);
      lp.add_objective_difference(v, minus, coeff);
      c[static_cast<std::size_t>(v)] += coeff;
      c[static_cast<std::size_t>(minus)] -= coeff;
    }
    for (int v = 0; v < n; ++v) oracle.set_objective(v, c[static_cast<std::size_t>(v)]);

    auto flow_res = lp.solve();
    auto lp_res = oracle.solve();
    ASSERT_TRUE(flow_res.solved) << "trial " << trial;
    ASSERT_TRUE(lp_res.has_value()) << "trial " << trial;
    EXPECT_NEAR(flow_res.objective, lp_res->objective, 1e-6)
        << "trial " << trial;

    for (int v = 1; v < n; ++v) {
      DenseLp face = oracle;
      std::vector<double> row(static_cast<std::size_t>(n));
      for (int k = 0; k < n; ++k) {
        row[static_cast<std::size_t>(k)] = -c[static_cast<std::size_t>(k)];
        face.set_objective(k, k == v ? 1.0 : 0.0);
      }
      face.add_row(row, -(lp_res->objective - 1e-9));
      const auto top = face.solve();
      ASSERT_TRUE(top.has_value()) << "trial " << trial << " var " << v;
      EXPECT_NEAR(flow_res.r[static_cast<std::size_t>(v)], top->objective,
                  1e-6)
          << "trial " << trial << " var " << v;
    }
  }
}

void expect_refused(const DualFlowLp& lp) {
  for (FlowSolver solver : {FlowSolver::kNetworkSimplex, FlowSolver::kSsp,
                            FlowSolver::kCycleCanceling}) {
    try {
      lp.solve(solver);
      ADD_FAILURE() << "expected EngineError for " << to_string(solver);
    } catch (const EngineError& e) {
      EXPECT_EQ(e.status(), EngineStatus::kInvalidInput) << e.what();
    }
  }
}

TEST(DualFlowLp, RefusesValuesTooLargeForIntegerScaling) {
  DualFlowLp lp(3);
  lp.fix_zero(0);
  const int bound = lp.add_constraint(1, 0, 1e30);
  lp.add_constraint(2, 1, 1.0);
  const int term = lp.add_objective_difference(2, 0, 1.0);
  expect_refused(lp);
  lp.set_constraint_bound(bound, -1e30);
  expect_refused(lp);

  lp.set_constraint_bound(bound, 2.0);
  const DualFlowLp::Result r = lp.solve();
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.objective, 3.0, kTol);

  lp.set_objective_coeff(term, 1e30);
  expect_refused(lp);

  // Each bound scales to -4e18, inside the 2^62 scaling guard, but the
  // flow costs are past what any solver's duals can hold on five nodes; a
  // path of three of them overflowed the Bellman–Ford of SSP and
  // cycle-canceling before they shared the network simplex's bound.
  DualFlowLp chain(5);
  chain.fix_zero(0);
  chain.add_constraint(1, 2, -4e14);
  chain.add_constraint(2, 3, -4e14);
  chain.add_constraint(3, 4, -4e14);
  chain.add_constraint(4, 0, 0.0);
  chain.add_objective_difference(1, 0, 1.0);
  expect_refused(chain);
}

}  // namespace
}  // namespace mft
