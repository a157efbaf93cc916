// Tests for the min-cost-flow library: hand-sized instances with known
// optima, status handling (infeasible / unbounded), and randomized
// cross-checks of all three solvers against each other and against the
// check_flow_optimal certificate.
#include <gtest/gtest.h>

#include "mcf/mcf.h"
#include "mcf/network_simplex.h"
#include "mcf/ssp.h"
#include "util/rng.h"
#include "util/status.h"

namespace mft {
namespace {

using Solver = McfSolution (*)(const McfProblem&);

McfSolution run_ns(const McfProblem& p) { return solve_network_simplex(p); }

const std::vector<std::pair<const char*, Solver>> kSolvers = {
    {"network-simplex", run_ns},
    {"ssp", solve_ssp},
    {"cycle-canceling", solve_cycle_canceling},
};

class AllSolvers : public ::testing::TestWithParam<std::pair<const char*, Solver>> {
 protected:
  Solver solver() const { return GetParam().second; }
};

INSTANTIATE_TEST_SUITE_P(Mcf, AllSolvers, ::testing::ValuesIn(kSolvers),
                         [](const auto& info) {
                           std::string n = info.param.first;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST_P(AllSolvers, EmptyProblemIsOptimal) {
  McfProblem p(0);
  EXPECT_EQ(solver()(p).status, McfStatus::kOptimal);
}

TEST_P(AllSolvers, SingleArcRoutesSupply) {
  McfProblem p(2);
  p.add_arc(0, 1, 10, 3);
  p.set_supply(0, 7);
  p.set_supply(1, -7);
  McfSolution s = solver()(p);
  ASSERT_EQ(s.status, McfStatus::kOptimal);
  EXPECT_EQ(s.total_cost, 21);
  EXPECT_EQ(s.flow[0], 7);
  std::string why;
  EXPECT_TRUE(check_flow_optimal(p, s, &why)) << why;
}

TEST_P(AllSolvers, PrefersCheaperParallelArc) {
  McfProblem p(2);
  p.add_arc(0, 1, 5, 10);  // expensive
  p.add_arc(0, 1, 5, 1);   // cheap
  p.set_supply(0, 8);
  p.set_supply(1, -8);
  McfSolution s = solver()(p);
  ASSERT_EQ(s.status, McfStatus::kOptimal);
  // 5 units on the cheap arc, 3 on the expensive one.
  EXPECT_EQ(s.total_cost, 5 * 1 + 3 * 10);
  std::string why;
  EXPECT_TRUE(check_flow_optimal(p, s, &why)) << why;
}

TEST_P(AllSolvers, DiamondTakesShorterPath) {
  // 0 -> {1, 2} -> 3 with asymmetric path costs.
  McfProblem p(4);
  p.add_arc(0, 1, kInfFlow, 1);
  p.add_arc(1, 3, kInfFlow, 1);
  p.add_arc(0, 2, kInfFlow, 2);
  p.add_arc(2, 3, kInfFlow, 3);
  p.set_supply(0, 4);
  p.set_supply(3, -4);
  McfSolution s = solver()(p);
  ASSERT_EQ(s.status, McfStatus::kOptimal);
  EXPECT_EQ(s.total_cost, 4 * 2);
  EXPECT_EQ(s.flow[0], 4);
  EXPECT_EQ(s.flow[2], 0);
}

TEST_P(AllSolvers, CapacityForcesSplitAcrossPaths) {
  McfProblem p(4);
  p.add_arc(0, 1, 3, 1);
  p.add_arc(1, 3, 3, 1);
  p.add_arc(0, 2, kInfFlow, 2);
  p.add_arc(2, 3, kInfFlow, 3);
  p.set_supply(0, 5);
  p.set_supply(3, -5);
  McfSolution s = solver()(p);
  ASSERT_EQ(s.status, McfStatus::kOptimal);
  EXPECT_EQ(s.total_cost, 3 * 2 + 2 * 5);
  std::string why;
  EXPECT_TRUE(check_flow_optimal(p, s, &why)) << why;
}

TEST_P(AllSolvers, NegativeCostArcIsExploited) {
  // The cheapest route uses a negative arc even though it is longer.
  McfProblem p(3);
  p.add_arc(0, 1, 10, 4);
  p.add_arc(0, 2, 10, 2);
  p.add_arc(2, 1, 10, -3);
  p.set_supply(0, 6);
  p.set_supply(1, -6);
  McfSolution s = solver()(p);
  ASSERT_EQ(s.status, McfStatus::kOptimal);
  EXPECT_EQ(s.total_cost, 6 * (2 - 3));
  std::string why;
  EXPECT_TRUE(check_flow_optimal(p, s, &why)) << why;
}

TEST_P(AllSolvers, NegativeCycleWithCapacityIsCanceled) {
  // Zero supply; optimal flow circulates around the capacitated negative
  // cycle to harvest its cost.
  McfProblem p(3);
  p.add_arc(0, 1, 4, -2);
  p.add_arc(1, 2, 4, -1);
  p.add_arc(2, 0, 4, 1);
  McfSolution s = solver()(p);
  ASSERT_EQ(s.status, McfStatus::kOptimal);
  EXPECT_EQ(s.total_cost, 4 * (-2 - 1 + 1));
  std::string why;
  EXPECT_TRUE(check_flow_optimal(p, s, &why)) << why;
}

TEST_P(AllSolvers, DisconnectedSupplyIsInfeasible) {
  McfProblem p(4);
  p.add_arc(0, 1, kInfFlow, 1);
  p.add_arc(2, 3, kInfFlow, 1);
  p.set_supply(0, 5);
  p.set_supply(3, -5);
  EXPECT_EQ(solver()(p).status, McfStatus::kInfeasible);
}

TEST_P(AllSolvers, InsufficientCapacityIsInfeasible) {
  McfProblem p(2);
  p.add_arc(0, 1, 3, 1);
  p.set_supply(0, 5);
  p.set_supply(1, -5);
  EXPECT_EQ(solver()(p).status, McfStatus::kInfeasible);
}

TEST_P(AllSolvers, UnbalancedSupplyIsInfeasible) {
  McfProblem p(2);
  p.add_arc(0, 1, kInfFlow, 1);
  p.set_supply(0, 5);
  p.set_supply(1, -4);
  EXPECT_EQ(solver()(p).status, McfStatus::kInfeasible);
}

TEST_P(AllSolvers, UncapacitatedNegativeCycleIsUnbounded) {
  McfProblem p(2);
  p.add_arc(0, 1, kInfFlow, -1);
  p.add_arc(1, 0, kInfFlow, -1);
  EXPECT_EQ(solver()(p).status, McfStatus::kUnbounded);
}

TEST_P(AllSolvers, ZeroSupplyNonNegativeCostsGiveZeroFlow) {
  McfProblem p(3);
  p.add_arc(0, 1, 10, 1);
  p.add_arc(1, 2, 10, 0);
  McfSolution s = solver()(p);
  ASSERT_EQ(s.status, McfStatus::kOptimal);
  EXPECT_EQ(s.total_cost, 0);
}

// --- Randomized cross-checks -----------------------------------------------

McfProblem random_problem(Rng& rng, int n, int m, bool allow_negative,
                          bool uncapacitated) {
  McfProblem p(n);
  for (int i = 0; i < m; ++i) {
    const NodeId u = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    NodeId v = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    if (u == v) v = (v + 1) % n;
    const Cost c = allow_negative ? rng.uniform_int(-5, 20) : rng.uniform_int(0, 20);
    const Flow cap = uncapacitated ? kInfFlow : rng.uniform_int(0, 30);
    p.add_arc(u, v, cap, c);
  }
  // Balanced random supplies routed through random node pairs.
  for (int i = 0; i < n / 2; ++i) {
    const NodeId a = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    const NodeId b = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    const Flow s = rng.uniform_int(0, 10);
    p.add_supply(a, s);
    p.add_supply(b, -s);
  }
  return p;
}

TEST(McfCrossCheck, SolversAgreeOnRandomCapacitatedInstances) {
  Rng rng(20260613);
  int optimal_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    McfProblem p = random_problem(rng, rng.uniform_int(3, 12),
                                  rng.uniform_int(4, 30),
                                  /*allow_negative=*/true,
                                  /*uncapacitated=*/false);
    McfSolution a = solve_network_simplex(p);
    McfSolution b = solve_ssp(p);
    McfSolution c = solve_cycle_canceling(p);
    ASSERT_EQ(a.status, b.status) << "trial " << trial;
    ASSERT_EQ(a.status, c.status) << "trial " << trial;
    if (a.status != McfStatus::kOptimal) continue;
    ++optimal_seen;
    EXPECT_EQ(a.total_cost, b.total_cost) << "trial " << trial;
    EXPECT_EQ(a.total_cost, c.total_cost) << "trial " << trial;
    std::string why;
    EXPECT_TRUE(check_flow_optimal(p, a, &why)) << "ns trial " << trial << ": " << why;
    EXPECT_TRUE(check_flow_optimal(p, b, &why)) << "ssp trial " << trial << ": " << why;
    EXPECT_TRUE(check_flow_optimal(p, c, &why)) << "cc trial " << trial << ": " << why;
  }
  // The generator must actually exercise the optimal path most of the time.
  EXPECT_GE(optimal_seen, 30);
}

TEST(McfCrossCheck, SolversAgreeOnRandomUncapacitatedInstances) {
  // Uncapacitated with non-negative costs: the exact shape the D-phase
  // reduction produces.
  Rng rng(98765);
  for (int trial = 0; trial < 60; ++trial) {
    McfProblem p = random_problem(rng, rng.uniform_int(3, 15),
                                  rng.uniform_int(4, 40),
                                  /*allow_negative=*/false,
                                  /*uncapacitated=*/true);
    McfSolution a = solve_network_simplex(p);
    McfSolution b = solve_ssp(p);
    ASSERT_EQ(a.status, b.status) << "trial " << trial;
    if (a.status != McfStatus::kOptimal) continue;
    EXPECT_EQ(a.total_cost, b.total_cost) << "trial " << trial;
    std::string why;
    EXPECT_TRUE(check_flow_optimal(p, a, &why)) << "trial " << trial << ": " << why;
  }
}

TEST(McfCrossCheck, LargerSparseInstancesStayConsistent) {
  Rng rng(4242);
  for (int trial = 0; trial < 8; ++trial) {
    McfProblem p = random_problem(rng, 120, 500, /*allow_negative=*/false,
                                  /*uncapacitated=*/false);
    McfSolution a = solve_network_simplex(p);
    McfSolution b = solve_ssp(p);
    ASSERT_EQ(a.status, b.status);
    if (a.status != McfStatus::kOptimal) continue;
    EXPECT_EQ(a.total_cost, b.total_cost);
    std::string why;
    EXPECT_TRUE(check_flow_optimal(p, a, &why)) << why;
  }
}

TEST(McfChecker, RejectsCorruptedFlow) {
  McfProblem p(2);
  p.add_arc(0, 1, 10, 3);
  p.set_supply(0, 7);
  p.set_supply(1, -7);
  McfSolution s = solve_network_simplex(p);
  ASSERT_EQ(s.status, McfStatus::kOptimal);
  s.flow[0] = 6;  // violates conservation
  EXPECT_FALSE(check_flow_optimal(p, s));
  s.flow[0] = 11;  // violates capacity
  EXPECT_FALSE(check_flow_optimal(p, s));
}

TEST(McfChecker, RejectsBadPotentials) {
  McfProblem p(2);
  p.add_arc(0, 1, 10, 3);
  p.set_supply(0, 7);
  p.set_supply(1, -7);
  McfSolution s = solve_network_simplex(p);
  ASSERT_EQ(s.status, McfStatus::kOptimal);
  s.potential[0] = s.potential[1] + 100;  // dual infeasible on arc 0->1
  EXPECT_FALSE(check_flow_optimal(p, s));
}

// The network simplex's big-M start keeps every dual inside int64 only
// while (max|cost| + 1)(n + 1) <= INT64_MAX / 5 (derived in
// network_simplex.cc); past that it refuses the input.
void expect_refused(const McfProblem& p) {
  try {
    solve_network_simplex(p);
    ADD_FAILURE() << "expected EngineError(kInvalidInput)";
  } catch (const EngineError& e) {
    EXPECT_EQ(e.status(), EngineStatus::kInvalidInput) << e.what();
  }
}

TEST(NetworkSimplexOverflow, RefusesCostsTooLargeForTheBigMStart) {
  McfProblem p(2);
  p.add_arc(0, 1, 10, Cost{1} << 62);
  p.set_supply(0, 4);
  p.set_supply(1, -4);
  expect_refused(p);

  McfProblem q(2);  // |INT64_MIN| has no int64 value at all
  q.add_arc(0, 1, 10, std::numeric_limits<Cost>::min());
  expect_refused(q);

  // The largest cost the bound admits on two nodes is solved exactly.
  const Cost big = std::numeric_limits<Cost>::max() / 5 / 3 - 1;
  McfProblem r(2);
  r.add_arc(0, 1, 10, big);
  r.add_arc(1, 0, 10, -big);
  r.set_supply(0, 4);
  r.set_supply(1, -4);
  const McfSolution s = solve_network_simplex(r);
  ASSERT_EQ(s.status, McfStatus::kOptimal);
  EXPECT_EQ(s.total_cost, 4 * big);
  std::string why;
  EXPECT_TRUE(check_flow_optimal(r, s, &why)) << why;
}

TEST(NetworkSimplexOverflow, BoundScalesWithNodeCount) {
  // n + 1 = 10^6: cost 10^13 puts the big-M cost near 10^19, past int64.
  McfProblem p(999999);
  p.add_arc(0, 1, kInfFlow, 10'000'000'000'000);
  p.set_supply(0, 1);
  p.set_supply(1, -1);
  expect_refused(p);
  // Cost 10^12 keeps it near 10^18, and every dual stays exact.
  p.set_arc_cost(0, 1'000'000'000'000);
  const McfSolution s = solve_network_simplex(p);
  ASSERT_EQ(s.status, McfStatus::kOptimal);
  EXPECT_EQ(s.total_cost, 1'000'000'000'000);
  EXPECT_EQ(s.potential[0] - s.potential[1], 1'000'000'000'000);
}

TEST(McfProblemApi, RejectsSelfLoopsAndBadNodes) {
  McfProblem p(2);
  EXPECT_THROW(p.add_arc(0, 0, 1, 1), CheckError);
  EXPECT_THROW(p.add_arc(0, 5, 1, 1), CheckError);
  EXPECT_THROW(p.add_arc(-1, 1, 1, 1), CheckError);
  EXPECT_THROW(p.add_arc(0, 1, -2, 1), CheckError);
}

}  // namespace
}  // namespace mft
