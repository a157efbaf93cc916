// Tests for the sizing-report module and a few cross-module seams that the
// CLI flow exercises (tech-map + transistor sizing end to end, tech
// parameter laws).
#include <gtest/gtest.h>

#include "gen/blocks.h"
#include "sizing/minflotransit.h"
#include "sizing/report.h"
#include "timing/lowering.h"

namespace mft {
namespace {

MinflotransitResult sized_c17(LoweredCircuit& lc) {
  Netlist nl = make_c17();
  lc = lower_gate_level(nl, Tech{});
  const double dmin = min_sized_delay(lc.net);
  return run_minflotransit(lc.net, 0.6 * dmin);
}

TEST(Report, TimingSummaryContainsCriticalPath) {
  LoweredCircuit lc(Tech{});
  const MinflotransitResult r = sized_c17(lc);
  const std::string s = timing_summary(lc.net, r.sizes);
  EXPECT_NE(s.find("critical path"), std::string::npos);
  EXPECT_NE(s.find("total area"), std::string::npos);
  // Worst slack of a sized circuit is never negative.
  EXPECT_EQ(s.find("worst slack   : -"), std::string::npos);
}

TEST(Report, HistogramCountsEverySizeableVertex) {
  LoweredCircuit lc(Tech{});
  const MinflotransitResult r = sized_c17(lc);
  const std::string h = size_histogram(lc.net, r.sizes);
  // Sum the trailing counts of each row.
  int total = 0;
  for (std::size_t pos = 0; pos < h.size();) {
    const std::size_t eol = h.find('\n', pos);
    if (eol == std::string::npos) break;
    const std::string line = h.substr(pos, eol - pos);
    const std::size_t sp = line.find_last_of(' ');
    total += std::atoi(line.c_str() + sp + 1);
    pos = eol + 1;
  }
  EXPECT_EQ(total, lc.net.num_sizeable());
}

TEST(Report, CsvHasOneRowPerSizeableVertex) {
  LoweredCircuit lc(Tech{});
  const MinflotransitResult r = sized_c17(lc);
  const std::string csv = sizing_csv(lc.net, r.sizes);
  const int lines = static_cast<int>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, lc.net.num_sizeable() + 1);  // header + rows
  EXPECT_NE(csv.find("name,kind,size,delay,slack"), std::string::npos);
  EXPECT_NE(csv.find("G22,gate,"), std::string::npos);
}

TEST(Report, CompareReportShowsSavingsAndMoves) {
  LoweredCircuit lc(Tech{});
  const MinflotransitResult r = sized_c17(lc);
  const std::string s = compare_report(lc.net, r);
  EXPECT_NE(s.find("TILOS"), std::string::npos);
  EXPECT_NE(s.find("MINFLOTRANSIT"), std::string::npos);
  EXPECT_NE(s.find("savings"), std::string::npos);
}

TEST(Tech, LogicalEffortLaws) {
  // Inverter is the unit; efforts grow with fanin; NOR grows faster than
  // NAND (series PMOS are weaker).
  EXPECT_DOUBLE_EQ(logical_effort(GateKind::kNot, 1), 1.0);
  EXPECT_DOUBLE_EQ(parasitic_effort(GateKind::kNot, 1), 1.0);
  for (int k = 2; k <= 6; ++k) {
    EXPECT_GT(logical_effort(GateKind::kNand, k),
              logical_effort(GateKind::kNand, k - 1));
    EXPECT_GT(logical_effort(GateKind::kNor, k),
              logical_effort(GateKind::kNand, k));
    EXPECT_GE(parasitic_effort(GateKind::kNand, k), k);
  }
  EXPECT_EQ(logical_effort(GateKind::kInput, 0), 0.0);
}

TEST(Tech, UniformWeightsAblationRunsAndStaysFeasible) {
  Netlist nl = make_ripple_adder(6);
  LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const double dmin = min_sized_delay(lc.net);
  MinflotransitOptions opt;
  opt.dphase.uniform_weights = true;
  const MinflotransitResult r = run_minflotransit(lc.net, 0.55 * dmin, opt);
  ASSERT_TRUE(r.initial.met_target);
  EXPECT_TRUE(r.met_target);
  EXPECT_LE(r.area, r.initial.area * (1 + 1e-9));
  // The weighted objective should do at least as well as uniform.
  const MinflotransitResult full = run_minflotransit(lc.net, 0.55 * dmin);
  EXPECT_LE(full.area, r.area * 1.02);
}

TEST(Tech, TilosOnlyModeSkipsIterations) {
  Netlist nl = make_c17();
  LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const double dmin = min_sized_delay(lc.net);
  MinflotransitOptions opt;
  opt.max_iterations = 0;
  const MinflotransitResult r = run_minflotransit(lc.net, 0.6 * dmin, opt);
  EXPECT_TRUE(r.met_target);
  EXPECT_TRUE(r.iterations.empty());
  // Iteration 0 (pure W pruning) still applies: never worse than TILOS.
  EXPECT_LE(r.area, r.initial.area * (1 + 1e-9));
}

}  // namespace
}  // namespace mft
