// Tests for the timing layer: the sizing IR, STA (eq. (8)) — including the
// agreement of the hinted, scanning, full and arrival-only paths under
// randomized size updates — delay balancing (Fig. 3/4), gate lowering, and
// the area/delay linearization weights validated by finite differences
// through the W-phase.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/blocks.h"
#include "sizing/wphase.h"
#include "timing/delay_balance.h"
#include "timing/lowering.h"
#include "timing/sta.h"
#include "util/rng.h"

namespace mft {
namespace {

// A network of fixed-delay vertices (x = 1, delay = b): lets us hand-check
// STA against a worked example.
struct FixedDelayNet {
  SizingNetwork net{Tech{}};
  std::vector<NodeId> v;

  NodeId source(const std::string& name) {
    SizingVertex s;
    s.kind = VertexKind::kSource;
    v.push_back(net.add_vertex(std::move(s), name));
    return v.back();
  }
  NodeId vertex(const std::string& name, double delay, bool po = false) {
    SizingVertex s;
    s.kind = VertexKind::kGate;
    s.b = delay;
    s.is_po = po;
    v.push_back(net.add_vertex(std::move(s), name));
    return v.back();
  }
  std::vector<double> unit_sizes() const {
    std::vector<double> x(static_cast<std::size_t>(net.num_vertices()), 1.0);
    return x;
  }
};

TEST(Sta, DiamondHandExample) {
  // PI -> A(2) -> {B(3), C(1)} -> D(2, PO).
  FixedDelayNet f;
  const NodeId pi = f.source("pi");
  const NodeId a = f.vertex("A", 2);
  const NodeId b = f.vertex("B", 3);
  const NodeId c = f.vertex("C", 1);
  const NodeId d = f.vertex("D", 2, /*po=*/true);
  f.net.add_arc(pi, a);
  f.net.add_arc(a, b);
  f.net.add_arc(a, c);
  f.net.add_arc(b, d);
  f.net.add_arc(c, d);
  f.net.freeze();

  const TimingReport t = run_sta(f.net, f.unit_sizes());
  EXPECT_DOUBLE_EQ(t.critical_path, 7.0);
  EXPECT_DOUBLE_EQ(t.at[static_cast<std::size_t>(a)], 0.0);
  EXPECT_DOUBLE_EQ(t.at[static_cast<std::size_t>(b)], 2.0);
  EXPECT_DOUBLE_EQ(t.at[static_cast<std::size_t>(c)], 2.0);
  EXPECT_DOUBLE_EQ(t.at[static_cast<std::size_t>(d)], 5.0);
  EXPECT_DOUBLE_EQ(t.rt[static_cast<std::size_t>(d)], 5.0);
  EXPECT_DOUBLE_EQ(t.rt[static_cast<std::size_t>(b)], 2.0);
  EXPECT_DOUBLE_EQ(t.rt[static_cast<std::size_t>(c)], 4.0);
  EXPECT_DOUBLE_EQ(t.slack(c), 2.0);
  EXPECT_DOUBLE_EQ(t.slack(a), 0.0);
  EXPECT_TRUE(t.safe(f.net));

  // Edge slack on C->D (arc index 4): RT(D) - AT(C) - delay(C) = 2.
  EXPECT_DOUBLE_EQ(t.edge_slack(f.net, 4), 2.0);

  // The critical path is PI, A, B, D.
  const auto path = t.critical_vertices(f.net);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[1], a);
  EXPECT_EQ(path[2], b);
  EXPECT_EQ(path[3], d);
}

TEST(Sta, ArrivalOnlyReportHasNoRequiredTimes) {
  const LoweredCircuit lc = lower_gate_level(make_alu(8), Tech{});
  const SizingNetwork& net = lc.net;
  std::vector<double> x = net.min_sizes();
  TimingScratch scratch;
  run_sta(net, x, scratch);
  NodeId v = 0;
  while (net.is_source(v)) ++v;
  x[static_cast<std::size_t>(v)] *= 2.0;
  const TimingReport full = run_sta(net, x);

  // Arrivals current in position order; the id-indexed arrays empty
  // rather than stale.
  const TimingReport& a = run_arrivals(net, x, scratch, {v});
  EXPECT_EQ(a.delay_pos, full.delay_pos);
  EXPECT_EQ(a.at_pos, full.at_pos);
  EXPECT_EQ(a.critical_path, full.critical_path);
  EXPECT_EQ(a.cp_vertex, full.cp_vertex);
  EXPECT_EQ(a.critical_vertices(net), full.critical_vertices(net));
  EXPECT_TRUE(a.delay.empty());
  EXPECT_TRUE(a.at.empty());
  EXPECT_TRUE(a.rt.empty());

  // Slack queries refuse it.
  EXPECT_THROW(a.slack(v), CheckError);
  EXPECT_THROW(a.safe(net), CheckError);
  EXPECT_THROW(a.edge_slack(net, 0), CheckError);

  // The next run_sta on the same scratch rebuilds all three arrays.
  const TimingReport& r = run_sta(net, x, scratch);
  EXPECT_EQ(r.delay, full.delay);
  EXPECT_EQ(r.at, full.at);
  EXPECT_EQ(r.rt, full.rt);
  EXPECT_EQ(r.slack(v), full.slack(v));
  EXPECT_TRUE(r.safe(net));
  EXPECT_EQ(r.edge_slack(net, 0), full.edge_slack(net, 0));
}

TEST(Sta, ArrivalFoldKeepsACriticalEndpointBeforeTheChange) {
  // A shallow slow path PI -> S(10) and a deep fast one PI -> F1 -> F2 ->
  // F3 (1 each). S ends the critical path at an earlier sweep position than
  // F3, so resizing F3 resumes the fold past the endpoint: it must carry
  // over from the prefix argmax.
  FixedDelayNet f;
  const NodeId pi = f.source("pi");
  const NodeId s = f.vertex("S", 10, /*po=*/true);
  const NodeId f1 = f.vertex("F1", 1);
  const NodeId f2 = f.vertex("F2", 1);
  const NodeId f3 = f.vertex("F3", 1, /*po=*/true);
  f.net.add_arc(pi, s);
  f.net.add_arc(pi, f1);
  f.net.add_arc(f1, f2);
  f.net.add_arc(f2, f3);
  f.net.freeze();
  const std::vector<double> x0 = f.unit_sizes();
  std::vector<double> x = x0;
  x[static_cast<std::size_t>(f3)] = 2.0;
  const TimingReport full = run_sta(f.net, x);
  ASSERT_EQ(full.cp_vertex, s);

  TimingScratch scratch;
  run_sta(f.net, x0, scratch);
  const TimingReport& r = run_arrivals(f.net, x, scratch, {f3});
  EXPECT_EQ(r.delay_pos, full.delay_pos);
  EXPECT_EQ(r.at_pos, full.at_pos);
  EXPECT_EQ(r.critical_path, 10.0);
  EXPECT_EQ(r.cp_vertex, s);
  EXPECT_EQ(r.critical_vertices(f.net), full.critical_vertices(f.net));
}

TEST(Sta, EmptyReportRefusesEveryQuery) {
  FixedDelayNet f;
  const NodeId pi = f.source("pi");
  const NodeId a = f.vertex("A", 2, /*po=*/true);
  f.net.add_arc(pi, a);
  f.net.freeze();
  const TimingReport empty;
  EXPECT_THROW(empty.slack(a), CheckError);
  EXPECT_THROW(empty.edge_slack(f.net, 0), CheckError);
  EXPECT_THROW(empty.safe(f.net), CheckError);
  EXPECT_THROW(empty.critical_vertices(f.net), CheckError);

  // A full report answers every query, but not for a vertex out of range.
  const TimingReport t = run_sta(f.net, f.unit_sizes());
  EXPECT_EQ(t.slack(a), 0.0);
  EXPECT_EQ(t.edge_slack(f.net, 0), 0.0);
  EXPECT_TRUE(t.safe(f.net));
  EXPECT_EQ(t.critical_vertices(f.net), (std::vector<NodeId>{pi, a}));
  EXPECT_THROW(t.slack(f.net.num_vertices()), CheckError);
  EXPECT_THROW(t.slack(kInvalidNode), CheckError);
}

TEST(Sta, CriticalPathTieGoesToTheLowestVertexIdNotTheEarliestPosition) {
  // C's fanins X and Y both end at 3. Y has the lower id but the later
  // sweep position (level 3 against X's level 1), so a walk that broke
  // ties by position would route through X.
  FixedDelayNet f;
  const NodeId pi = f.source("pi");
  const NodeId y = f.vertex("Y", 1);
  const NodeId a = f.vertex("A", 1);
  const NodeId b = f.vertex("B", 1);
  const NodeId x = f.vertex("X", 3);
  const NodeId c = f.vertex("C", 1, /*po=*/true);
  f.net.add_arc(pi, a);
  f.net.add_arc(a, b);
  f.net.add_arc(b, y);
  f.net.add_arc(pi, x);
  f.net.add_arc(x, c);
  f.net.add_arc(y, c);
  f.net.freeze();
  const SweepPlan& pl = f.net.plan();
  ASSERT_LT(pl.pos_of[static_cast<std::size_t>(x)],
            pl.pos_of[static_cast<std::size_t>(y)]);
  const std::vector<NodeId> want = {pi, a, b, y, c};

  const std::vector<double> unit = f.unit_sizes();
  const TimingReport full = run_sta(f.net, unit);
  ASSERT_EQ(full.at[static_cast<std::size_t>(c)], 3.0);
  EXPECT_EQ(full.critical_vertices(f.net), want);

  // Arrival-only: X timed at twice its size, then shrunk back, so the fold
  // resumes at X and re-forms the tie at C.
  std::vector<double> wide = unit;
  wide[static_cast<std::size_t>(x)] = 2.0;
  TimingScratch scratch;
  run_sta(f.net, wide, scratch);
  EXPECT_EQ(run_arrivals(f.net, unit, scratch, {x}).critical_vertices(f.net),
            want);
}

void expect_reports_identical(const TimingReport& a, const TimingReport& b) {
  ASSERT_EQ(a.delay.size(), b.delay.size());
  for (std::size_t i = 0; i < a.delay.size(); ++i) {
    EXPECT_EQ(a.delay[i], b.delay[i]) << "delay " << i;
    EXPECT_EQ(a.at[i], b.at[i]) << "at " << i;
    EXPECT_EQ(a.rt[i], b.rt[i]) << "rt " << i;
  }
  EXPECT_EQ(a.delay_pos, b.delay_pos);
  EXPECT_EQ(a.at_pos, b.at_pos);
  EXPECT_EQ(a.critical_path, b.critical_path);
  EXPECT_EQ(a.cp_vertex, b.cp_vertex);
}

// Everything an arrival-only report carries: the position-order delays
// and ATs, the critical path and its walk.
void expect_arrivals_identical(const SizingNetwork& net,
                               const TimingReport& full,
                               const TimingReport& got) {
  ASSERT_EQ(full.delay_pos.size(), got.delay_pos.size());
  ASSERT_EQ(full.at_pos.size(), got.at_pos.size());
  for (std::size_t p = 0; p < full.delay_pos.size(); ++p) {
    EXPECT_EQ(full.delay_pos[p], got.delay_pos[p]) << "delay_pos " << p;
    EXPECT_EQ(full.at_pos[p], got.at_pos[p]) << "at_pos " << p;
  }
  EXPECT_EQ(full.critical_path, got.critical_path);
  EXPECT_EQ(full.cp_vertex, got.cp_vertex);
  EXPECT_EQ(full.critical_vertices(net), got.critical_vertices(net));
}

TEST(Sta, HintedScanningFullAndArrivalOnlyAgree) {
  // Randomized size updates timed four ways — the hinted and the scanning
  // incremental run_sta, a full run_sta, and arrival-only runs interleaved
  // with run_sta on one scratch — must agree bit for bit.
  struct Named {
    std::string name;
    LoweredCircuit lc;
  };
  std::vector<Named> corpus;
  corpus.push_back({"alu8", lower_gate_level(make_alu(8), Tech{})});
  RandomLogicParams prm;
  prm.num_inputs = 32;
  prm.num_gates = 900;
  prm.seed = 21;
  corpus.push_back(
      {"rnd900", lower_gate_level(make_random_logic(prm), Tech{})});
  GateLoweringOptions wires;
  wires.size_wires = true;
  corpus.push_back(
      {"adder8+wires", lower_gate_level(make_ripple_adder(8), Tech{}, wires)});
  corpus.push_back(
      {"adder4-trans", lower_transistor_level(make_ripple_adder(4), Tech{})});
  // A second network for the arrival scratch to switch to and back from.
  const LoweredCircuit other = lower_gate_level(make_c17(), Tech{});
  const std::vector<double> other_sizes = other.net.min_sizes();
  const std::vector<NodeId> none;
  for (const Named& t : corpus) {
    SCOPED_TRACE(t.name);
    const SizingNetwork& net = t.lc.net;
    TimingScratch hinted;
    TimingScratch scanned;
    TimingScratch arrivals;
    Rng rng(0xabdu);
    auto random_vertex = [&] {
      NodeId v;
      do {
        v = static_cast<NodeId>(
            rng.index(static_cast<std::size_t>(net.num_vertices())));
      } while (net.is_source(v));
      return v;
    };
    std::vector<double> x = net.min_sizes();
    run_sta(net, x, hinted);
    run_sta(net, x, scanned);
    run_sta(net, x, arrivals);
    for (int step = 0; step < 16; ++step) {
      // Even steps resize one vertex (a TILOS bump), odd steps several.
      std::vector<NodeId> changed;
      const int moves = step % 2 == 0 ? 1 : 2 + static_cast<int>(rng.index(3));
      for (int m = 0; m < moves; ++m) {
        const NodeId v = random_vertex();
        x[static_cast<std::size_t>(v)] *= rng.uniform(1.01, 1.5);
        changed.push_back(v);
      }
      // Supersets and duplicates are part of the hint contract.
      const std::vector<NodeId> once = changed;
      changed.insert(changed.end(), once.begin(), once.end());
      changed.push_back(0);
      const TimingReport full = run_sta(net, x);
      const TimingReport& h = run_sta(net, x, hinted, changed);
      expect_reports_identical(run_sta(net, x, scanned), h);
      expect_reports_identical(full, h);
      if (step % 5 == 4) {
        expect_reports_identical(full, run_sta(net, x, arrivals, changed));
      } else {
        const TimingReport& a = run_arrivals(net, x, arrivals, changed);
        expect_arrivals_identical(net, full, a);
        EXPECT_TRUE(a.rt.empty());
      }
    }
    EXPECT_EQ(hinted.hinted_runs, 16);
    EXPECT_EQ(scanned.hinted_runs, 0);

    // Switching networks and back refolds each one from scratch.
    expect_arrivals_identical(other.net, run_sta(other.net, other_sizes),
                              run_arrivals(other.net, other_sizes, arrivals,
                                           none));
    expect_arrivals_identical(net, run_sta(net, x),
                              run_arrivals(net, x, arrivals, none));
  }
}

TEST(DelayBalance, AsapAndAlapAreBalancedAndDisplaced) {
  FixedDelayNet f;
  const NodeId pi = f.source("pi");
  const NodeId a = f.vertex("A", 2);
  const NodeId b = f.vertex("B", 3);
  const NodeId c = f.vertex("C", 1);
  const NodeId d = f.vertex("D", 2, true);
  f.net.add_arc(pi, a);
  f.net.add_arc(a, b);
  const ArcId arc_ac = f.net.dag().num_arcs();
  f.net.add_arc(a, c);
  f.net.add_arc(b, d);
  const ArcId arc_cd = f.net.dag().num_arcs();
  f.net.add_arc(c, d);
  f.net.freeze();
  const auto x = f.unit_sizes();
  const TimingReport t = run_sta(f.net, x);

  const DelayBalance asap = compute_delay_balance(f.net, t, BalanceMode::kAsap);
  const DelayBalance alap = compute_delay_balance(f.net, t, BalanceMode::kAlap);
  std::string why;
  EXPECT_TRUE(check_balanced(f.net, t, asap, &why)) << why;
  EXPECT_TRUE(check_balanced(f.net, t, alap, &why)) << why;

  // ASAP pushes C's 2 units of slack onto the C->D edge; ALAP onto A->C.
  EXPECT_DOUBLE_EQ(asap.arc_fsdu[static_cast<std::size_t>(arc_cd)], 2.0);
  EXPECT_DOUBLE_EQ(asap.arc_fsdu[static_cast<std::size_t>(arc_ac)], 0.0);
  EXPECT_DOUBLE_EQ(alap.arc_fsdu[static_cast<std::size_t>(arc_ac)], 2.0);
  EXPECT_DOUBLE_EQ(alap.arc_fsdu[static_cast<std::size_t>(arc_cd)], 0.0);

  // Theorem 1: the two configurations are FSDU-displaced versions of each
  // other, i.e. FSDU'(i→j) − FSDU(i→j) = r(j) − r(i) with r = t' − t.
  for (ArcId arc = 0; arc < f.net.dag().num_arcs(); ++arc) {
    const NodeId i = f.net.dag().tail(arc);
    const NodeId j = f.net.dag().head(arc);
    const double r_i = alap.schedule[static_cast<std::size_t>(i)] -
                       asap.schedule[static_cast<std::size_t>(i)];
    const double r_j = alap.schedule[static_cast<std::size_t>(j)] -
                       asap.schedule[static_cast<std::size_t>(j)];
    EXPECT_NEAR(alap.arc_fsdu[static_cast<std::size_t>(arc)] -
                    asap.arc_fsdu[static_cast<std::size_t>(arc)],
                r_j - r_i, 1e-12);
  }
}

TEST(DelayBalance, PathSumsEqualCriticalPath) {
  // Property: in a balanced configuration every maximal path's delays plus
  // FSDUs (plus the PO FSDU) add up to exactly CP.
  Netlist nl = make_ripple_adder(6);
  LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const auto x = lc.net.min_sizes();
  const TimingReport t = run_sta(lc.net, x);
  for (BalanceMode mode : {BalanceMode::kAsap, BalanceMode::kAlap}) {
    const DelayBalance bal = compute_delay_balance(lc.net, t, mode);
    std::string why;
    ASSERT_TRUE(check_balanced(lc.net, t, bal, &why)) << why;
    // Random greedy walks source -> sink.
    Rng rng(3);
    const Digraph& g = lc.net.dag();
    for (int walk = 0; walk < 20; ++walk) {
      const auto sources = g.sources();
      NodeId v = sources[rng.index(sources.size())];
      double sum = bal.schedule[static_cast<std::size_t>(v)];
      while (g.out_degree(v) > 0) {
        const ArcId a = g.out_arcs(v)[rng.index(
            static_cast<std::size_t>(g.out_degree(v)))];
        sum += t.delay[static_cast<std::size_t>(v)] +
               bal.arc_fsdu[static_cast<std::size_t>(a)];
        v = g.head(a);
      }
      sum += t.delay[static_cast<std::size_t>(v)] +
             bal.po_fsdu[static_cast<std::size_t>(v)];
      EXPECT_NEAR(sum, bal.critical_path, 1e-9) << "walk " << walk;
    }
  }
}

TEST(GateLowering, InverterChainElmoreByHand) {
  // PI -> inv1 -> inv2(PO). Unit sizes, defaults:
  // delay(inv1) = a_self + (c_in·g(inv2)·x2 + c_wire)/x1
  //             = r·1·c_par·1 + (1·1·1·1 + 0.6)/1 = 0.35 + 1.6 = 1.95
  // delay(inv2) = 0.35 + c_po_load/1 = 4.35.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId i1 = nl.add_gate(GateKind::kNot, "i1", {a});
  const GateId i2 = nl.add_gate(GateKind::kNot, "i2", {i1});
  nl.mark_output(i2);
  Tech tech;
  tech.c_par = 0.35;  // the hand numbers below assume this value
  LoweredCircuit lc = lower_gate_level(nl, tech);
  auto x = lc.net.min_sizes();
  const NodeId v1 = lc.gate_vertices[static_cast<std::size_t>(i1)][0];
  const NodeId v2 = lc.gate_vertices[static_cast<std::size_t>(i2)][0];
  EXPECT_NEAR(lc.net.delay(v1, x), 1.95, 1e-12);
  EXPECT_NEAR(lc.net.delay(v2, x), 4.35, 1e-12);

  // Upsizing the load gate makes the driver slower, itself faster.
  x[static_cast<std::size_t>(v2)] = 4.0;
  EXPECT_NEAR(lc.net.delay(v1, x), 0.35 + (4.0 + 0.6) / 1.0, 1e-12);
  EXPECT_NEAR(lc.net.delay(v2, x), 0.35 + 4.0 / 4.0, 1e-12);
}

TEST(GateLowering, MultiInputGatesAreSlowerAtEqualSize) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId n2 = nl.add_gate(GateKind::kNand, "n2", {a, b});
  const GateId n3 = nl.add_gate(GateKind::kNand, "n3", {a, b, c});
  nl.mark_output(n2);
  nl.mark_output(n3);
  LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const auto x = lc.net.min_sizes();
  EXPECT_GT(lc.net.delay(lc.gate_vertices[static_cast<std::size_t>(n3)][0], x),
            lc.net.delay(lc.gate_vertices[static_cast<std::size_t>(n2)][0], x));
}

TEST(GateLowering, PinMultiplicityCountsTwice) {
  // A gate feeding both pins of a NAND2 contributes twice the pin load.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId inv = nl.add_gate(GateKind::kNot, "inv", {a});
  const GateId both = nl.add_gate(GateKind::kNand, "both", {inv, inv});
  nl.mark_output(both);
  Netlist nl1;
  const GateId a1 = nl1.add_input("a");
  const GateId b1 = nl1.add_input("b");
  const GateId inv1 = nl1.add_gate(GateKind::kNot, "inv", {a1});
  const GateId one = nl1.add_gate(GateKind::kNand, "one", {inv1, b1});
  nl1.mark_output(one);
  LoweredCircuit lc2 = lower_gate_level(nl, Tech{});
  LoweredCircuit lc1 = lower_gate_level(nl1, Tech{});
  const double d2 = lc2.net.delay(
      lc2.gate_vertices[static_cast<std::size_t>(inv)][0], lc2.net.min_sizes());
  const double d1 = lc1.net.delay(
      lc1.gate_vertices[static_cast<std::size_t>(inv1)][0], lc1.net.min_sizes());
  EXPECT_GT(d2, d1);
}

TEST(GateLowering, WireVerticesExtendTheDag) {
  Netlist nl = make_ripple_adder(4);
  GateLoweringOptions opt;
  opt.size_wires = true;
  LoweredCircuit plain = lower_gate_level(nl, Tech{});
  LoweredCircuit wired = lower_gate_level(nl, Tech{}, opt);
  EXPECT_GT(wired.net.num_vertices(), plain.net.num_vertices());
  // Wire vertices exist exactly for driven nets.
  int wires = 0;
  for (GateId g = 0; g < nl.num_gates(); ++g)
    if (wired.wire_vertices[static_cast<std::size_t>(g)] != kInvalidNode)
      ++wires;
  int driven = 0;
  for (GateId g = 0; g < nl.num_gates(); ++g)
    if (!nl.fanouts(g).empty()) ++driven;
  EXPECT_EQ(wires, driven);
  // STA still runs and yields a finite critical path.
  const TimingReport t = run_sta(wired.net, wired.net.min_sizes());
  EXPECT_GT(t.critical_path, 0.0);
  EXPECT_TRUE(t.safe(wired.net));
}

TEST(Weights, MatchFiniteDifferenceThroughWPhase) {
  // The D-phase linearization claims Δ(Σx) ≈ −C_i·δd_i. Verify through the
  // actual W-phase: perturb one vertex's budget and compare the area change
  // against the analytic weight.
  Netlist nl = make_c17();
  Tech tech;
  tech.min_size = 0.01;  // keep the least fixpoint unclamped
  LoweredCircuit lc = lower_gate_level(nl, tech);

  // A generous interior operating point.
  std::vector<double> x0(static_cast<std::size_t>(lc.net.num_vertices()), 5.0);
  for (NodeId v = 0; v < lc.net.num_vertices(); ++v)
    if (lc.net.is_source(v)) x0[static_cast<std::size_t>(v)] = 0.0;
  std::vector<double> budget(static_cast<std::size_t>(lc.net.num_vertices()));
  for (NodeId v = 0; v < lc.net.num_vertices(); ++v)
    budget[static_cast<std::size_t>(v)] = lc.net.delay(v, x0);
  const WPhaseResult base = solve_wphase(lc.net, budget);
  ASSERT_TRUE(base.feasible);
  const double base_area = lc.net.area(base.sizes);
  const std::vector<double> weights = lc.net.area_delay_weights(base.sizes);

  for (NodeId v = 0; v < lc.net.num_vertices(); ++v) {
    if (lc.net.is_source(v)) continue;
    const double eps = 1e-5 * budget[static_cast<std::size_t>(v)];
    auto perturbed = budget;
    perturbed[static_cast<std::size_t>(v)] += eps;
    const WPhaseResult r = solve_wphase(lc.net, perturbed);
    ASSERT_TRUE(r.feasible);
    const double darea = lc.net.area(r.sizes) - base_area;
    EXPECT_NEAR(darea, -weights[static_cast<std::size_t>(v)] * eps,
                std::abs(weights[static_cast<std::size_t>(v)] * eps) * 0.02 +
                    1e-12)
        << "vertex " << v;
  }
}

TEST(SizingNetwork, InvariantsEnforced) {
  SizingNetwork net{Tech{}};
  SizingVertex src;
  src.kind = VertexKind::kSource;
  const NodeId s = net.add_vertex(src, "s");
  SizingVertex g;
  g.kind = VertexKind::kGate;
  g.b = 1.0;
  const NodeId v = net.add_vertex(g, "g");
  EXPECT_THROW(net.add_load(v, s, 1.0), CheckError);   // loads on sources
  EXPECT_THROW(net.add_load(v, v, 1.0), CheckError);   // self-load
  net.add_arc(s, v);
  net.freeze();
  EXPECT_THROW(net.add_b(v, 1.0), CheckError);  // frozen
  // Degenerate vertex (no loads, b = 0) is rejected at freeze.
  SizingNetwork bad{Tech{}};
  SizingVertex z;
  z.kind = VertexKind::kGate;
  bad.add_vertex(z, "z");
  EXPECT_THROW(bad.freeze(), CheckError);
}

TEST(SizingNetwork, CycleRejectedAtFreeze) {
  SizingNetwork net{Tech{}};
  SizingVertex a;
  a.kind = VertexKind::kGate;
  a.b = 1.0;
  SizingVertex b = a;
  const NodeId va = net.add_vertex(a, "a");
  const NodeId vb = net.add_vertex(b, "b");
  net.add_arc(va, vb);
  net.add_arc(vb, va);
  EXPECT_THROW(net.freeze(), CheckError);
}

}  // namespace
}  // namespace mft
