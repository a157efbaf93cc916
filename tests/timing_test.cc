// Tests for the timing layer: the sizing IR, STA (eq. (8)), delay
// balancing (Fig. 3/4), gate lowering, and the area/delay linearization
// weights validated by finite differences through the W-phase.
#include <gtest/gtest.h>

#include "gen/blocks.h"
#include "sizing/wphase.h"
#include "timing/delay_balance.h"
#include "timing/lowering.h"
#include "timing/sta.h"
#include "util/parallel.h"
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

  // Arrivals current, required times empty rather than stale.
  const TimingReport& a = run_arrivals(net, x, scratch, {v});
  EXPECT_EQ(a.delay, full.delay);
  EXPECT_EQ(a.at, full.at);
  EXPECT_EQ(a.critical_path, full.critical_path);
  EXPECT_EQ(a.cp_vertex, full.cp_vertex);
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
  // over from the prefix argmax, also after a level-parallel run_sta that
  // kept no prefix.
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

  ThreadArena arena(2);
  for (ThreadArena* a : {static_cast<ThreadArena*>(nullptr), &arena}) {
    SCOPED_TRACE(a == nullptr ? "sequential" : "level-parallel");
    TimingScratch scratch;
    scratch.arena = a;
    run_sta(f.net, x0, scratch);
    const TimingReport& r = run_arrivals(f.net, x, scratch, {f3});
    EXPECT_EQ(r.delay, full.delay);
    EXPECT_EQ(r.at, full.at);
    EXPECT_EQ(r.critical_path, 10.0);
    EXPECT_EQ(r.cp_vertex, s);
    EXPECT_EQ(r.critical_vertices(f.net), full.critical_vertices(f.net));
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
