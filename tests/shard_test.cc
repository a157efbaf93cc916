// Tests for the sharded large-netlist solve (sizing/shard.h):
//
//  - Partition properties, on every lowering: level-cut bands cover each
//    vertex exactly once, every crossing arc/load points from a lower
//    shard to a higher one (no cross-shard intra-level coupling — the
//    schedule-validity contract), and every band owns sizeable work.
//  - Shard networks are valid standalone problems (freeze succeeds, owned
//    vertices keep their coefficients, replicas are proper sources) and
//    the span decomposition is conservative: the sum of shard-internal
//    CPs bounds the global CP from above under the same sizes.
//  - K=1 sharded solve is bit-identical to the monolithic pipeline
//    (including the unreachable-target path).
//  - K>1 sharded solve meets the target, with a bounded area gap to the
//    monolithic solution, and is bit-identical at any worker count.
//  - Shard metadata round-trips through the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "engine/runner.h"
#include "gen/blocks.h"
#include "gen/iscas_analog.h"
#include "gen/tiled.h"
#include "sizing/minflotransit.h"
#include "sizing/shard.h"
#include "timing/lowering.h"
#include "timing/sta.h"

namespace mft {
namespace {

struct NamedCircuit {
  std::string name;
  LoweredCircuit lc;
};

/// One instance per lowering: plain gate, gate+wires, transistor.
std::vector<NamedCircuit> shard_fixtures() {
  std::vector<NamedCircuit> out;
  {
    NamedCircuit c{"c432/gate", LoweredCircuit(Tech{})};
    c.lc = lower_gate_level(make_iscas_analog("c432"), Tech{});
    out.push_back(std::move(c));
  }
  {
    GateLoweringOptions wopt;
    wopt.size_wires = true;
    NamedCircuit c{"c880/gate+wires", LoweredCircuit(Tech{})};
    c.lc = lower_gate_level(make_iscas_analog("c880"), Tech{}, wopt);
    out.push_back(std::move(c));
  }
  {
    NamedCircuit c{"adder16/transistor", LoweredCircuit(Tech{})};
    c.lc = lower_transistor_level(make_ripple_adder(16), Tech{});
    out.push_back(std::move(c));
  }
  {
    TiledDatapathParams p;
    p.lanes = 6;
    p.stages = 5;
    p.bits = 2;
    NamedCircuit c{"tiled6x5x2/gate", LoweredCircuit(Tech{})};
    c.lc = lower_gate_level(make_tiled_datapath(p), Tech{});
    out.push_back(std::move(c));
  }
  return out;
}

TEST(ShardPartition, LevelCutBandsAreValidSchedules) {
  for (const NamedCircuit& f : shard_fixtures()) {
    const SizingNetwork& net = f.lc.net;
    for (const int k : {2, 3, 5}) {
      const ShardPartition part = partition_levels(net, k);
      SCOPED_TRACE(f.name + " k=" + std::to_string(k));
      ASSERT_GE(part.num_shards(), 1);
      ASSERT_LE(part.num_shards(), k);
      ASSERT_EQ(static_cast<int>(part.cut_levels.size()),
                part.num_shards() + 1);
      EXPECT_EQ(part.cut_levels.front(), 0);
      EXPECT_EQ(part.cut_levels.back(), net.num_levels());
      EXPECT_TRUE(std::is_sorted(part.cut_levels.begin(),
                                 part.cut_levels.end()));

      // Every vertex in exactly one shard, consistent with its level band.
      std::vector<int> seen(static_cast<std::size_t>(net.num_vertices()), 0);
      for (int s = 0; s < part.num_shards(); ++s) {
        bool sizeable = false;
        for (const NodeId v : part.vertices[static_cast<std::size_t>(s)]) {
          ++seen[static_cast<std::size_t>(v)];
          EXPECT_EQ(part.shard_of[static_cast<std::size_t>(v)], s);
          const int l = net.level_of()[static_cast<std::size_t>(v)];
          EXPECT_GE(l, part.cut_levels[static_cast<std::size_t>(s)]);
          EXPECT_LT(l, part.cut_levels[static_cast<std::size_t>(s) + 1]);
          if (!net.is_source(v)) sizeable = true;
        }
        EXPECT_TRUE(sizeable) << "shard " << s << " owns no sizeable vertex";
      }
      for (const int c : seen) EXPECT_EQ(c, 1);

      // Crossing arcs and loads only ever point from a lower shard to a
      // higher one; same-level vertices never land in different shards.
      const Digraph& g = net.dag();
      for (ArcId a = 0; a < g.num_arcs(); ++a) {
        const int su = part.shard_of[static_cast<std::size_t>(g.tail(a))];
        const int sv = part.shard_of[static_cast<std::size_t>(g.head(a))];
        EXPECT_LE(su, sv);
      }
      for (NodeId v = 0; v < net.num_vertices(); ++v) {
        for (const LoadTerm& t : net.vertex(v).loads) {
          const int sv = part.shard_of[static_cast<std::size_t>(v)];
          const int st = part.shard_of[static_cast<std::size_t>(t.vertex)];
          if (sv != st) {
            const int lv = net.level_of()[static_cast<std::size_t>(v)];
            const int lt = net.level_of()[static_cast<std::size_t>(t.vertex)];
            EXPECT_NE(lv, lt)
                << "cross-shard load between same-level vertices";
            EXPECT_EQ(lv < lt ? sv : st, std::min(sv, st));
          }
        }
      }
    }
  }
}

TEST(TiledDatapath, GateCountMatchesFormula) {
  for (const TiledDatapathParams p :
       {TiledDatapathParams{3, 2, 2, true}, TiledDatapathParams{2, 5, 1, false},
        TiledDatapathParams{8, 6, 2, true}}) {
    EXPECT_EQ(make_tiled_datapath(p).num_logic_gates(),
              tiled_datapath_gates(p))
        << p.lanes << "x" << p.stages << "x" << p.bits;
  }
}

TEST(ShardPartition, DeliversTheRequestedShardCountOnRegularCircuits) {
  // The width minimization must only consider feasible boundaries: on
  // adder16 the thinnest boundary in the window is level 1, whose band
  // [0,1) is the all-source level — picking it would merge the shard away
  // and silently run monolithic.
  for (const NamedCircuit& f : shard_fixtures()) {
    SCOPED_TRACE(f.name);
    EXPECT_EQ(partition_levels(f.lc.net, 2).num_shards(), 2);
    EXPECT_EQ(partition_levels(f.lc.net, 4).num_shards(), 4);
  }
  const LoweredCircuit adder = lower_gate_level(make_ripple_adder(16), Tech{});
  EXPECT_EQ(partition_levels(adder.net, 2).num_shards(), 2);
  EXPECT_EQ(partition_levels(adder.net, 4).num_shards(), 4);
}

TEST(ShardPartition, DeepMassDoesNotSnapCutOntoEmptyAfterEndBoundary) {
  // Vertex mass concentrated in the deepest level: the equal-vertex ideal
  // split for the last cut lands at the end of the level range, where the
  // after-end boundary has crossing width 0. The partitioner must not
  // snap onto it (that would silently merge the last band away).
  Netlist nl("deepmass");
  GateId sig = nl.add_input("in");
  for (int i = 0; i < 30; ++i)
    sig = nl.add_gate(GateKind::kNot, "chain" + std::to_string(i), {sig});
  for (int i = 0; i < 500; ++i)
    nl.mark_output(
        nl.add_gate(GateKind::kNot, "leaf" + std::to_string(i), {sig}));
  nl.mark_output(sig);
  const LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const ShardPartition part = partition_levels(lc.net, 2);
  ASSERT_EQ(part.num_shards(), 2);
  EXPECT_GT(part.cut_levels[1], 0);
  EXPECT_LT(part.cut_levels[1], lc.net.num_levels());
}

TEST(ShardNetwork, ExtractionKeepsCoefficientsAndSpanBoundIsConservative) {
  for (const NamedCircuit& f : shard_fixtures()) {
    const SizingNetwork& net = f.lc.net;
    const std::vector<double> sizes = net.min_sizes();
    const TimingReport global = run_sta(net, sizes);
    for (const int k : {2, 4}) {
      SCOPED_TRACE(f.name + " k=" + std::to_string(k));
      const ShardPartition part = partition_levels(net, k);
      double span_sum = 0.0;
      int owned_total = 0;
      for (int s = 0; s < part.num_shards(); ++s) {
        const ShardNetwork sn = build_shard_network(net, part, s, sizes);
        ASSERT_TRUE(sn.net->frozen());
        owned_total += sn.num_owned;
        ASSERT_EQ(static_cast<int>(sn.global_of_local.size()),
                  sn.net->num_vertices());
        // Owned vertices keep kind and self coefficient; replicas are
        // proper sources.
        std::vector<double> local_sizes = sn.net->min_sizes();
        for (int l = 0; l < sn.net->num_vertices(); ++l) {
          const NodeId gv = sn.global_of_local[static_cast<std::size_t>(l)];
          if (l < sn.num_owned) {
            EXPECT_EQ(sn.net->vertex(l).kind, net.vertex(gv).kind);
            EXPECT_DOUBLE_EQ(sn.net->vertex(l).a_self, net.vertex(gv).a_self);
            // At the frozen sizes every owned vertex has exactly its
            // global delay: folded b terms reproduce the crossing loads.
            if (!net.is_source(gv)) {
              local_sizes[static_cast<std::size_t>(l)] =
                  sizes[static_cast<std::size_t>(gv)];
            }
          } else {
            EXPECT_EQ(sn.net->vertex(l).kind, VertexKind::kSource);
          }
        }
        for (int l = 0; l < sn.num_owned; ++l) {
          const NodeId gv = sn.global_of_local[static_cast<std::size_t>(l)];
          EXPECT_NEAR(sn.net->delay(l, local_sizes),
                      net.delay(gv, sizes), 1e-12)
              << f.name << " shard " << s << " local " << l;
        }
        span_sum += run_sta(*sn.net, local_sizes).critical_path;
      }
      EXPECT_EQ(owned_total, net.num_vertices());
      // Conservativeness: shard-internal CPs decompose every global path,
      // so their sum dominates the global CP.
      EXPECT_GE(span_sum, global.critical_path - 1e-9);
    }
  }
}

TEST(ShardSolve, K1IsBitIdenticalToMonolithic) {
  const LoweredCircuit lc = lower_gate_level(make_iscas_analog("c432"), Tech{});
  const double dmin = min_sized_delay(lc.net);
  // Reachable (including "awkward" fractions whose absolute target is
  // ulp-sensitive — the K=1 span must be the target bit-for-bit) and
  // unreachable.
  for (const double ratio : {0.7, 0.61234, 0.834, 0.05}) {
    SCOPED_TRACE(ratio);
    const double target = ratio * dmin;
    const MinflotransitResult mono = run_minflotransit(lc.net, target);
    ShardOptions opt;
    opt.num_shards = 1;
    opt.runner.threads = 1;
    const ShardSolveResult sharded = run_sharded_solve(lc.net, target, opt);
    EXPECT_EQ(sharded.num_shards, 1);
    EXPECT_TRUE(sharded.converged);
    EXPECT_EQ(sharded.result.met_target, mono.met_target);
    EXPECT_EQ(sharded.result.sizes, mono.sizes);
    EXPECT_EQ(sharded.result.area, mono.area);
    EXPECT_EQ(sharded.result.delay, mono.delay);
    // The whole result shape is forwarded, not just the final solution:
    // the true TILOS seed and the D/W iteration log survive K=1 sharding.
    EXPECT_EQ(sharded.result.initial.sizes, mono.initial.sizes);
    EXPECT_EQ(sharded.result.initial.area, mono.initial.area);
    EXPECT_EQ(sharded.result.initial.met_target, mono.initial.met_target);
    EXPECT_EQ(sharded.result.iterations.size(), mono.iterations.size());
  }
}

TEST(ShardSolve, MeetsTargetWithBoundedGapToMonolithic) {
  TiledDatapathParams p;
  p.lanes = 8;
  p.stages = 6;
  p.bits = 2;
  const LoweredCircuit lc = lower_gate_level(make_tiled_datapath(p), Tech{});
  const double dmin = min_sized_delay(lc.net);
  const double target = 0.8 * dmin;

  const MinflotransitResult mono = run_minflotransit(lc.net, target);
  ASSERT_TRUE(mono.met_target);

  ShardOptions opt;
  opt.num_shards = 4;
  opt.runner.threads = 2;
  const ShardSolveResult sharded = run_sharded_solve(lc.net, target, opt);
  ASSERT_EQ(sharded.num_shards, 4);
  ASSERT_TRUE(sharded.result.met_target);
  ASSERT_FALSE(sharded.rounds.empty());
  int solved = 0;
  for (const ShardRound& r : sharded.rounds) solved += r.shards_solved;
  EXPECT_EQ(sharded.shard_jobs, solved);
  EXPECT_EQ(sharded.rounds.front().shards_solved, 4);  // round 1: all dirty

  // The stitched solution must verify against an independent full STA.
  const TimingReport check = run_sta(lc.net, sharded.result.sizes);
  EXPECT_LE(check.critical_path, target * (1.0 + 1e-9));
  EXPECT_NEAR(check.critical_path, sharded.result.delay, 1e-12);

  // Frozen-boundary conservatism costs area, but the reconciliation keeps
  // the gap small; worst slack against the target is no worse than the
  // monolithic solution's feasibility margin (both are >= 0: they meet
  // the same target).
  EXPECT_LE(sharded.result.area, mono.area * 1.10)
      << "sharded area gap above 10%";
  EXPECT_GE(target - check.critical_path, -target * 1e-9);
}

TEST(ShardSolve, UnreachableTargetAtKGreaterThan1ReportsClosestAttempt) {
  TiledDatapathParams p;
  p.lanes = 6;
  p.stages = 4;
  p.bits = 2;
  const LoweredCircuit lc = lower_gate_level(make_tiled_datapath(p), Tech{});
  const double dmin = min_sized_delay(lc.net);
  ShardOptions opt;
  opt.num_shards = 3;
  opt.max_rounds = 2;
  opt.runner.threads = 1;
  // 0.05*Dmin is far below the TILOS floor: every round stitches
  // infeasible; the solve must not throw and must report the closest
  // attempt honestly.
  const ShardSolveResult r = run_sharded_solve(lc.net, 0.05 * dmin, opt);
  EXPECT_FALSE(r.result.met_target);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(static_cast<int>(r.rounds.size()), opt.max_rounds);
  ASSERT_EQ(static_cast<int>(r.result.sizes.size()), lc.net.num_vertices());
  EXPECT_GT(r.result.initial.achieved_delay, 0.05 * dmin);
  EXPECT_GT(r.result.area, 0.0);
  // The reported sizes really are the closest attempt: re-timing them
  // reproduces the reported achieved delay.
  EXPECT_NEAR(run_sta(lc.net, r.result.sizes).critical_path,
              r.result.initial.achieved_delay, 1e-9);
}

TEST(ShardSolve, BitIdenticalAtAnyWorkerCount) {
  TiledDatapathParams p;
  p.lanes = 8;
  p.stages = 6;
  p.bits = 2;
  const LoweredCircuit lc = lower_gate_level(make_tiled_datapath(p), Tech{});
  const double target = 0.8 * min_sized_delay(lc.net);

  ShardSolveResult base;
  bool first = true;
  for (const int workers : {1, 2, 4}) {
    ShardOptions opt;
    opt.num_shards = 4;
    opt.runner.threads = workers;
    ShardSolveResult r = run_sharded_solve(lc.net, target, opt);
    if (first) {
      base = std::move(r);
      first = false;
      continue;
    }
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_EQ(r.result.sizes, base.result.sizes);
    EXPECT_EQ(r.result.area, base.result.area);
    EXPECT_EQ(r.result.delay, base.result.delay);
    EXPECT_EQ(r.rounds.size(), base.rounds.size());
    for (std::size_t i = 0; i < r.rounds.size(); ++i) {
      EXPECT_EQ(r.rounds[i].critical_path, base.rounds[i].critical_path);
      EXPECT_EQ(r.rounds[i].area, base.rounds[i].area);
      EXPECT_EQ(r.rounds[i].spans, base.rounds[i].spans);
    }
  }
}

TEST(ShardSolve, ShardMetadataRoundTripsThroughEngine) {
  const LoweredCircuit lc = lower_gate_level(make_c17(), Tech{});
  SizingJob job;
  job.target_ratio = 0.9;
  job.shard = 3;
  job.shard_round = 2;
  job.label = "meta";
  const JobRunner runner(JobRunnerOptions{});
  const BatchResult batch = runner.run({&lc.net}, {job});
  ASSERT_TRUE(batch.results.front().ok);
  EXPECT_EQ(batch.results.front().shard, 3);
  EXPECT_EQ(batch.results.front().shard_round, 2);
}

}  // namespace
}  // namespace mft
