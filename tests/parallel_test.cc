// Tests for the inner-loop parallelism stack:
//
//  - ThreadArena: static partitioning covers [0, n) exactly once, thread
//    indices are dense, tiny ranges run inline, and one arena survives
//    thousands of dispatches.
//  - Levelization: on every generated circuit (gate, gate+wires, and
//    transistor lowering) the cached levels are a valid parallel schedule —
//    no two same-level vertices share an arc or a load term, and every load
//    term's orientation agrees with the topological order.
//  - Bit-identity: parallel run_sta and solve_wphase (1/2/4 inner threads,
//    including the changed-hint incremental path) match the sequential
//    results bit for bit.
//  - Hints and warm starts: the changed-hint STA path agrees with the
//    scanning path under randomized updates, and the arrival-only path
//    with full STA, interleaved with full and parallel runs on one scratch,
//    across a fast-math flip and a network switch; warm-started W-phase
//    matches cold on triangular networks and converges to the same
//    fixpoint on coupled ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "gen/blocks.h"
#include "gen/iscas_analog.h"
#include "sizing/tilos.h"
#include "sizing/wphase.h"
#include "timing/lowering.h"
#include "timing/sta.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace mft {
namespace {

// ---------------------------------------------------------------------------
// ThreadArena
// ---------------------------------------------------------------------------

TEST(ThreadArena, CoversRangeExactlyOnceAtEveryThreadCount) {
  for (int threads : {1, 2, 3, 4}) {
    ThreadArena arena(threads);
    EXPECT_EQ(arena.threads(), threads);
    for (int n : {0, 1, 7, 64, 129, 1000}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      for (auto& h : hits) h.store(0);
      arena.parallel_for(n, /*grain=*/16, [&](int thread, int begin, int end) {
        EXPECT_GE(thread, 0);
        EXPECT_LT(thread, threads);
        EXPECT_LE(begin, end);
        for (int i = begin; i < end; ++i)
          hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
      for (int i = 0; i < n; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "n=" << n << " threads=" << threads << " i=" << i;
    }
  }
}

TEST(ThreadArena, SmallRangesRunInlineOnCallerThread) {
  ThreadArena arena(4);
  int calls = 0;
  // Below the grain the body must run inline as one chunk on thread 0.
  arena.parallel_for(10, /*grain=*/64, [&](int thread, int begin, int end) {
    ++calls;
    EXPECT_EQ(thread, 0);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 10);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadArena, SurvivesManySmallDispatches) {
  // The level sweeps dispatch once per level — thousands of tiny regions
  // against one arena must accumulate exactly.
  ThreadArena arena(4);
  std::atomic<long long> sum{0};
  long long expect = 0;
  for (int round = 0; round < 3000; ++round) {
    const int n = 1 + (round % 97);
    expect += n;
    arena.parallel_for(n, /*grain=*/8, [&](int, int begin, int end) {
      sum.fetch_add(end - begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), expect);
}

// ---------------------------------------------------------------------------
// Levelization
// ---------------------------------------------------------------------------

struct NamedNet {
  std::string name;
  LoweredCircuit lc;
};

std::vector<NamedNet> schedule_corpus() {
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

TEST(Levelization, IsValidParallelScheduleOnEveryGeneratedCircuit) {
  for (const NamedNet& t : schedule_corpus()) {
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
    // order — that equivalence is what makes the level sweeps read exactly
    // the values the sequential sweeps read.
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
// Parallel STA bit-identity
// ---------------------------------------------------------------------------

void expect_reports_identical(const TimingReport& a, const TimingReport& b) {
  ASSERT_EQ(a.delay.size(), b.delay.size());
  for (std::size_t i = 0; i < a.delay.size(); ++i) {
    EXPECT_EQ(a.delay[i], b.delay[i]) << "delay " << i;
    EXPECT_EQ(a.at[i], b.at[i]) << "at " << i;
    EXPECT_EQ(a.rt[i], b.rt[i]) << "rt " << i;
  }
  EXPECT_EQ(a.critical_path, b.critical_path);
  EXPECT_EQ(a.cp_vertex, b.cp_vertex);
}

std::vector<NamedNet> identity_corpus() {
  std::vector<NamedNet> nets;
  nets.push_back({"alu8", lower_gate_level(make_alu(8), Tech{})});
  RandomLogicParams prm;
  prm.num_inputs = 32;
  prm.num_gates = 900;
  prm.seed = 21;
  nets.push_back({"rnd900", lower_gate_level(make_random_logic(prm), Tech{})});
  GateLoweringOptions wires;
  wires.size_wires = true;
  nets.push_back(
      {"adder8+wires", lower_gate_level(make_ripple_adder(8), Tech{}, wires)});
  nets.push_back(
      {"adder4-trans", lower_transistor_level(make_ripple_adder(4), Tech{})});
  return nets;
}

TEST(ParallelSta, BitIdenticalToSequentialAcrossThreadCounts) {
  for (const NamedNet& t : identity_corpus()) {
    SCOPED_TRACE(t.name);
    const SizingNetwork& net = t.lc.net;
    Rng rng(0xfeedu);
    // A randomized trajectory of size updates, replayed identically
    // against the sequential scratch and each parallel scratch.
    std::vector<std::vector<double>> trail;
    std::vector<double> x = net.min_sizes();
    trail.push_back(x);
    for (int step = 0; step < 12; ++step) {
      const int moves = 1 + static_cast<int>(rng.index(5));
      for (int m = 0; m < moves; ++m) {
        const NodeId v = static_cast<NodeId>(
            rng.index(static_cast<std::size_t>(net.num_vertices())));
        if (net.is_source(v)) continue;
        x[static_cast<std::size_t>(v)] =
            std::min(net.tech().max_size,
                     x[static_cast<std::size_t>(v)] * rng.uniform(1.0, 1.6));
      }
      trail.push_back(x);
    }

    TimingScratch seq;
    std::vector<TimingReport> expected;
    for (const auto& sizes : trail)
      expected.push_back(run_sta(net, sizes, seq));  // copies the report

    for (int threads : {2, 4}) {
      SCOPED_TRACE(threads);
      ThreadArena arena(threads);
      TimingScratch par;
      par.arena = &arena;
      for (std::size_t i = 0; i < trail.size(); ++i) {
        const TimingReport& got = run_sta(net, trail[i], par);
        expect_reports_identical(expected[i], got);
      }
      EXPECT_EQ(par.full_runs, 1);
      EXPECT_EQ(par.incremental_runs,
                static_cast<std::int64_t>(trail.size()) - 1);
    }
  }
}

// Everything an arrival-only report carries: delay, at, the critical path
// and its walk.
void expect_arrivals_identical(const SizingNetwork& net,
                               const TimingReport& full,
                               const TimingReport& got) {
  ASSERT_EQ(full.delay.size(), got.delay.size());
  ASSERT_EQ(full.at.size(), got.at.size());
  for (std::size_t i = 0; i < full.delay.size(); ++i) {
    EXPECT_EQ(full.delay[i], got.delay[i]) << "delay " << i;
    EXPECT_EQ(full.at[i], got.at[i]) << "at " << i;
  }
  EXPECT_EQ(full.critical_path, got.critical_path);
  EXPECT_EQ(full.cp_vertex, got.cp_vertex);
  EXPECT_EQ(full.critical_vertices(net), got.critical_vertices(net));
}

TEST(ParallelSta, HintedIncrementalMatchesScanAndFullAcrossThreadCounts) {
  // A second network for the arrival scratch to switch to and back from.
  const LoweredCircuit other = lower_gate_level(make_c17(), Tech{});
  const std::vector<double> other_sizes = other.net.min_sizes();
  const std::vector<NodeId> none;
  for (const NamedNet& t : identity_corpus()) {
    SCOPED_TRACE(t.name);
    const SizingNetwork& net = t.lc.net;
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(threads);
      ThreadArena arena(threads);
      TimingScratch hinted;
      hinted.arena = threads > 1 ? &arena : nullptr;
      TimingScratch scanned;
      // Arrival-only runs interleaved with run_sta on one scratch: full
      // sequential sweeps at 1 thread, level-parallel ones above.
      TimingScratch arrivals;
      arrivals.arena = hinted.arena;
      Rng rng(0xabcu + static_cast<std::uint64_t>(threads));
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
        const int moves =
            step % 2 == 0 ? 1 : 2 + static_cast<int>(rng.index(3));
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

      // Fast-math flip: the arrival path re-delays with delay_at_fast just
      // as the hinted run_sta does, and flipping back is exact again.
      TimingScratch fast;
      fast.fast_math = true;
      run_sta(net, x, fast);
      arrivals.fast_math = true;
      for (int bump = 0; bump < 3; ++bump) {
        const NodeId v = random_vertex();
        x[static_cast<std::size_t>(v)] *= 1.1;
        expect_arrivals_identical(net, run_sta(net, x, fast, {v}),
                                  run_arrivals(net, x, arrivals, {v}));
      }
      arrivals.fast_math = false;
      expect_arrivals_identical(net, run_sta(net, x),
                                run_arrivals(net, x, arrivals, none));

      // Switching networks and back refolds each one from scratch.
      expect_arrivals_identical(other.net, run_sta(other.net, other_sizes),
                                run_arrivals(other.net, other_sizes, arrivals,
                                             none));
      expect_arrivals_identical(net, run_sta(net, x),
                                run_arrivals(net, x, arrivals, none));
    }
  }
}

TEST(ParallelSta, TilosWithArenaBitIdentical) {
  const LoweredCircuit lc = lower_gate_level(make_alu(8), Tech{});
  const double dmin = min_sized_delay(lc.net);
  const TilosResult seq = run_tilos(lc.net, 0.6 * dmin);
  for (int threads : {2, 4}) {
    ThreadArena arena(threads);
    const TilosResult par = run_tilos(lc.net, 0.6 * dmin, {}, &arena);
    EXPECT_EQ(seq.met_target, par.met_target);
    EXPECT_EQ(seq.bumps, par.bumps);
    EXPECT_EQ(seq.area, par.area);
    EXPECT_EQ(seq.achieved_delay, par.achieved_delay);
    ASSERT_EQ(seq.sizes.size(), par.sizes.size());
    for (std::size_t i = 0; i < seq.sizes.size(); ++i)
      EXPECT_EQ(seq.sizes[i], par.sizes[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// Parallel + warm-started W-phase
// ---------------------------------------------------------------------------

TEST(ParallelWphase, BitIdenticalToSequentialAcrossThreadCounts) {
  for (const NamedNet& t : identity_corpus()) {
    SCOPED_TRACE(t.name);
    const SizingNetwork& net = t.lc.net;
    // Budgets from a sized interior point so the sweeps do real work.
    std::vector<double> x = net.min_sizes();
    for (NodeId v = 0; v < net.num_vertices(); ++v)
      if (!net.is_source(v)) x[static_cast<std::size_t>(v)] *= 2.5;
    std::vector<double> budget(static_cast<std::size_t>(net.num_vertices()));
    for (NodeId v = 0; v < net.num_vertices(); ++v)
      budget[static_cast<std::size_t>(v)] = net.delay(v, x);

    const WPhaseResult seq = solve_wphase(net, budget);
    for (int threads : {2, 4}) {
      SCOPED_TRACE(threads);
      ThreadArena arena(threads);
      const WPhaseResult par = solve_wphase(net, budget, &arena);
      EXPECT_EQ(seq.feasible, par.feasible);
      EXPECT_EQ(seq.sweeps, par.sweeps);
      ASSERT_EQ(seq.sizes.size(), par.sizes.size());
      for (std::size_t i = 0; i < seq.sizes.size(); ++i)
        EXPECT_EQ(seq.sizes[i], par.sizes[i]) << i;

      // Warm-started, parallel: same fixpoint as warm sequential, bit for
      // bit (same sweep arithmetic, level order == reverse topo order).
      const WPhaseResult warm_seq = solve_wphase(net, budget, x);
      const WPhaseResult warm_par = solve_wphase(net, budget, x, &arena);
      EXPECT_EQ(warm_seq.sweeps, warm_par.sweeps);
      for (std::size_t i = 0; i < warm_seq.sizes.size(); ++i)
        EXPECT_EQ(warm_seq.sizes[i], warm_par.sizes[i]) << i;
    }
  }
}

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
