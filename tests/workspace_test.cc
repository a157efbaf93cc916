// Tests for the reusable solver workspaces: solver results must be
// identical with and without a workspace, the network simplex must match
// its reference implementation bit for bit through one reused workspace,
// repeated D-phase calls on one topology must not reconstruct the flow
// problem (the acceptance counter), and the incremental STA must agree
// bit-for-bit with the full recompute.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "gen/blocks.h"
#include "gen/iscas_analog.h"
#include "mcf/network_simplex.h"
#include "mcf/ssp.h"
#include "sizing/dphase.h"
#include "sizing/tilos.h"
#include "timing/lowering.h"
#include "util/rng.h"

namespace mft {
namespace {

McfProblem random_problem(std::uint64_t seed) {
  Rng rng(seed);
  const int n = rng.uniform_int(2, 30);
  McfProblem p(n);
  const int m = rng.uniform_int(n, 4 * n);
  for (int i = 0; i < m; ++i) {
    const NodeId t = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    NodeId h = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    if (h == t) h = (h + 1) % n;
    const Flow cap = rng.flip(0.3) ? kInfFlow : rng.uniform_int(0, 40);
    const Cost cost = rng.uniform_int(cap == kInfFlow ? 0 : -20, 60);
    p.add_arc(t, h, cap, cost);
  }
  // Feasible by construction: supplies are the imbalance of a random
  // sub-capacity flow.
  for (ArcId a = 0; a < p.num_arcs(); ++a) {
    const McfArc& arc = p.arc(a);
    if (arc.capacity == 0) continue;
    const Flow f = arc.capacity == kInfFlow
                       ? rng.uniform_int(0, 15)
                       : rng.uniform_int(0, static_cast<int>(arc.capacity));
    p.add_supply(arc.tail, f);
    p.add_supply(arc.head, -f);
  }
  return p;
}

TEST(McfWorkspace, ReusedWorkspaceMatchesFreshSolves) {
  McfWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const McfProblem p = random_problem(seed);
    const McfSolution fresh = solve_network_simplex(p);
    const McfSolution reused = solve_network_simplex(p, {}, &ws);
    ASSERT_EQ(fresh.status, reused.status) << "seed " << seed;
    if (fresh.status != McfStatus::kOptimal) continue;
    EXPECT_EQ(fresh.total_cost, reused.total_cost) << "seed " << seed;
    std::string why;
    EXPECT_TRUE(check_flow_optimal(p, reused, &why)) << "seed " << seed
                                                     << ": " << why;
    EXPECT_GT(ws.ns_pivots, 0) << "seed " << seed;
  }
}

TEST(McfWorkspace, SspWorkspaceMatchesFreshSolves) {
  McfWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const McfProblem p = random_problem(seed ^ 0xBEEF);
    const McfSolution fresh = solve_ssp(p);
    const McfSolution reused = solve_ssp(p, ws);
    ASSERT_EQ(fresh.status, reused.status) << "seed " << seed;
    if (fresh.status != McfStatus::kOptimal) continue;
    EXPECT_EQ(fresh.total_cost, reused.total_cost) << "seed " << seed;
    std::string why;
    EXPECT_TRUE(check_flow_optimal(p, reused, &why)) << "seed " << seed
                                                     << ": " << why;
  }
}

TEST(McfWorkspace, PivotStatsReported) {
  McfWorkspace ws;
  McfProblem p(2);
  p.add_arc(0, 1, 10, 3);
  p.set_supply(0, 7);
  p.set_supply(1, -7);
  ASSERT_EQ(solve_network_simplex(p, {}, &ws).status, McfStatus::kOptimal);
  EXPECT_GT(ws.ns_pivots, 0);
  ASSERT_EQ(solve_ssp(p, ws).status, McfStatus::kOptimal);
  EXPECT_EQ(ws.ssp_augmentations, 1);
}

// ---------------------------------------------------------------------------
// Reference network simplex: the solver as it stood before the flat-tree
// basis and packed pricing, copied verbatim except for renames, its own
// workspace type, default options, and the removal of the block-search rule
// no caller selected. Its basis is depth-indexed and re-rooted by a DFS over
// per-node tree-adjacency vectors; pricing reads separate tail, head and
// cost arrays. solve_network_simplex must reproduce it bit for bit: status,
// pivot count, flows, potentials and total cost.
// ---------------------------------------------------------------------------
struct ReferenceWorkspace {
  std::vector<NodeId> tail, head;
  std::vector<Flow> cap, flow;
  std::vector<Cost> cost;
  std::vector<int> state;
  std::vector<Cost> pi;
  std::vector<NodeId> parent;
  std::vector<ArcId> pred;
  std::vector<int> pred_dir;
  std::vector<int> depth;
  std::vector<std::vector<ArcId>> tree_adj;
  std::vector<ArcId> candidates;
  std::vector<NodeId> stack;
  std::vector<NodeId> path_first, path_second;
  std::int64_t ns_pivots = 0;
};

enum RefState : int { kStateUpper = -1, kStateTree = 0, kStateLower = 1 };
enum RefDir : int { kDirDown = 0, kDirUp = 1 };

class ReferenceSimplex {
 public:
  ReferenceSimplex(const McfProblem& p, ReferenceWorkspace& ws)
      : p_(p), ws_(ws), n_(p.num_nodes()), root_(p.num_nodes()) {
    const int m_user = p.num_arcs();
    m_ = m_user + n_;  // user arcs + one artificial arc per node

    ws_.tail.resize(static_cast<std::size_t>(m_));
    ws_.head.resize(static_cast<std::size_t>(m_));
    ws_.cap.resize(static_cast<std::size_t>(m_));
    ws_.cost.resize(static_cast<std::size_t>(m_));
    tail_p_ = ws_.tail.data();
    head_p_ = ws_.head.data();
    cap_p_ = ws_.cap.data();
    cost_p_ = ws_.cost.data();
    for (ArcId a = 0; a < m_user; ++a) {
      const McfArc& arc = p.arc(a);
      tail_p_[static_cast<std::size_t>(a)] = arc.tail;
      head_p_[static_cast<std::size_t>(a)] = arc.head;
      cap_p_[static_cast<std::size_t>(a)] = arc.capacity;
      cost_p_[static_cast<std::size_t>(a)] = arc.cost;
    }
    art_cost_ = (p.max_abs_cost() + 1) * static_cast<Cost>(n_ + 1);

    ws_.flow.assign(static_cast<std::size_t>(m_), 0);
    ws_.state.assign(static_cast<std::size_t>(m_), kStateLower);
    ws_.pi.assign(static_cast<std::size_t>(n_ + 1), 0);
    ws_.parent.assign(static_cast<std::size_t>(n_ + 1), kInvalidNode);
    ws_.pred.assign(static_cast<std::size_t>(n_ + 1), kInvalidArc);
    ws_.pred_dir.assign(static_cast<std::size_t>(n_ + 1), kDirDown);
    ws_.depth.assign(static_cast<std::size_t>(n_ + 1), 0);
    flow_p_ = ws_.flow.data();
    state_p_ = ws_.state.data();
    pi_p_ = ws_.pi.data();
    parent_p_ = ws_.parent.data();
    pred_p_ = ws_.pred.data();
    pred_dir_p_ = ws_.pred_dir.data();
    depth_p_ = ws_.depth.data();
    if (static_cast<int>(ws_.tree_adj.size()) < n_ + 1)
      ws_.tree_adj.resize(static_cast<std::size_t>(n_ + 1));
    for (int v = 0; v <= n_; ++v)
      ws_.tree_adj[static_cast<std::size_t>(v)].clear();
    ws_.candidates.clear();
    ws_.ns_pivots = 0;

    for (NodeId v = 0; v < n_; ++v) {
      const Flow s = p.supply(v);
      const ArcId a = static_cast<ArcId>(m_user + v);
      if (s >= 0) {
        tail_p_[static_cast<std::size_t>(a)] = v;
        head_p_[static_cast<std::size_t>(a)] = root_;
        flow_p_[static_cast<std::size_t>(a)] = s;
        pred_dir_p_[static_cast<std::size_t>(v)] = kDirUp;
        pi_p_[static_cast<std::size_t>(v)] = art_cost_;
      } else {
        tail_p_[static_cast<std::size_t>(a)] = root_;
        head_p_[static_cast<std::size_t>(a)] = v;
        flow_p_[static_cast<std::size_t>(a)] = -s;
        pred_dir_p_[static_cast<std::size_t>(v)] = kDirDown;
        pi_p_[static_cast<std::size_t>(v)] = -art_cost_;
      }
      cap_p_[static_cast<std::size_t>(a)] = kInfFlow;
      cost_p_[static_cast<std::size_t>(a)] = art_cost_;
      state_p_[static_cast<std::size_t>(a)] = kStateTree;
      parent_p_[static_cast<std::size_t>(v)] = root_;
      pred_p_[static_cast<std::size_t>(v)] = a;
      depth_p_[static_cast<std::size_t>(v)] = 1;
      ws_.tree_adj[static_cast<std::size_t>(v)].push_back(a);
      ws_.tree_adj[static_cast<std::size_t>(root_)].push_back(a);
    }

    list_size_ =
        std::max(30, static_cast<int>(1.25 * std::sqrt(static_cast<double>(m_))));
    minor_limit_ = std::max(3, list_size_ / 10);
    max_pivots_ = 50 * static_cast<std::int64_t>(m_) + 1000;
    next_arc_ = 0;
    minor_count_ = 0;
  }

  McfSolution run() {
    McfSolution sol;
    if (p_.total_supply() != 0) {
      sol.status = McfStatus::kInfeasible;
      return sol;
    }
    ArcId in_arc;
    while ((in_arc = candidate_list_pivot()) != kInvalidArc) {
      MFT_CHECK_MSG(++ws_.ns_pivots <= max_pivots_,
                    "network simplex exceeded pivot safety cap");
      if (!pivot(in_arc)) {
        sol.status = McfStatus::kUnbounded;
        return sol;
      }
    }
    for (ArcId a = p_.num_arcs(); a < m_; ++a) {
      if (flow_p_[static_cast<std::size_t>(a)] != 0) {
        sol.status = McfStatus::kInfeasible;
        return sol;
      }
    }
    sol.status = McfStatus::kOptimal;
    sol.flow.assign(ws_.flow.begin(), ws_.flow.begin() + p_.num_arcs());
    sol.potential.assign(ws_.pi.begin(), ws_.pi.begin() + n_);
    sol.total_cost = flow_cost(p_, sol.flow);
    return sol;
  }

 private:
  Cost reduced_cost(ArcId a) const {
    return cost_p_[static_cast<std::size_t>(a)] -
           pi_p_[static_cast<std::size_t>(
               tail_p_[static_cast<std::size_t>(a)])] +
           pi_p_[static_cast<std::size_t>(
               head_p_[static_cast<std::size_t>(a)])];
  }

  Cost violation(ArcId a) const {
    return -static_cast<Cost>(state_p_[static_cast<std::size_t>(a)]) *
           reduced_cost(a);
  }

  ArcId candidate_list_pivot() {
    auto& list = ws_.candidates;
    Cost best_violation = 0;
    ArcId best = kInvalidArc;
    if (minor_count_ < minor_limit_ && !list.empty()) {
      ++minor_count_;
      std::size_t keep = 0;
      for (std::size_t i = 0; i < list.size(); ++i) {
        const ArcId a = list[i];
        const Cost v = violation(a);
        if (v <= 0) continue;
        list[keep++] = a;
        if (v > best_violation) {
          best_violation = v;
          best = a;
        }
      }
      list.resize(keep);
      if (best != kInvalidArc) return best;
    }
    minor_count_ = 1;
    list.clear();
    for (int scanned = 0; scanned < m_; ++scanned) {
      const ArcId a = next_arc_;
      next_arc_ = (next_arc_ + 1 == m_) ? 0 : next_arc_ + 1;
      const Cost v = violation(a);
      if (v <= 0) continue;
      list.push_back(a);
      if (v > best_violation) {
        best_violation = v;
        best = a;
      }
      if (static_cast<int>(list.size()) == list_size_) break;
    }
    return best;
  }

  void collect_cycle(NodeId u, NodeId v) {
    auto& a = ws_.path_first;
    auto& b = ws_.path_second;
    a.clear();
    b.clear();
    while (depth_p_[static_cast<std::size_t>(u)] >
           depth_p_[static_cast<std::size_t>(v)]) {
      a.push_back(u);
      u = parent_p_[static_cast<std::size_t>(u)];
    }
    while (depth_p_[static_cast<std::size_t>(v)] >
           depth_p_[static_cast<std::size_t>(u)]) {
      b.push_back(v);
      v = parent_p_[static_cast<std::size_t>(v)];
    }
    while (u != v) {
      a.push_back(u);
      u = parent_p_[static_cast<std::size_t>(u)];
      b.push_back(v);
      v = parent_p_[static_cast<std::size_t>(v)];
    }
  }

  bool pivot(ArcId in_arc) {
    NodeId first, second;
    if (state_p_[static_cast<std::size_t>(in_arc)] == kStateLower) {
      first = tail_p_[static_cast<std::size_t>(in_arc)];
      second = head_p_[static_cast<std::size_t>(in_arc)];
    } else {
      first = head_p_[static_cast<std::size_t>(in_arc)];
      second = tail_p_[static_cast<std::size_t>(in_arc)];
    }
    collect_cycle(first, second);
    const auto& path_first = ws_.path_first;
    const auto& path_second = ws_.path_second;

    Flow delta = state_p_[static_cast<std::size_t>(in_arc)] == kStateLower
                     ? cap_p_[static_cast<std::size_t>(in_arc)] -
                           flow_p_[static_cast<std::size_t>(in_arc)]
                     : flow_p_[static_cast<std::size_t>(in_arc)];
    int result = 0;
    NodeId u_out = kInvalidNode;

    for (const NodeId u : path_first) {
      const ArcId e = pred_p_[static_cast<std::size_t>(u)];
      const Flow f = flow_p_[static_cast<std::size_t>(e)];
      const Flow residual =
          pred_dir_p_[static_cast<std::size_t>(u)] == kDirDown
              ? cap_p_[static_cast<std::size_t>(e)] - f
              : f;
      if (residual < delta) {
        delta = residual;
        u_out = u;
        result = 1;
      }
    }
    for (const NodeId u : path_second) {
      const ArcId e = pred_p_[static_cast<std::size_t>(u)];
      const Flow f = flow_p_[static_cast<std::size_t>(e)];
      const Flow residual =
          pred_dir_p_[static_cast<std::size_t>(u)] == kDirUp
              ? cap_p_[static_cast<std::size_t>(e)] - f
              : f;
      if (residual <= delta) {
        delta = residual;
        u_out = u;
        result = 2;
      }
    }

    if (delta >= kInfFlow / 2) return false;

    if (delta != 0) {
      const Flow signed_delta =
          state_p_[static_cast<std::size_t>(in_arc)] == kStateLower ? delta
                                                                     : -delta;
      flow_p_[static_cast<std::size_t>(in_arc)] += signed_delta;
      for (const NodeId u : path_first) {
        const ArcId e = pred_p_[static_cast<std::size_t>(u)];
        flow_p_[static_cast<std::size_t>(e)] +=
            pred_dir_p_[static_cast<std::size_t>(u)] == kDirDown ? delta
                                                                  : -delta;
      }
      for (const NodeId u : path_second) {
        const ArcId e = pred_p_[static_cast<std::size_t>(u)];
        flow_p_[static_cast<std::size_t>(e)] +=
            pred_dir_p_[static_cast<std::size_t>(u)] == kDirUp ? delta
                                                                : -delta;
      }
    }

    if (result == 0) {
      state_p_[static_cast<std::size_t>(in_arc)] =
          state_p_[static_cast<std::size_t>(in_arc)] == kStateLower
              ? kStateUpper
              : kStateLower;
      return true;
    }

    const ArcId out_arc = pred_p_[static_cast<std::size_t>(u_out)];
    const NodeId p_out = parent_p_[static_cast<std::size_t>(u_out)];
    detach_tree_arc(u_out, out_arc);
    detach_tree_arc(p_out, out_arc);
    state_p_[static_cast<std::size_t>(out_arc)] =
        flow_p_[static_cast<std::size_t>(out_arc)] == 0 ? kStateLower
                                                         : kStateUpper;

    const NodeId attach = result == 1 ? first : second;
    const NodeId outside =
        attach == tail_p_[static_cast<std::size_t>(in_arc)]
            ? head_p_[static_cast<std::size_t>(in_arc)]
            : tail_p_[static_cast<std::size_t>(in_arc)];
    ws_.tree_adj[static_cast<std::size_t>(attach)].push_back(in_arc);
    ws_.tree_adj[static_cast<std::size_t>(outside)].push_back(in_arc);
    state_p_[static_cast<std::size_t>(in_arc)] = kStateTree;

    reroot_subtree(attach, outside, in_arc);
    return true;
  }

  void detach_tree_arc(NodeId v, ArcId a) {
    auto& adj = ws_.tree_adj[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i < adj.size(); ++i) {
      if (adj[i] == a) {
        adj[i] = adj.back();
        adj.pop_back();
        return;
      }
    }
    MFT_CHECK_MSG(false, "tree arc not found in adjacency");
  }

  void reroot_subtree(NodeId q, NodeId q_parent, ArcId via) {
    const Cost new_pi_q =
        tail_p_[static_cast<std::size_t>(via)] == q_parent
            ? pi_p_[static_cast<std::size_t>(q_parent)] -
                  cost_p_[static_cast<std::size_t>(via)]
            : pi_p_[static_cast<std::size_t>(q_parent)] +
                  cost_p_[static_cast<std::size_t>(via)];
    const Cost dpi = new_pi_q - pi_p_[static_cast<std::size_t>(q)];

    auto& stack = ws_.stack;
    stack.clear();
    attach_node(q, q_parent, via);
    pi_p_[static_cast<std::size_t>(q)] += dpi;
    stack.push_back(q);
    while (!stack.empty()) {
      const NodeId w = stack.back();
      stack.pop_back();
      for (const ArcId a : ws_.tree_adj[static_cast<std::size_t>(w)]) {
        if (a == pred_p_[static_cast<std::size_t>(w)]) continue;
        const NodeId z = tail_p_[static_cast<std::size_t>(a)] == w
                             ? head_p_[static_cast<std::size_t>(a)]
                             : tail_p_[static_cast<std::size_t>(a)];
        attach_node(z, w, a);
        pi_p_[static_cast<std::size_t>(z)] += dpi;
        stack.push_back(z);
      }
    }
  }

  void attach_node(NodeId child, NodeId parent, ArcId a) {
    parent_p_[static_cast<std::size_t>(child)] = parent;
    pred_p_[static_cast<std::size_t>(child)] = a;
    pred_dir_p_[static_cast<std::size_t>(child)] =
        tail_p_[static_cast<std::size_t>(a)] == parent ? kDirDown : kDirUp;
    depth_p_[static_cast<std::size_t>(child)] =
        depth_p_[static_cast<std::size_t>(parent)] + 1;
  }

  const McfProblem& p_;
  ReferenceWorkspace& ws_;
  NodeId* tail_p_ = nullptr;
  NodeId* head_p_ = nullptr;
  Flow* cap_p_ = nullptr;
  Flow* flow_p_ = nullptr;
  Cost* cost_p_ = nullptr;
  int* state_p_ = nullptr;
  Cost* pi_p_ = nullptr;
  NodeId* parent_p_ = nullptr;
  ArcId* pred_p_ = nullptr;
  int* pred_dir_p_ = nullptr;
  int* depth_p_ = nullptr;
  const int n_;
  const NodeId root_;
  int m_ = 0;
  Cost art_cost_ = 0;
  int list_size_ = 0;
  int minor_limit_ = 0;
  int minor_count_ = 0;
  std::int64_t max_pivots_ = 0;
  ArcId next_arc_ = 0;
};

struct ReferenceRun {
  McfSolution sol;
  std::int64_t pivots = 0;
};

ReferenceRun reference_network_simplex(const McfProblem& p) {
  ReferenceRun run;
  if (p.num_nodes() == 0) {
    run.sol.status = McfStatus::kOptimal;
    return run;
  }
  ReferenceWorkspace ws;
  run.sol = ReferenceSimplex(p, ws).run();
  run.pivots = ws.ns_pivots;
  return run;
}

// random_problem(seed) plus one extra node, made infeasible (the new node
// demands flow no arc can bring) when seed % 4 == 1 and unbounded (an
// uncapacitated negative cycle through it) when seed % 4 == 2.
McfProblem random_problem_with_status(std::uint64_t seed) {
  const McfProblem base = random_problem(seed);
  const NodeId extra = base.num_nodes();
  McfProblem p(extra + 1);
  for (const McfArc& a : base.arcs())
    p.add_arc(a.tail, a.head, a.capacity, a.cost);
  for (NodeId v = 0; v < extra; ++v) p.set_supply(v, base.supply(v));
  if (seed % 4 == 1) {
    p.add_arc(extra, 0, kInfFlow, 5);
    p.add_supply(0, 3);
    p.add_supply(extra, -3);
  } else if (seed % 4 == 2) {
    p.add_arc(0, extra, kInfFlow, -7);
    p.add_arc(extra, 0, kInfFlow, 2);
  } else {
    p.add_arc(0, extra, 9, 4);
  }
  return p;
}

// A deep, chain-heavy instance shaped like a D-phase dual (the layered
// generator of bench_flow_solvers): `layers` ranks of `width` nodes, a
// spine between consecutive ranks, random skip arcs of which a fifth are
// capacitated and possibly negative, sources on rank 0, sinks on the last.
McfProblem layered_problem(std::uint64_t seed, int layers, int width) {
  Rng rng(seed);
  McfProblem p(layers * width);
  const auto node = [width](int layer, int i) { return layer * width + i; };
  for (int l = 0; l + 1 < layers; ++l) {
    for (int i = 0; i < width; ++i) {
      p.add_arc(node(l, i), node(l + 1, i), kInfFlow, rng.uniform_int(0, 1000));
      for (int e = 0; e < 2; ++e) {
        const int j = rng.uniform_int(0, width - 1);
        const int skip = std::min(layers - 1 - l, rng.uniform_int(1, 3));
        if (rng.flip(0.2))
          p.add_arc(node(l, i), node(l + skip, j), rng.uniform_int(1, 50),
                    rng.uniform_int(-200, 1000));
        else
          p.add_arc(node(l, i), node(l + skip, j), kInfFlow,
                    rng.uniform_int(0, 1000));
      }
    }
  }
  Flow total = 0;
  for (int i = 0; i < width; ++i) {
    const Flow s = rng.uniform_int(1, 20);
    p.add_supply(node(0, i), s);
    total += s;
  }
  for (int i = 0; i < width; ++i)
    p.add_supply(node(layers - 1, i),
                 -(i + 1 < width ? total / width
                                 : total - (width - 1) * (total / width)));
  return p;
}

// The flow problem a D-phase solve leaves in its workspace, for `nl` sized
// by TILOS at 0.7 Dmin.
McfProblem dphase_problem(const Netlist& nl) {
  const LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const TilosResult t = run_tilos(lc.net, 0.7 * min_sized_delay(lc.net));
  DPhaseWorkspace ws;
  run_dphase(lc.net, t.sizes, {}, &ws);
  return ws.flow.problem;
}

void expect_matches_reference(const McfProblem& p, McfWorkspace& ws,
                              const std::string& what) {
  SCOPED_TRACE(what);
  const ReferenceRun want = reference_network_simplex(p);
  const McfSolution got = solve_network_simplex(p, {}, &ws);
  ASSERT_EQ(got.status, want.sol.status);
  EXPECT_EQ(ws.ns_pivots, want.pivots);
  EXPECT_EQ(got.total_cost, want.sol.total_cost);
  EXPECT_EQ(got.flow, want.sol.flow);
  EXPECT_EQ(got.potential, want.sol.potential);
}

// Every instance goes through one workspace, alternating small and large
// node counts, so an array left stale by a larger earlier solve would show.
TEST(NetworkSimplexReference, BitIdenticalToReferenceSolver) {
  RandomLogicParams prm;
  prm.num_inputs = 32;
  prm.num_gates = 1000;
  prm.seed = 1;
  const std::vector<std::pair<std::string, McfProblem>> large = {
      {"c880", dphase_problem(make_iscas_analog("c880"))},
      {"layered", layered_problem(42, 100, 20)},
      {"c1908", dphase_problem(make_iscas_analog("c1908"))},
      {"rnd1000", dphase_problem(make_random_logic(prm))},
  };
  McfWorkspace ws;
  int statuses[3] = {0, 0, 0};
  std::int64_t pivots = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    if (seed % 50 == 1) {
      const auto& [name, p] = large[seed / 50];
      ASSERT_GT(p.num_nodes(), 500) << name;
      expect_matches_reference(p, ws, name);
      pivots += ws.ns_pivots;
    }
    const McfProblem p = random_problem(seed);
    expect_matches_reference(p, ws, "random " + std::to_string(seed));
    const McfProblem q = random_problem_with_status(seed);
    expect_matches_reference(q, ws, "status " + std::to_string(seed));
    ++statuses[static_cast<int>(solve_network_simplex(q).status)];
  }
  // The instances exercise every outcome and real pivoting.
  EXPECT_GT(statuses[static_cast<int>(McfStatus::kOptimal)], 0);
  EXPECT_GT(statuses[static_cast<int>(McfStatus::kInfeasible)], 0);
  EXPECT_GT(statuses[static_cast<int>(McfStatus::kUnbounded)], 0);
  EXPECT_GT(pivots, 4000);
}

class DPhaseWorkspaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomLogicParams prm;
    prm.num_inputs = 10;
    prm.num_gates = 120;
    prm.seed = 7;
    lc_ = lower_gate_level(make_random_logic(prm), Tech{});
    const double dmin = min_sized_delay(lc_.net);
    tilos_ = run_tilos(lc_.net, 0.75 * dmin);
    ASSERT_TRUE(tilos_.met_target);
  }
  LoweredCircuit lc_{Tech{}};
  TilosResult tilos_;
};

TEST_F(DPhaseWorkspaceTest, RepeatedCallsBuildTheProblemOnce) {
  DPhaseWorkspace ws;
  Rng rng(99);
  std::vector<double> sizes = tilos_.sizes;
  for (int iter = 0; iter < 8; ++iter) {
    const DPhaseResult with_ws = run_dphase(lc_.net, sizes, {}, &ws);
    const DPhaseResult fresh = run_dphase(lc_.net, sizes);
    ASSERT_TRUE(with_ws.solved);
    ASSERT_TRUE(fresh.solved);
    EXPECT_EQ(with_ws.num_constraints, fresh.num_constraints);
    EXPECT_NEAR(with_ws.objective, fresh.objective, 1e-9);
    ASSERT_EQ(with_ws.budget.size(), fresh.budget.size());
    for (std::size_t v = 0; v < fresh.budget.size(); ++v)
      EXPECT_NEAR(with_ws.budget[v], fresh.budget[v], 1e-12) << "vertex " << v;
    // Perturb some sizes so the next iteration solves a different LP on
    // the same structure.
    for (int k = 0; k < 10; ++k) {
      const NodeId v = static_cast<NodeId>(
          rng.index(static_cast<std::size_t>(lc_.net.num_vertices())));
      if (!lc_.net.is_source(v))
        sizes[static_cast<std::size_t>(v)] *= rng.uniform(1.0, 1.2);
    }
  }
  // The acceptance counter: one construction, then pure reuse.
  EXPECT_EQ(ws.problem_builds(), 1);
  EXPECT_EQ(ws.timing.full_runs, 1);
  EXPECT_EQ(ws.timing.incremental_runs, 7);
}

TEST_F(DPhaseWorkspaceTest, TopologyChangeTriggersRebuild) {
  DPhaseWorkspace ws;
  ASSERT_TRUE(run_dphase(lc_.net, tilos_.sizes, {}, &ws).solved);
  EXPECT_EQ(ws.problem_builds(), 1);

  RandomLogicParams prm;
  prm.num_inputs = 8;
  prm.num_gates = 60;
  prm.seed = 8;
  LoweredCircuit other = lower_gate_level(make_random_logic(prm), Tech{});
  const TilosResult t2 = run_tilos(other.net, 0.8 * min_sized_delay(other.net));
  ASSERT_TRUE(t2.met_target);
  ASSERT_TRUE(run_dphase(other.net, t2.sizes, {}, &ws).solved);
  EXPECT_EQ(ws.problem_builds(), 1);  // reset + one rebuild for the new net
}

TEST(IncrementalSta, MatchesFullRecomputeUnderRandomUpdates) {
  RandomLogicParams prm;
  prm.num_inputs = 12;
  prm.num_gates = 150;
  prm.seed = 21;
  LoweredCircuit lc = lower_gate_level(make_random_logic(prm), Tech{});
  Rng rng(5);
  std::vector<double> sizes = lc.net.min_sizes();

  TimingScratch scratch;
  for (int iter = 0; iter < 20; ++iter) {
    const TimingReport& inc = run_sta(lc.net, sizes, scratch);
    const TimingReport full = run_sta(lc.net, sizes);
    ASSERT_EQ(inc.cp_vertex, full.cp_vertex) << "iter " << iter;
    EXPECT_EQ(inc.critical_path, full.critical_path) << "iter " << iter;
    for (NodeId v = 0; v < lc.net.num_vertices(); ++v) {
      const std::size_t i = static_cast<std::size_t>(v);
      EXPECT_EQ(inc.delay[i], full.delay[i]) << "iter " << iter << " v " << v;
      EXPECT_EQ(inc.at[i], full.at[i]) << "iter " << iter << " v " << v;
      EXPECT_EQ(inc.rt[i], full.rt[i]) << "iter " << iter << " v " << v;
    }
    EXPECT_EQ(inc.critical_vertices(lc.net), full.critical_vertices(lc.net));
    // Random sparse update for the next round (sometimes none at all).
    const int moves = rng.uniform_int(0, 6);
    for (int k = 0; k < moves; ++k) {
      const NodeId v = static_cast<NodeId>(
          rng.index(static_cast<std::size_t>(lc.net.num_vertices())));
      if (!lc.net.is_source(v))
        sizes[static_cast<std::size_t>(v)] *= rng.uniform(1.0, 1.5);
    }
  }
  EXPECT_EQ(scratch.full_runs, 1);
  EXPECT_EQ(scratch.incremental_runs, 19);
  // The dirty-set path must actually be sparse: far fewer delay recomputes
  // than 20 full sweeps would need.
  EXPECT_LT(scratch.delays_recomputed,
            20 * static_cast<std::int64_t>(lc.net.num_vertices()));
}

TEST(IncrementalSta, ScratchReusedAcrossNetworksFallsBackToFullRecompute) {
  // Two different networks (regardless of matching vertex counts) must not
  // mix delays: the scratch keys on SizingNetwork::serial().
  RandomLogicParams prm;
  prm.num_inputs = 10;
  prm.num_gates = 80;
  prm.seed = 41;
  LoweredCircuit a = lower_gate_level(make_random_logic(prm), Tech{});
  prm.seed = 42;
  LoweredCircuit b = lower_gate_level(make_random_logic(prm), Tech{});

  TimingScratch scratch;
  run_sta(a.net, a.net.min_sizes(), scratch);
  const TimingReport& inc = run_sta(b.net, b.net.min_sizes(), scratch);
  const TimingReport full = run_sta(b.net, b.net.min_sizes());
  EXPECT_EQ(scratch.full_runs, 2);
  EXPECT_EQ(scratch.incremental_runs, 0);
  ASSERT_EQ(inc.delay.size(), full.delay.size());
  for (std::size_t v = 0; v < full.delay.size(); ++v)
    EXPECT_EQ(inc.delay[v], full.delay[v]) << "vertex " << v;
  EXPECT_EQ(inc.critical_path, full.critical_path);
}

TEST(IncrementalSta, CriticalPathWalkIsDeterministicAndExact) {
  RandomLogicParams prm;
  prm.num_inputs = 9;
  prm.num_gates = 90;
  prm.seed = 31;
  LoweredCircuit lc = lower_gate_level(make_random_logic(prm), Tech{});
  const TimingReport t = run_sta(lc.net, lc.net.min_sizes());
  ASSERT_NE(t.cp_vertex, kInvalidNode);
  const std::vector<NodeId> path = t.critical_vertices(lc.net);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back(), t.cp_vertex);
  double sum = 0.0;
  for (NodeId v : path) sum += t.delay[static_cast<std::size_t>(v)];
  EXPECT_NEAR(sum, t.critical_path, 1e-12);
  // Walking twice gives the identical path.
  EXPECT_EQ(path, t.critical_vertices(lc.net));
}

}  // namespace
}  // namespace mft
