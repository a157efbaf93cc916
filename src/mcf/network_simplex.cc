#include "mcf/network_simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "util/fault.h"
#include "util/status.h"

namespace mft {
namespace {

// Arc states. kLower/kUpper encode the sign used in the violation test
// state * reduced_cost < 0.
enum State : int { kStateUpper = -1, kStateTree = 0, kStateLower = 1 };

// Direction of a node's predecessor (tree) arc.
enum Dir : int {
  kDirDown = 0,  // arc points parent -> node
  kDirUp = 1,    // arc points node -> parent
};

// Cost of the big-M artificial arcs, A = (C + 1)(n + 1) with C the largest
// |cost|: more than any simple path costs, so artificial flow is driven out
// whenever the instance is feasible.
//
// Bound. A node's dual is the signed sum of the costs on its tree path from
// the root. That path has exactly one artificial arc (the root touches
// nothing else) and at most n - 1 user arcs, so |pi| <= A + (n - 1)C < 2A.
// A reduced cost c - pi(tail) + pi(head), each of its partial sums, and the
// dual shift of a pivot (a new dual minus an old one) then stay below
// C + 4A < 5A in magnitude. A <= INT64_MAX / 5 therefore keeps every dual
// and reduced cost inside int64; larger inputs are refused.
Cost big_m_cost(Cost max_abs_cost, int num_nodes) {
  Cost big_m = 0;
  if (__builtin_add_overflow(max_abs_cost, Cost{1}, &big_m) ||
      __builtin_mul_overflow(big_m, static_cast<Cost>(num_nodes) + 1,
                             &big_m) ||
      big_m > std::numeric_limits<Cost>::max() / 5)
    throw EngineError(EngineStatus::kInvalidInput,
                      "min-cost flow costs too large: max |cost| " +
                          std::to_string(max_abs_cost) + " on " +
                          std::to_string(num_nodes) +
                          " nodes would overflow int64 duals");
  return big_m;
}

// The solver proper. All state lives in the McfWorkspace so a caller that
// keeps one across solves never reallocates; the class only binds
// pointers and runs the algorithm.
class Simplex {
 public:
  Simplex(const McfProblem& p, const NetworkSimplexOptions& opt,
          McfWorkspace& ws)
      : p_(p),
        ws_(ws),
        n_(p.num_nodes()),
        root_(p.num_nodes()),
        art_cost_(big_m_cost(p.max_abs_cost(), p.num_nodes())) {
    const int m_user = p.num_arcs();
    m_ = m_user + n_;  // user arcs + one artificial arc per node
    const std::size_t m = static_cast<std::size_t>(m_);
    const std::size_t nodes = static_cast<std::size_t>(n_ + 1);

    ws_.arc.resize(m);
    ws_.cap.resize(m);
    ws_.flow.assign(m, 0);
    ws_.state.assign(m, kStateLower);
    ws_.pi.resize(nodes);
    ws_.parent.resize(nodes);
    ws_.pred.resize(nodes);
    ws_.pred_dir.resize(nodes);
    ws_.depth.resize(nodes);
    ws_.first_child.resize(nodes);
    ws_.next_sibling.resize(nodes);
    ws_.prev_sibling.resize(nodes);
    // Raw-pointer views of the workspace arrays: no vector sizes change
    // after this point, and the pointers let the optimizer keep hot-loop
    // loads in registers instead of re-reading through the vector headers.
    // Every entry a solve reads is written below, so nothing a previous
    // solve left behind survives.
    arc_p_ = ws_.arc.data();
    cap_p_ = ws_.cap.data();
    flow_p_ = ws_.flow.data();
    state_p_ = ws_.state.data();
    pi_p_ = ws_.pi.data();
    parent_p_ = ws_.parent.data();
    pred_p_ = ws_.pred.data();
    pred_dir_p_ = ws_.pred_dir.data();
    depth_p_ = ws_.depth.data();
    first_child_p_ = ws_.first_child.data();
    next_sibling_p_ = ws_.next_sibling.data();
    prev_sibling_p_ = ws_.prev_sibling.data();
    ws_.ns_pivots = 0;

    for (ArcId a = 0; a < m_user; ++a) {
      const McfArc& arc = p.arc(a);
      arc_p_[a] = {arc.tail, arc.head, arc.cost};
      cap_p_[a] = arc.capacity;
    }

    // Initial basis: a star of artificial arcs around the virtual root,
    // oriented so each carries |supply(v)| of nonnegative flow; the root's
    // child list is 0, 1, ..., n-1.
    for (NodeId v = 0; v < n_; ++v) {
      const Flow s = p.supply(v);
      const ArcId a = static_cast<ArcId>(m_user + v);
      if (s >= 0) {
        arc_p_[a] = {v, root_, art_cost_};
        flow_p_[a] = s;
        pred_dir_p_[v] = kDirUp;
        pi_p_[v] = art_cost_;
      } else {
        arc_p_[a] = {root_, v, art_cost_};
        flow_p_[a] = -s;
        pred_dir_p_[v] = kDirDown;
        pi_p_[v] = -art_cost_;
      }
      cap_p_[a] = kInfFlow;
      state_p_[a] = kStateTree;
      parent_p_[v] = root_;
      pred_p_[v] = a;
      depth_p_[v] = 1;
      first_child_p_[v] = kInvalidNode;
      next_sibling_p_[v] = v + 1 < n_ ? v + 1 : kInvalidNode;
      prev_sibling_p_[v] = v > 0 ? v - 1 : kInvalidNode;
    }
    pi_p_[root_] = 0;
    parent_p_[root_] = kInvalidNode;
    pred_p_[root_] = kInvalidArc;
    pred_dir_p_[root_] = kDirDown;
    depth_p_[root_] = 0;
    first_child_p_[root_] = 0;
    next_sibling_p_[root_] = kInvalidNode;
    prev_sibling_p_[root_] = kInvalidNode;

    list_size_ =
        opt.candidate_list_size > 0
            ? opt.candidate_list_size
            : std::max(30, static_cast<int>(
                               1.25 * std::sqrt(static_cast<double>(m_))));
    minor_limit_ = opt.minor_limit > 0 ? opt.minor_limit
                                       : std::max(3, list_size_ / 10);
    max_pivots_ = opt.max_pivots > 0
                      ? opt.max_pivots
                      : 50 * static_cast<std::int64_t>(m_) + 1000;
    ws_.candidates.resize(static_cast<std::size_t>(list_size_));
    candidates_p_ = ws_.candidates.data();
  }

  McfSolution run() {
    McfSolution sol;
    if (p_.total_supply() != 0) {
      sol.status = McfStatus::kInfeasible;
      return sol;
    }
    ArcId in_arc;
    while ((in_arc = find_entering_arc()) != kInvalidArc) {
      MFT_CHECK_MSG(++ws_.ns_pivots <= max_pivots_,
                    "network simplex exceeded pivot safety cap");
      if (!pivot(in_arc)) {
        sol.status = McfStatus::kUnbounded;
        return sol;
      }
    }
    // Any residual artificial flow means the supplies cannot be routed.
    for (ArcId a = p_.num_arcs(); a < m_; ++a) {
      if (flow_p_[a] != 0) {
        sol.status = McfStatus::kInfeasible;
        return sol;
      }
    }
    sol.status = McfStatus::kOptimal;
    sol.flow.assign(flow_p_, flow_p_ + p_.num_arcs());
    sol.potential.assign(pi_p_, pi_p_ + n_);
    sol.total_cost = flow_cost(p_, sol.flow);
    return sol;
  }

 private:
  // state * reduced_cost < 0 means the arc profitably enters the basis;
  // the reduced cost follows the dual contract of mcf.h.
  Cost violation(ArcId a) const {
    const McfWorkspace::Arc& r = arc_p_[a];
    return -static_cast<Cost>(state_p_[a]) *
           (r.cost - pi_p_[r.tail] + pi_p_[r.head]);
  }

  // Candidate-list pricing: serve pivots from a shortlist of violating
  // arcs, dropping entries whose violation was cured by earlier pivots;
  // rebuild the shortlist with a full cyclic scan when it runs dry or
  // after `minor_limit_` minor pivots.
  ArcId find_entering_arc() {
    ArcId* const list = candidates_p_;
    Cost best_violation = 0;
    ArcId best = kInvalidArc;
    if (minor_count_ < minor_limit_ && num_candidates_ > 0) {
      ++minor_count_;
      int keep = 0;
      for (int i = 0; i < num_candidates_; ++i) {
        const ArcId a = list[i];
        const Cost v = violation(a);
        if (v <= 0) continue;  // cured; drop from the shortlist
        list[keep++] = a;
        if (v > best_violation) {
          best_violation = v;
          best = a;
        }
      }
      num_candidates_ = keep;
      if (best != kInvalidArc) return best;
    }
    // Major iteration: rebuild the shortlist from a full cyclic scan that
    // starts at next_arc_, run as the two linear ranges [next_arc_, m) and
    // [0, next_arc_). Each arc is written to the slot past the list's end
    // and kept only if it violates; the scan stops once the list is full,
    // and the next one resumes after the last arc read.
    minor_count_ = 1;
    int count = 0;
    const auto scan = [&](ArcId begin, ArcId end) {
      for (ArcId a = begin; a < end; ++a) {
        const Cost v = violation(a);
        list[count] = a;
        count += v > 0;
        if (v > best_violation) {
          best_violation = v;
          best = a;
        }
        if (count == list_size_) {
          next_arc_ = a + 1 == m_ ? 0 : a + 1;
          return true;
        }
      }
      return false;
    };
    const ArcId start = next_arc_;
    if (!scan(start, m_)) scan(0, start);
    num_candidates_ = count;
    return best;
  }

  // Two-pointer walk to the lowest common ancestor of u and v in the basis
  // tree: equalize depths, then climb in lockstep. No marking, no full
  // path-to-root traversal. Records the nodes strictly below the join on
  // each side (in walk order) so the leaving-arc search and the flow update
  // replay linear arrays instead of chasing parent pointers again.
  void collect_cycle(NodeId u, NodeId v) {
    auto& a = ws_.path_first;
    auto& b = ws_.path_second;
    a.clear();
    b.clear();
    while (depth_p_[u] > depth_p_[v]) {
      a.push_back(u);
      u = parent_p_[u];
    }
    while (depth_p_[v] > depth_p_[u]) {
      b.push_back(v);
      v = parent_p_[v];
    }
    while (u != v) {
      a.push_back(u);
      u = parent_p_[u];
      b.push_back(v);
      v = parent_p_[v];
    }
  }

  // Executes one pivot on `in_arc`. Returns false if the cycle is
  // cost-reducing and uncapacitated (unbounded problem).
  bool pivot(ArcId in_arc) {
    // Cycle orientation: `delta` units travel join -> first -> (in_arc
    // residual) -> second -> join.
    const McfWorkspace::Arc in = arc_p_[in_arc];
    const bool in_lower = state_p_[in_arc] == kStateLower;
    const NodeId first = in_lower ? in.tail : in.head;
    const NodeId second = in_lower ? in.head : in.tail;
    collect_cycle(first, second);
    const auto& path_first = ws_.path_first;
    const auto& path_second = ws_.path_second;

    // Residual of the entering arc itself.
    Flow delta = in_lower ? cap_p_[in_arc] - flow_p_[in_arc] : flow_p_[in_arc];
    int result = 0;  // 0: in_arc leaves; 1/2: a tree arc on either path
    NodeId u_out = kInvalidNode;

    // First-side path: cycle direction is parent -> child (toward `first`).
    for (const NodeId u : path_first) {
      const ArcId e = pred_p_[u];
      const Flow f = flow_p_[e];
      const Flow residual = pred_dir_p_[u] == kDirDown ? cap_p_[e] - f : f;
      if (residual < delta) {
        delta = residual;
        u_out = u;
        result = 1;
      }
    }
    // Second-side path: cycle direction is child -> parent. The recorded
    // path is in decreasing-depth order, so `<=` implements the strongly-
    // feasible tie-break: among equal residuals the lowest-depth arc (the
    // one closest to the join) leaves.
    for (const NodeId u : path_second) {
      const ArcId e = pred_p_[u];
      const Flow f = flow_p_[e];
      const Flow residual = pred_dir_p_[u] == kDirUp ? cap_p_[e] - f : f;
      if (residual <= delta) {
        delta = residual;
        u_out = u;
        result = 2;
      }
    }

    // Any genuine blocking residual is bounded by real capacities or total
    // supply; half of kInfFlow can only be reached via uncapacitated arcs,
    // i.e. a negative cycle with unbounded improving direction.
    if (delta >= kInfFlow / 2) return false;

    // Apply the flow change around the cycle.
    if (delta != 0) {
      flow_p_[in_arc] += in_lower ? delta : -delta;
      for (const NodeId u : path_first)
        flow_p_[pred_p_[u]] += pred_dir_p_[u] == kDirDown ? delta : -delta;
      for (const NodeId u : path_second)
        flow_p_[pred_p_[u]] += pred_dir_p_[u] == kDirUp ? delta : -delta;
    }

    if (result == 0) {
      // The entering arc saturates without displacing a tree arc.
      state_p_[in_arc] = in_lower ? kStateUpper : kStateLower;
      return true;
    }

    // Swap the basis: `out_arc` (pred of u_out) leaves, in_arc enters.
    const ArcId out_arc = pred_p_[u_out];
    state_p_[out_arc] = flow_p_[out_arc] == 0 ? kStateLower : kStateUpper;
    state_p_[in_arc] = kStateTree;
    const NodeId attach = result == 1 ? first : second;  // endpoint inside
    const NodeId outside = attach == in.tail ? in.head : in.tail;
    reroot_subtree(attach, outside, in_arc, u_out);
    return true;
  }

  // Moves the subtree rooted at `u_out` (whose tree arc just left) so that
  // it hangs from `outside` by tree arc `via`, re-rooted at its node `q`.
  // Only the stem q -> ... -> u_out changes parents: each stem node moves
  // under the one before it (q under `outside`) and takes over the tree arc
  // between them. Every other node keeps parent, pred and pred_dir. The
  // arcs inside the subtree are unchanged, so every subtree dual shifts by
  // one constant; a stackless preorder walk applies it and fixes depths.
  void reroot_subtree(NodeId q, NodeId outside, ArcId via, NodeId u_out) {
    const McfWorkspace::Arc& in = arc_p_[via];
    const Cost new_pi_q =
        in.tail == outside ? pi_p_[outside] - in.cost : pi_p_[outside] + in.cost;
    const Cost dpi = new_pi_q - pi_p_[q];

    NodeId u = q;
    NodeId new_parent = outside;
    ArcId new_pred = via;
    for (;;) {
      const NodeId old_parent = parent_p_[u];
      const ArcId old_pred = pred_p_[u];
      unlink_child(u, old_parent);
      link_child(u, new_parent);
      parent_p_[u] = new_parent;
      pred_p_[u] = new_pred;
      pred_dir_p_[u] = arc_p_[new_pred].tail == new_parent ? kDirDown : kDirUp;
      if (u == u_out) break;
      new_parent = u;
      new_pred = old_pred;
      u = old_parent;
    }

    NodeId v = q;
    pi_p_[v] += dpi;
    depth_p_[v] = depth_p_[outside] + 1;
    for (;;) {
      NodeId next = first_child_p_[v];
      if (next == kInvalidNode) {
        while (v != q && next_sibling_p_[v] == kInvalidNode) v = parent_p_[v];
        if (v == q) return;
        next = next_sibling_p_[v];
      }
      v = next;
      pi_p_[v] += dpi;
      depth_p_[v] = depth_p_[parent_p_[v]] + 1;
    }
  }

  void unlink_child(NodeId v, NodeId parent) {
    const NodeId prev = prev_sibling_p_[v];
    const NodeId next = next_sibling_p_[v];
    if (prev != kInvalidNode)
      next_sibling_p_[prev] = next;
    else
      first_child_p_[parent] = next;
    if (next != kInvalidNode) prev_sibling_p_[next] = prev;
  }

  void link_child(NodeId v, NodeId parent) {
    const NodeId head = first_child_p_[parent];
    next_sibling_p_[v] = head;
    prev_sibling_p_[v] = kInvalidNode;
    if (head != kInvalidNode) prev_sibling_p_[head] = v;
    first_child_p_[parent] = v;
  }

  const McfProblem& p_;
  McfWorkspace& ws_;
  McfWorkspace::Arc* arc_p_ = nullptr;
  Flow* cap_p_ = nullptr;
  Flow* flow_p_ = nullptr;
  int* state_p_ = nullptr;
  Cost* pi_p_ = nullptr;
  NodeId* parent_p_ = nullptr;
  ArcId* pred_p_ = nullptr;
  int* pred_dir_p_ = nullptr;
  int* depth_p_ = nullptr;
  NodeId* first_child_p_ = nullptr;
  NodeId* next_sibling_p_ = nullptr;
  NodeId* prev_sibling_p_ = nullptr;
  ArcId* candidates_p_ = nullptr;
  const int n_;
  const NodeId root_;
  const Cost art_cost_;
  int m_ = 0;
  int list_size_ = 0;
  int num_candidates_ = 0;
  int minor_limit_ = 0;
  int minor_count_ = 0;
  std::int64_t max_pivots_ = 0;
  ArcId next_arc_ = 0;
};

}  // namespace

McfSolution solve_network_simplex(const McfProblem& p,
                                  const NetworkSimplexOptions& opt,
                                  McfWorkspace* ws) {
  MFT_FAULT_POINT("flow.solve");
  if (p.num_nodes() == 0) {
    if (ws) ws->ns_pivots = 0;
    McfSolution sol;
    sol.status = McfStatus::kOptimal;
    return sol;
  }
  McfWorkspace local;
  McfWorkspace& w = ws ? *ws : local;
  McfSolution sol = Simplex(p, opt, w).run();
  w.ns_pivots_total += w.ns_pivots;
  return sol;
}

}  // namespace mft
