#include "mcf/ssp.h"

#include <algorithm>
#include <queue>
#include <vector>

namespace mft {
namespace {

constexpr Cost kInfCost = std::numeric_limits<Cost>::max() / 4;

// Residual network with paired arcs: arc 2i is the forward image of user
// arc i, arc 2i+1 its reverse. cap[] holds *residual* capacity. The arrays
// are borrowed from an McfWorkspace so repeated solves reuse allocations.
struct Residual {
  std::vector<NodeId>& to;
  std::vector<Flow>& cap;
  std::vector<Cost>& cost;
  std::vector<std::vector<int>>& adj;

  Residual(const McfProblem& p, McfWorkspace& ws)
      : to(ws.res_to), cap(ws.res_cap), cost(ws.res_cost), adj(ws.res_adj) {
    const std::size_t n = static_cast<std::size_t>(p.num_nodes());
    to.clear();
    cap.clear();
    cost.clear();
    if (adj.size() < n) adj.resize(n);
    for (std::size_t v = 0; v < n; ++v) adj[v].clear();
    to.reserve(2 * p.arcs().size());
    for (const McfArc& a : p.arcs()) {
      adj[static_cast<std::size_t>(a.tail)].push_back(static_cast<int>(to.size()));
      to.push_back(a.head);
      cap.push_back(a.capacity);
      cost.push_back(a.cost);
      adj[static_cast<std::size_t>(a.head)].push_back(static_cast<int>(to.size()));
      to.push_back(a.tail);
      cap.push_back(0);
      cost.push_back(-a.cost);
    }
  }

  NodeId tail(int e) const { return to[static_cast<std::size_t>(e ^ 1)]; }

  void push(int e, Flow f) {
    cap[static_cast<std::size_t>(e)] -= f;
    cap[static_cast<std::size_t>(e ^ 1)] += f;
  }
};

// Bellman–Ford over residual arcs with positive capacity, from a virtual
// source at distance 0 to every node. Returns true and a cycle (arc ids) if
// a negative cycle is reachable; otherwise fills dist[].
bool bellman_ford(const Residual& r, int n, std::vector<Cost>& dist,
                  std::vector<int>* cycle_arcs, McfWorkspace& ws) {
  dist.assign(static_cast<std::size_t>(n), 0);
  if (n == 0) return false;
  auto& pred_arc = ws.pred_arc;
  pred_arc.assign(static_cast<std::size_t>(n), -1);
  NodeId updated = kInvalidNode;
  for (int round = 0; round < n; ++round) {
    updated = kInvalidNode;
    for (int e = 0; e < static_cast<int>(r.to.size()); ++e) {
      if (r.cap[static_cast<std::size_t>(e)] <= 0) continue;
      const NodeId u = r.tail(e);
      const NodeId v = r.to[static_cast<std::size_t>(e)];
      const Cost nd = dist[static_cast<std::size_t>(u)] +
                      r.cost[static_cast<std::size_t>(e)];
      if (nd < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = nd;
        pred_arc[static_cast<std::size_t>(v)] = e;
        updated = v;
      }
    }
    if (updated == kInvalidNode) return false;
  }
  if (cycle_arcs == nullptr) return true;
  // Walk predecessors n steps to land inside the cycle, then unwind it.
  NodeId w = updated;
  for (int i = 0; i < n; ++i)
    w = r.tail(pred_arc[static_cast<std::size_t>(w)]);
  cycle_arcs->clear();
  NodeId x = w;
  do {
    const int e = pred_arc[static_cast<std::size_t>(x)];
    cycle_arcs->push_back(e);
    x = r.tail(e);
  } while (x != w);
  return true;
}

// Cancels all Bellman–Ford-detectable negative cycles. Returns false if an
// uncapacitated negative cycle makes the problem unbounded.
bool cancel_negative_cycles(Residual& r, int n, McfWorkspace& ws) {
  std::vector<Cost> dist;
  std::vector<int> cycle;
  while (bellman_ford(r, n, dist, &cycle, ws)) {
    Flow delta = kInfFlow;
    for (int e : cycle)
      delta = std::min(delta, r.cap[static_cast<std::size_t>(e)]);
    if (delta >= kInfFlow / 2) return false;
    for (int e : cycle) r.push(e, delta);
  }
  return true;
}

McfSolution extract(const McfProblem& p, const Residual& r,
                    const std::vector<Cost>& neg_potential) {
  McfSolution sol;
  sol.status = McfStatus::kOptimal;
  sol.flow.resize(static_cast<std::size_t>(p.num_arcs()));
  for (ArcId a = 0; a < p.num_arcs(); ++a)
    sol.flow[static_cast<std::size_t>(a)] =
        p.arc(a).capacity - r.cap[static_cast<std::size_t>(2 * a)];
  // Johnson distances d satisfy d(u) + c <= ... for residual arcs; the mcf.h
  // contract wants potential = -d.
  sol.potential.resize(static_cast<std::size_t>(p.num_nodes()));
  for (NodeId v = 0; v < p.num_nodes(); ++v)
    sol.potential[static_cast<std::size_t>(v)] =
        -neg_potential[static_cast<std::size_t>(v)];
  sol.total_cost = flow_cost(p, sol.flow);
  return sol;
}

McfSolution run_ssp(const McfProblem& p, McfWorkspace& ws) {
  big_m_cost(p);  // the cost bound every solver shares (mcf.h)
  McfSolution fail;
  ws.ssp_augmentations = 0;
  if (p.total_supply() != 0) {
    fail.status = McfStatus::kInfeasible;
    return fail;
  }
  const int n = p.num_nodes();
  Residual r(p, ws);

  if (!cancel_negative_cycles(r, n, ws)) {
    fail.status = McfStatus::kUnbounded;
    return fail;
  }
  auto& pi = ws.johnson_pi;  // Johnson potentials (distance-like)
  bellman_ford(r, n, pi, nullptr, ws);

  auto& excess = ws.excess;
  excess.assign(p.supplies().begin(), p.supplies().end());
  auto& dist = ws.dist;
  auto& pred = ws.pred_arc;
  auto& settled = ws.settled;
  dist.resize(static_cast<std::size_t>(n));
  pred.resize(static_cast<std::size_t>(n));
  settled.resize(static_cast<std::size_t>(n));

  for (NodeId s = 0; s < n; ++s) {
    while (excess[static_cast<std::size_t>(s)] > 0) {
      // Dijkstra with reduced costs from s until some deficit node settles.
      std::fill(dist.begin(), dist.end(), kInfCost);
      std::fill(pred.begin(), pred.end(), -1);
      std::fill(settled.begin(), settled.end(), 0);
      using Item = std::pair<Cost, NodeId>;
      std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
      dist[static_cast<std::size_t>(s)] = 0;
      heap.emplace(0, s);
      NodeId t = kInvalidNode;
      while (!heap.empty()) {
        auto [d, u] = heap.top();
        heap.pop();
        if (settled[static_cast<std::size_t>(u)]) continue;
        settled[static_cast<std::size_t>(u)] = 1;
        if (excess[static_cast<std::size_t>(u)] < 0) {
          t = u;
          break;
        }
        for (int e : r.adj[static_cast<std::size_t>(u)]) {
          if (r.cap[static_cast<std::size_t>(e)] <= 0) continue;
          const NodeId v = r.to[static_cast<std::size_t>(e)];
          if (settled[static_cast<std::size_t>(v)]) continue;
          const Cost rc = r.cost[static_cast<std::size_t>(e)] +
                          pi[static_cast<std::size_t>(u)] -
                          pi[static_cast<std::size_t>(v)];
          MFT_DCHECK(rc >= 0);
          if (d + rc < dist[static_cast<std::size_t>(v)]) {
            dist[static_cast<std::size_t>(v)] = d + rc;
            pred[static_cast<std::size_t>(v)] = e;
            heap.emplace(d + rc, v);
          }
        }
      }
      if (t == kInvalidNode) {
        fail.status = McfStatus::kInfeasible;
        return fail;
      }
      const Cost dt = dist[static_cast<std::size_t>(t)];
      for (NodeId v = 0; v < n; ++v)
        pi[static_cast<std::size_t>(v)] +=
            std::min(dist[static_cast<std::size_t>(v)], dt);
      // Augment along the shortest path.
      Flow delta = std::min(excess[static_cast<std::size_t>(s)],
                            -excess[static_cast<std::size_t>(t)]);
      for (NodeId v = t; v != s; v = r.tail(pred[static_cast<std::size_t>(v)]))
        delta = std::min(
            delta, r.cap[static_cast<std::size_t>(pred[static_cast<std::size_t>(v)])]);
      for (NodeId v = t; v != s; v = r.tail(pred[static_cast<std::size_t>(v)]))
        r.push(pred[static_cast<std::size_t>(v)], delta);
      excess[static_cast<std::size_t>(s)] -= delta;
      excess[static_cast<std::size_t>(t)] += delta;
      ++ws.ssp_augmentations;
    }
  }
  // Johnson potentials of nodes no search reached grow by every dt; report
  // Bellman–Ford potentials of the optimal residual network instead.
  bellman_ford(r, n, pi, nullptr, ws);
  return extract(p, r, pi);
}

}  // namespace

McfSolution solve_ssp(const McfProblem& p, McfWorkspace& ws) {
  return run_ssp(p, ws);
}

McfSolution solve_ssp(const McfProblem& p) {
  McfWorkspace ws;
  return run_ssp(p, ws);
}

McfSolution solve_cycle_canceling(const McfProblem& p) {
  big_m_cost(p);  // the cost bound every solver shares (mcf.h)
  McfSolution fail;
  if (p.total_supply() != 0) {
    fail.status = McfStatus::kInfeasible;
    return fail;
  }
  // Phase 1: any feasible flow, via SSP on a zero-cost copy.
  McfProblem zero(p.num_nodes());
  for (const McfArc& a : p.arcs()) zero.add_arc(a.tail, a.head, a.capacity, 0);
  for (NodeId v = 0; v < p.num_nodes(); ++v) zero.set_supply(v, p.supply(v));
  McfSolution feasible = solve_ssp(zero);
  if (feasible.status != McfStatus::kOptimal) return feasible;

  // Phase 2: load the feasible flow into a residual network with the real
  // costs and cancel negative cycles.
  const int n = p.num_nodes();
  McfWorkspace ws;
  Residual r(p, ws);
  for (ArcId a = 0; a < p.num_arcs(); ++a)
    r.push(2 * a, feasible.flow[static_cast<std::size_t>(a)]);
  if (!cancel_negative_cycles(r, n, ws)) {
    fail.status = McfStatus::kUnbounded;
    return fail;
  }
  std::vector<Cost> pi;
  bellman_ford(r, n, pi, nullptr, ws);
  return extract(p, r, pi);
}

}  // namespace mft
