#include "mcf/mcf.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/status.h"

namespace mft {

McfProblem::McfProblem(int num_nodes) {
  MFT_CHECK(num_nodes >= 0);
  supply_.assign(static_cast<std::size_t>(num_nodes), 0);
}

ArcId McfProblem::add_arc(NodeId tail, NodeId head, Flow capacity, Cost cost) {
  MFT_CHECK(tail >= 0 && tail < num_nodes());
  MFT_CHECK(head >= 0 && head < num_nodes());
  MFT_CHECK_MSG(tail != head, "self-loop arcs are not supported");
  MFT_CHECK(capacity >= 0);
  arcs_.push_back(McfArc{tail, head, capacity, cost});
  return static_cast<ArcId>(arcs_.size() - 1);
}

void McfProblem::set_supply(NodeId v, Flow s) {
  MFT_CHECK(v >= 0 && v < num_nodes());
  supply_[static_cast<std::size_t>(v)] = s;
}

void McfProblem::add_supply(NodeId v, Flow s) {
  MFT_CHECK(v >= 0 && v < num_nodes());
  supply_[static_cast<std::size_t>(v)] += s;
}

void McfProblem::set_arc_cost(ArcId a, Cost cost) {
  MFT_CHECK(a >= 0 && a < num_arcs());
  arcs_[static_cast<std::size_t>(a)].cost = cost;
}

void McfProblem::clear_supplies() {
  std::fill(supply_.begin(), supply_.end(), 0);
}

Flow McfProblem::total_supply() const {
  Flow t = 0;
  for (Flow s : supply_) t += s;
  return t;
}

Cost McfProblem::max_abs_cost() const {
  Cost m = 0;
  for (const McfArc& a : arcs_) {
    // |INT64_MIN| does not fit; saturate so callers see an out-of-range cost.
    const Cost c = a.cost == std::numeric_limits<Cost>::min()
                       ? std::numeric_limits<Cost>::max()
                       : (a.cost < 0 ? -a.cost : a.cost);
    m = std::max(m, c);
  }
  return m;
}

const char* to_string(McfStatus s) {
  switch (s) {
    case McfStatus::kOptimal:
      return "optimal";
    case McfStatus::kInfeasible:
      return "infeasible";
    case McfStatus::kUnbounded:
      return "unbounded";
  }
  return "?";
}

bool check_flow_feasible(const McfProblem& p, const std::vector<Flow>& flow,
                         std::string* why) {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  if (static_cast<int>(flow.size()) != p.num_arcs())
    return fail("flow vector arity mismatch");
  std::vector<Flow> balance(p.supplies());
  for (ArcId a = 0; a < p.num_arcs(); ++a) {
    const McfArc& arc = p.arc(a);
    const Flow f = flow[static_cast<std::size_t>(a)];
    if (f < 0) return fail("negative flow on arc " + std::to_string(a));
    if (f > arc.capacity)
      return fail("capacity violated on arc " + std::to_string(a));
    balance[static_cast<std::size_t>(arc.tail)] -= f;
    balance[static_cast<std::size_t>(arc.head)] += f;
  }
  for (NodeId v = 0; v < p.num_nodes(); ++v) {
    if (balance[static_cast<std::size_t>(v)] != 0) {
      std::ostringstream os;
      os << "conservation violated at node " << v << " (residual "
         << balance[static_cast<std::size_t>(v)] << ")";
      return fail(os.str());
    }
  }
  return true;
}

bool check_flow_optimal(const McfProblem& p, const McfSolution& sol,
                        std::string* why) {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  if (sol.status != McfStatus::kOptimal) return fail("status not optimal");
  if (!check_flow_feasible(p, sol.flow, why)) return false;
  if (static_cast<int>(sol.potential.size()) != p.num_nodes())
    return fail("potential arity mismatch");
  for (ArcId a = 0; a < p.num_arcs(); ++a) {
    const McfArc& arc = p.arc(a);
    const Flow f = sol.flow[static_cast<std::size_t>(a)];
    const Cost diff = sol.potential[static_cast<std::size_t>(arc.tail)] -
                      sol.potential[static_cast<std::size_t>(arc.head)];
    if (f < arc.capacity && diff > arc.cost) {
      std::ostringstream os;
      os << "dual feasibility violated on unsaturated arc " << a << ": pi("
         << arc.tail << ")-pi(" << arc.head << ")=" << diff << " > cost "
         << arc.cost;
      return fail(os.str());
    }
    if (f > 0 && diff < arc.cost) {
      std::ostringstream os;
      os << "complementary slackness violated on arc " << a << " with flow "
         << f << ": potential difference " << diff << " < cost " << arc.cost;
      return fail(os.str());
    }
  }
  if (flow_cost(p, sol.flow) != sol.total_cost)
    return fail("reported total cost does not match flow");
  return true;
}

Cost flow_cost(const McfProblem& p, const std::vector<Flow>& flow) {
  __int128 total = 0;
  for (ArcId a = 0; a < p.num_arcs(); ++a)
    total += static_cast<__int128>(flow[static_cast<std::size_t>(a)]) *
             p.arc(a).cost;
  MFT_CHECK_MSG(total <= std::numeric_limits<Cost>::max() &&
                    total >= std::numeric_limits<Cost>::min(),
                "total cost overflows int64");
  return static_cast<Cost>(total);
}

Cost big_m_cost(const McfProblem& p) {
  const Cost max_abs_cost = p.max_abs_cost();
  Cost big_m = 0;
  if (__builtin_add_overflow(max_abs_cost, Cost{1}, &big_m) ||
      __builtin_mul_overflow(big_m, static_cast<Cost>(p.num_nodes()) + 1,
                             &big_m) ||
      big_m > std::numeric_limits<Cost>::max() / 5)
    throw EngineError(EngineStatus::kInvalidInput,
                      "min-cost flow costs too large: max |cost| " +
                          std::to_string(max_abs_cost) + " on " +
                          std::to_string(p.num_nodes()) +
                          " nodes would overflow int64 duals");
  return big_m;
}

namespace {

// One edge u -> v of the optimal-face graph, with its reduced weight
// w + π(u) − π(v) under the solver's potentials π.
struct FaceEdge {
  NodeId to;
  Cost red;
};

// Monotone priority queue for Dijkstra labels (a radix heap): every key
// pushed is at least the last key popped. Bucket 0 holds keys equal to that
// last key, bucket i > 0 keys whose highest bit differing from it is bit
// i − 1. A pop from an empty bucket 0 moves the lowest nonempty bucket's
// minimum to `last` and redistributes that bucket below. About 40 % faster
// than a binary heap on D-phase duals.
class RadixHeap {
 public:
  void clear() {
    for (auto& b : bucket_) b.clear();
    last_ = 0;
    size_ = 0;
  }
  bool empty() const { return size_ == 0; }
  void push(Cost key, NodeId v) {
    bucket_[index(key)].emplace_back(key, v);
    ++size_;
  }
  std::pair<Cost, NodeId> pop() {
    if (bucket_[0].empty()) {
      int i = 1;
      while (bucket_[i].empty()) ++i;
      last_ = bucket_[i].front().first;
      for (const auto& x : bucket_[i]) last_ = std::min(last_, x.first);
      for (const auto& x : bucket_[i]) bucket_[index(x.first)].push_back(x);
      bucket_[i].clear();
    }
    const auto x = bucket_[0].back();
    bucket_[0].pop_back();
    --size_;
    return x;
  }

 private:
  int index(Cost key) const {
    return key == last_ ? 0
                        : 64 - __builtin_clzll(static_cast<unsigned long long>(
                                   key ^ last_));
  }
  std::vector<std::pair<Cost, NodeId>> bucket_[65];
  Cost last_ = 0;
  std::size_t size_ = 0;
};

// Scratch of canonicalize_potentials, kept per thread rather than per
// workspace: a pooled context per (worker, network) would otherwise carry
// O(n + m) more memory for a buffer it uses only inside one call.
struct CanonScratch {
  std::vector<int> first;  ///< CSR row starts, n + 1 entries
  std::vector<FaceEdge> edge;
  std::vector<Cost> label;
  std::vector<char> done;
  std::vector<NodeId> stack;
  RadixHeap heap;
};

}  // namespace

// The optimal face is {π : π(t) − π(h) <= c(a) where flow(a) < cap(a), and
// π(t) − π(h) >= c(a) where flow(a) > 0}. As difference constraints these
// are edges h -> t of weight c(a) and t -> h of weight −c(a), and the
// pointwise-maximal π with π(ground) = 0 is the shortest-distance vector d
// from ground. Adding an edge ground -> v of weight B = 2A for every v
// changes no finite distance (a simple path costs at most (n − 1)C < B / 2
// in magnitude) and caps the unbounded ones.
//
// Dijkstra runs on labels D(v) = d(v) − (π(v) − π(ground)) over reduced
// weights w + π(u) − π(v) >= 0 (the solver's π lies in the face).
//
// Bound, with C = max|cost|, A = big_m_cost(p) <= INT64_MAX / 5 and the
// precondition |π| < 2A checked below: a reduced weight is below C + 4A <
// 5A; a finite d is below A in magnitude, so a label from ground lies in
// [0, 5A). The nodes ground cannot reach are seeded together with labels
// max π − π(v) in [0, 4A) (the edge of weight B, relative to a shift of
// their π that leaves every reduced weight among them unchanged), and their
// labels stay below that. The relaxation compares `red < D(v) − D(u)`
// rather than forming D(u) + red, so an unreached INT64_MAX label cannot
// overflow, and converting a label back to d adds two terms whose exact sum
// is a distance in range.
void canonicalize_potentials(const McfProblem& p, NodeId ground,
                             McfSolution& sol) {
  const int n = p.num_nodes();
  MFT_CHECK(sol.status == McfStatus::kOptimal);
  MFT_CHECK(ground >= 0 && ground < n);
  MFT_CHECK(static_cast<int>(sol.potential.size()) == n &&
            static_cast<int>(sol.flow.size()) == p.num_arcs());
  const Cost big_m = big_m_cost(p);
  std::vector<Cost>& pi = sol.potential;
  for (const Cost x : pi)
    MFT_CHECK_MSG(x > -2 * big_m && x < 2 * big_m,
                  "flow solver potential " << x << " outside +-2A");

  thread_local CanonScratch scratch;
  CanonScratch& s = scratch;
  const std::size_t nodes = static_cast<std::size_t>(n);

  // CSR adjacency of the face graph.
  s.first.assign(nodes + 1, 0);
  for (ArcId a = 0; a < p.num_arcs(); ++a) {
    const McfArc& arc = p.arc(a);
    const Flow f = sol.flow[static_cast<std::size_t>(a)];
    if (f < arc.capacity) ++s.first[static_cast<std::size_t>(arc.head) + 1];
    if (f > 0) ++s.first[static_cast<std::size_t>(arc.tail) + 1];
  }
  for (std::size_t v = 0; v < nodes; ++v) s.first[v + 1] += s.first[v];
  s.edge.resize(static_cast<std::size_t>(s.first[nodes]));
  for (ArcId a = 0; a < p.num_arcs(); ++a) {
    const McfArc& arc = p.arc(a);
    const Flow f = sol.flow[static_cast<std::size_t>(a)];
    const Cost rc = arc.cost - pi[static_cast<std::size_t>(arc.tail)] +
                    pi[static_cast<std::size_t>(arc.head)];
    if (f < arc.capacity)
      s.edge[static_cast<std::size_t>(
          s.first[static_cast<std::size_t>(arc.head)]++)] = {arc.tail, rc};
    if (f > 0)
      s.edge[static_cast<std::size_t>(
          s.first[static_cast<std::size_t>(arc.tail)]++)] = {arc.head, -rc};
  }
  for (std::size_t v = nodes; v > 0; --v) s.first[v] = s.first[v - 1];
  s.first[0] = 0;

  constexpr Cost kUnreached = std::numeric_limits<Cost>::max();
  s.label.assign(nodes, kUnreached);
  s.done.assign(nodes, 0);
  s.stack.clear();
  // The node and edge arrays keep their size from here on; only the stack
  // and the heap grow.
  const int* const first = s.first.data();
  const FaceEdge* const edge = s.edge.data();
  Cost* const label = s.label.data();
  char* const done = s.done.data();
  std::vector<NodeId>& stack = s.stack;
  RadixHeap& heap = s.heap;
  const auto relax = [=, &stack, &heap](NodeId u) {
    const Cost du = label[u];
    for (const FaceEdge* e = edge + first[u]; e != edge + first[u + 1]; ++e) {
      const NodeId v = e->to;
      if (done[v] || !(e->red < label[v] - du)) continue;
      label[v] = du + e->red;
      if (e->red == 0) {
        // Tight edge: v ties the minimum label, so it is final already.
        done[v] = 1;
        stack.push_back(v);
      } else {
        heap.push(label[v], v);
      }
    }
  };
  // Dijkstra that settles zero-weight successors through a stack before it
  // pops the heap again: most face edges are tight tree arcs.
  const auto run = [=, &stack, &heap, &relax] {
    for (;;) {
      while (!stack.empty()) {
        const NodeId u = stack.back();
        stack.pop_back();
        relax(u);
      }
      NodeId u = kInvalidNode;
      while (u == kInvalidNode && !heap.empty()) {
        const auto [d, v] = heap.pop();
        if (!done[v] && d == label[v]) u = v;
      }
      if (u == kInvalidNode) return;
      done[u] = 1;
      relax(u);
    }
  };

  const Cost pi_ground = pi[static_cast<std::size_t>(ground)];
  heap.clear();
  label[ground] = 0;
  done[ground] = 1;
  stack.push_back(ground);
  run();

  // Settled nodes are final: write d back now and mark them 2, so the
  // capped run below (which reads π only at unreached nodes) leaves them.
  Cost pi_max = std::numeric_limits<Cost>::min();
  for (NodeId v = 0; v < n; ++v) {
    Cost& x = pi[static_cast<std::size_t>(v)];
    if (done[v]) {
      x = label[v] + (x - pi_ground);
      done[v] = 2;
    } else {
      pi_max = std::max(pi_max, x);
    }
  }
  if (pi_max == std::numeric_limits<Cost>::min()) return;
  heap.clear();  // labels restart from 0
  for (NodeId v = 0; v < n; ++v) {
    if (done[v]) continue;
    label[v] = pi_max - pi[static_cast<std::size_t>(v)];
    heap.push(label[v], v);
  }
  run();
  for (NodeId v = 0; v < n; ++v) {
    Cost& x = pi[static_cast<std::size_t>(v)];
    if (done[v] == 1) x = label[v] + (x - pi_max) + 2 * big_m;
  }
}

}  // namespace mft
