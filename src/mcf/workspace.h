// Reusable solver workspace for the min-cost-flow layer.
//
// Every D-phase call solves one flow instance; MINFLOTRANSIT runs up to 100
// of them back to back on the same topology. Before this arena existed each
// solve reallocated every parallel array (arcs/cap/flow/state and the whole
// spanning-tree basis) from scratch — pure allocator churn on the hot path.
// A caller that owns an McfWorkspace across calls pays the allocation once;
// subsequent solves only overwrite.
//
// One invariant survives between solves: after an optimal network-simplex
// solve the basis arrays hold its optimal basis and `has_basis` is set. The
// next network-simplex solve starts from that basis (see network_simplex.h)
// when its problem has the same node count, arc count and arc endpoints;
// costs, capacities and supplies may all differ. Any other problem, a
// non-optimal outcome or a throw leaves the next solve cold, from the big-M
// star, as does forget_basis(). Everything else is plain data that every
// solve rebuilds over its own node and arc counts, so a workspace may serve
// problems of any size in any order. Passing nullptr everywhere keeps the
// old allocate-per-call behavior, always cold.
#pragma once

#include <cstdint>
#include <vector>

#include "mcf/mcf.h"

namespace mft {

struct McfWorkspace {
  // --- Network simplex: arrays over user + artificial arcs ---------------
  /// The arc fields pricing reads, packed so one 16-byte load serves a
  /// reduced-cost evaluation.
  struct Arc {
    NodeId tail;
    NodeId head;
    Cost cost;
  };
  std::vector<Arc> arc;
  std::vector<Flow> cap, flow;
  std::vector<int> state;

  // Spanning-tree basis over the n user nodes plus the virtual root (index
  // n): per node its dual, parent, tree arc to the parent (`pred`) and that
  // arc's direction, and its depth (depth[root] == 0).
  std::vector<Cost> pi;
  std::vector<NodeId> parent;
  std::vector<ArcId> pred;
  std::vector<int> pred_dir;
  std::vector<int> depth;
  // The same tree as intrusive child lists (kInvalidNode ends a list), so a
  // pivot unlinks or relinks a node in O(1) and walks a subtree in preorder
  // by pointer chasing alone. Sibling order carries no meaning.
  std::vector<NodeId> first_child, next_sibling, prev_sibling;

  // Pricing + pivot scratch.
  std::vector<ArcId> candidates;  ///< candidate-list pricing shortlist
  std::vector<NodeId> path_first, path_second;  ///< pivot cycle halves

  // --- Successive shortest paths: residual network + Dijkstra scratch ----
  std::vector<NodeId> res_to;
  std::vector<Flow> res_cap;
  std::vector<Cost> res_cost;
  std::vector<std::vector<int>> res_adj;
  std::vector<Flow> excess;
  std::vector<Cost> dist, johnson_pi;
  std::vector<int> pred_arc;
  std::vector<char> settled;

  /// The basis arrays hold the last solve's optimal basis (see above).
  bool has_basis = false;

  /// Makes the next network-simplex solve start cold. SizingContext calls
  /// it at every job start, so a job's pivots never depend on the job that
  /// ran before it on a pooled context.
  void forget_basis() { has_basis = false; }

  // --- Stats --------------------------------------------------------------
  std::int64_t ns_pivots = 0;         ///< network-simplex pivots, last solve
  std::int64_t ns_pivots_total = 0;   ///< ... summed since reset_stats()
  std::int64_t ssp_augmentations = 0; ///< SSP shortest-path augmentations

  /// Zero the solve stats (capacity and cached arrays are kept). Called by
  /// SizingContext between batch jobs so per-job stats start clean.
  void reset_stats() {
    ns_pivots = 0;
    ns_pivots_total = 0;
    ssp_augmentations = 0;
  }
};

}  // namespace mft
