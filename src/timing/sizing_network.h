// The sizing IR: the circuit DAG of paper §2.1–2.2 annotated with the
// simple-monotonic delay decomposition of eq. (4)–(5).
//
// Every sizeable element (equivalent-inverter gate, individual transistor,
// or wire) is a vertex i with size x_i and delay
//
//     delay(i) = (a_self_i·x_i + Σ_j a_ij·x_j + b_i) / x_i
//
// i.e. exactly  delay(i)·x_i = Σ_j a_ij·x_j + b_i  with the diagonal term
// a_ii = a_self capturing self-loading. Sources (primary inputs) carry no
// size and zero delay. Timing-precedence arcs (the DAG) are stored
// separately from load coefficients: a load a_ij says "x_j appears in
// delay(i)", an arc i→j says "a transition traverses i before j".
//
// Both lowerings (gate_lowering, transistor_lowering) produce this IR; STA,
// TILOS, the W-phase and the D-phase all operate on it, which is what makes
// the optimizer granularity-agnostic (paper feature 2).
//
// Two representations coexist after freeze():
//  - the construction-time array-of-structs (`vertex(v)`, per-vertex load
//    vectors, `reverse_loads()`) — the convenient form for lowerings, shard
//    extraction, and validation, and
//  - the flat SweepPlan (`plan()`) — the level-contiguous structure-of-
//    arrays copy every hot kernel (STA sweeps, W-phase Gauss–Seidel, TILOS
//    bump evaluation, delay/area/area_delay_weights) actually streams.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "timing/tech.h"

namespace mft {

enum class VertexKind {
  kSource,      ///< primary input: no size, zero delay
  kGate,        ///< equivalent-inverter gate (gate sizing)
  kTransistor,  ///< single transistor (true transistor sizing)
  kWire,        ///< sizeable wire (the §2.1 wire-sizing extension)
};

/// One (vertex, coefficient) load term a_ij.
struct LoadTerm {
  NodeId vertex = kInvalidNode;
  double coeff = 0.0;
};

/// Construction-time vertex record. Deliberately dense: the name lives in a
/// side table on the network (SizingNetwork::name) so scans over the vertex
/// array never drag string headers through the cache.
struct SizingVertex {
  VertexKind kind = VertexKind::kGate;
  double a_self = 0.0;          ///< a_ii
  double b = 0.0;               ///< constant term b_i
  std::vector<LoadTerm> loads;  ///< off-diagonal a_ij, j != i
  bool is_po = false;           ///< drives a primary output (gets C_L in b)
  int origin_gate = -1;         ///< netlist GateId this vertex came from
};

/// Flat, frozen, level-contiguous structure-of-arrays view of the network,
/// built once at freeze(). "Sweep position" p is the index of a vertex in
/// level_order() — a valid topological order whose levels are contiguous
/// runs (level l = positions level_offsets()[l] .. level_offsets()[l+1]).
/// All neighbor references in the CSR arrays are sweep positions, so a
/// kernel that keeps its per-vertex values in sweep-position order touches
/// only O(level width) memory per level instead of striding the whole
/// network: the offsets, coefficients, and SoA attribute arrays stream
/// linearly, and the value gathers land in the adjacent levels just
/// written.
///
/// Per-vertex term order is preserved exactly from the AoS form (loads in
/// SizingVertex::loads order, reverse loads in reverse_loads() order, arcs
/// in in_arcs/out_arcs order), so kernels that fold them produce
/// bit-identical sums to the historical AoS walks.
struct SweepPlan {
  int n = 0;  ///< vertex count (positions and ids both range over [0, n))

  // Permutation between vertex ids and sweep positions.
  std::vector<NodeId> vid;  ///< pos -> vertex id (== level_order())
  std::vector<int> pos_of;  ///< vertex id -> pos

  // Per-position SoA attributes.
  std::vector<double> a_self;           ///< a_ii
  std::vector<double> b;                ///< constant load term
  std::vector<int> topo_pos;            ///< topo_position()[vid[p]] (cp ties)
  std::vector<unsigned char> source;    ///< kind == kSource
  std::vector<unsigned char> sink;      ///< is_po || out_degree == 0

  // Loads of p (the x_j appearing in delay(p)), CSR over positions.
  std::vector<int> load_off;            ///< size n+1
  std::vector<int> load_pos;            ///< position of the loaded vertex
  std::vector<double> load_coeff;
  // Reverse loads: the vertices whose delay grows when x_p grows.
  std::vector<int> rload_off;
  std::vector<int> rload_pos;
  std::vector<double> rload_coeff;
  // Timing arcs, both directions, CSR over positions.
  std::vector<int> fanin_off;
  std::vector<int> fanin_pos;
  std::vector<int> fanout_off;
  std::vector<int> fanout_pos;

  /// delay of the vertex at position p, sizes indexed by *position*.
  /// Bit-identical to SizingNetwork::delay: b first, then the load terms in
  /// their original order, one division at the end.
  double delay_at(int p, const std::vector<double>& sizes_pos) const {
    const std::size_t pi = static_cast<std::size_t>(p);
    if (source[pi]) return 0.0;
    double load = b[pi];
    for (int k = load_off[pi]; k < load_off[pi + 1]; ++k)
      load += load_coeff[static_cast<std::size_t>(k)] *
              sizes_pos[static_cast<std::size_t>(
                  load_pos[static_cast<std::size_t>(k)])];
    return a_self[pi] + load / sizes_pos[pi];
  }

  /// Gather an id-indexed per-vertex vector into sweep-position order.
  void gather(const std::vector<double>& by_id,
              std::vector<double>& by_pos) const {
    by_pos.resize(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p)
      by_pos[static_cast<std::size_t>(p)] =
          by_id[static_cast<std::size_t>(vid[static_cast<std::size_t>(p)])];
  }

  /// Scatter a sweep-position-ordered vector back to id indexing.
  void scatter(const std::vector<double>& by_pos,
               std::vector<double>& by_id) const {
    by_id.resize(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p)
      by_id[static_cast<std::size_t>(vid[static_cast<std::size_t>(p)])] =
          by_pos[static_cast<std::size_t>(p)];
  }
};

/// The sizing network. Construction: add vertices, add timing arcs, add
/// loads, then freeze(); afterwards only sizes change.
class SizingNetwork {
 public:
  explicit SizingNetwork(const Tech& tech) : tech_(tech) {}

  NodeId add_vertex(SizingVertex v, std::string name = {});
  void add_arc(NodeId from, NodeId to) { dag_.add_arc(from, to); }
  void add_load(NodeId on, NodeId of, double coeff);

  /// Pre-freeze adjustments used by the lowerings.
  void add_b(NodeId v, double delta);
  void add_a_self(NodeId v, double delta);
  void set_po(NodeId v, bool po);

  /// Deep copy with a *fresh* serial. The copy is its own network for
  /// workspace-keying purposes: scratches cached against the original will
  /// rebuild rather than silently reuse stale per-topology state. Used by
  /// the ECO path, which mutates the copy's constant loads in place.
  SizingNetwork clone() const;

  /// Post-freeze ECO edit: shift the constant load term b of a sizeable
  /// vertex (a load added or removed by an engineering change) without
  /// re-lowering. Updates both the AoS record and the frozen SweepPlan row
  /// and mints a fresh serial, so every serial-keyed workspace treats the
  /// edited network as new and recomputes from scratch. Topology (arcs,
  /// load sparsity, levels) is unchanged — only the coefficient moves. A
  /// new b that is negative, not finite, or zero on a vertex without load
  /// terms fails with MFT_CHECK before anything is stored.
  void eco_add_b(NodeId v, double delta);

  /// Validates invariants (DAG, coefficient signs, sources have no loads),
  /// caches the topological order, and builds the SweepPlan. Must be called
  /// before analysis.
  void freeze();
  bool frozen() const { return !topo_.empty() || num_vertices() == 0; }

  /// Unique id assigned at freeze() (0 before). Workspaces that cache
  /// per-topology state (TimingScratch, DPhaseWorkspace) key on it to
  /// detect being handed a different network and fall back to a rebuild.
  std::uint64_t serial() const { return serial_; }

  int num_vertices() const { return static_cast<int>(verts_.size()); }
  /// Number of sizeable (non-source) vertices.
  int num_sizeable() const { return num_sizeable_; }
  const SizingVertex& vertex(NodeId v) const {
    return verts_[static_cast<std::size_t>(v)];
  }
  /// Debug name of a vertex (side table — names never sit in the hot
  /// vertex array).
  const std::string& name(NodeId v) const {
    return names_[static_cast<std::size_t>(v)];
  }
  const Digraph& dag() const { return dag_; }
  const Tech& tech() const { return tech_; }
  const std::vector<NodeId>& topological_order() const { return topo_; }

  bool is_source(NodeId v) const {
    return vertex(v).kind == VertexKind::kSource;
  }

  /// reverse_loads()[i] = all (j, a_ji) with a load of j on i — i.e. the
  /// vertices whose delay grows when x_i grows. Available after freeze().
  const std::vector<std::vector<LoadTerm>>& reverse_loads() const {
    MFT_CHECK(frozen());
    return rev_loads_;
  }

  /// The flat level-contiguous SoA view (see SweepPlan). Available after
  /// freeze(); every hot kernel streams these arrays instead of walking
  /// vertex(v).
  const SweepPlan& plan() const {
    MFT_CHECK(frozen());
    return plan_;
  }

  // --- Levelization (cached at freeze) -----------------------------------
  //
  // level_of()[v] is the longest-path depth of v in the union graph of the
  // timing arcs and the load terms, with every load term oriented to agree
  // with the cached topological order. Consequences, which the level-ordered
  // sweeps in sta.cc / wphase.cc / area_delay_weights rely on (asserted by
  // tests/layout_test):
  //
  //  - no two same-level vertices share an arc or a load term;
  //  - for every load a_ij, x_j settles before (level ascending) exactly
  //    when topological position j < i — i.e. a sweep that walks levels in
  //    (reverse) order reads bit-for-bit the same neighbor values as the
  //    (reverse-)topological sweep.
  //
  // Shard partitioning and ECO band carving cut the network at level
  // boundaries.

  /// Number of levels (0 for an empty network).
  int num_levels() const {
    MFT_CHECK(frozen());
    return level_offsets_.empty()
               ? 0
               : static_cast<int>(level_offsets_.size()) - 1;
  }
  /// Per-vertex level index.
  const std::vector<int>& level_of() const {
    MFT_CHECK(frozen());
    return level_of_;
  }
  /// All vertices grouped by level (ascending), ordered within a level by
  /// topological position: level l is level_order()[level_offsets()[l] ..
  /// level_offsets()[l+1]). This is itself a valid topological order, and
  /// is exactly the SweepPlan's position ordering (plan().vid).
  const std::vector<NodeId>& level_order() const {
    MFT_CHECK(frozen());
    return level_order_;
  }
  const std::vector<int>& level_offsets() const {
    MFT_CHECK(frozen());
    return level_offsets_;
  }
  /// topo_position()[v] = index of v in topological_order(); the tie-break
  /// key that keeps the level-ordered CP argmax identical to the
  /// topological one.
  const std::vector<int>& topo_position() const {
    MFT_CHECK(frozen());
    return topo_pos_;
  }

  /// Uniform starting point: every sizeable vertex at min_size, sources 0.
  std::vector<double> min_sizes() const;

  /// delay(v) under `sizes` (0 for sources).
  double delay(NodeId v, const std::vector<double>& sizes) const;

  /// Σ x_i over sizeable vertices — the paper's objective (eq. (1)).
  double area(const std::vector<double>& sizes) const;

  /// Sensitivity weights C_i = x_i · y_i with (D−A)^T y = 1 (DESIGN.md
  /// §2.2): the first-order decrease in total area per unit of extra delay
  /// budget at vertex i. Solved by one pass in topological order.
  std::vector<double> area_delay_weights(const std::vector<double>& sizes) const;

 private:
  void compute_levels();
  void build_plan();

  Tech tech_;
  Digraph dag_;
  std::vector<SizingVertex> verts_;
  std::vector<std::string> names_;  ///< side table, indexed by vertex id
  std::vector<NodeId> topo_;
  std::vector<std::vector<LoadTerm>> rev_loads_;
  std::vector<int> topo_pos_;
  std::vector<int> level_of_;
  std::vector<NodeId> level_order_;
  std::vector<int> level_offsets_;
  SweepPlan plan_;
  int num_sizeable_ = 0;
  std::uint64_t serial_ = 0;
};

}  // namespace mft
