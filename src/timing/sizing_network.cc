#include "timing/sizing_network.h"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace mft {

namespace {
// Process-wide serial mint shared by freeze(), clone() and eco_add_b():
// anything that changes what a serial-keyed workspace may assume gets a
// number never handed out before.
std::uint64_t mint_serial() {
  static std::atomic<std::uint64_t> next_serial{1};
  return next_serial.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

NodeId SizingNetwork::add_vertex(SizingVertex v, std::string name) {
  MFT_CHECK_MSG(topo_.empty(), "network is frozen");
  MFT_CHECK(v.a_self >= 0.0 && v.b >= 0.0);
  const NodeId id = dag_.add_node();
  if (v.kind != VertexKind::kSource) ++num_sizeable_;
  verts_.push_back(std::move(v));
  names_.push_back(std::move(name));
  return id;
}

void SizingNetwork::add_load(NodeId on, NodeId of, double coeff) {
  MFT_CHECK_MSG(topo_.empty(), "network is frozen");
  MFT_CHECK(coeff >= 0.0);
  MFT_CHECK_MSG(on != of, "self-load belongs in a_self");
  MFT_CHECK_MSG(!is_source(of), "sources are not sizeable loads");
  verts_[static_cast<std::size_t>(on)].loads.push_back(LoadTerm{of, coeff});
}

void SizingNetwork::add_b(NodeId v, double delta) {
  MFT_CHECK_MSG(topo_.empty(), "network is frozen");
  verts_[static_cast<std::size_t>(v)].b += delta;
  MFT_CHECK(verts_[static_cast<std::size_t>(v)].b >= 0.0);
}

void SizingNetwork::add_a_self(NodeId v, double delta) {
  MFT_CHECK_MSG(topo_.empty(), "network is frozen");
  verts_[static_cast<std::size_t>(v)].a_self += delta;
  MFT_CHECK(verts_[static_cast<std::size_t>(v)].a_self >= 0.0);
}

void SizingNetwork::set_po(NodeId v, bool po) {
  MFT_CHECK_MSG(topo_.empty(), "network is frozen");
  verts_[static_cast<std::size_t>(v)].is_po = po;
}

SizingNetwork SizingNetwork::clone() const {
  SizingNetwork c(*this);
  if (c.serial_ != 0) c.serial_ = mint_serial();
  return c;
}

void SizingNetwork::eco_add_b(NodeId v, double delta) {
  MFT_CHECK_MSG(frozen(), "eco_add_b is a post-freeze edit");
  MFT_CHECK_MSG(!is_source(v), "sources carry no load");
  SizingVertex& sv = verts_[static_cast<std::size_t>(v)];
  // Check the new value before storing it: a refused edit leaves both
  // representations untouched.
  const double b = sv.b + delta;
  MFT_CHECK_MSG(b > 0.0 || !sv.loads.empty(),
                "ECO edit would leave vertex '" << name(v)
                                               << "' with degenerate delay");
  MFT_CHECK(std::isfinite(b) && b >= 0.0);
  sv.b = b;
  // Keep the two frozen representations coherent: hot kernels read the
  // SweepPlan row, cold paths read the AoS record.
  plan_.b[static_cast<std::size_t>(plan_.pos_of[static_cast<std::size_t>(v)])] =
      sv.b;
  serial_ = mint_serial();
}

void SizingNetwork::freeze() {
  serial_ = mint_serial();
  MFT_CHECK(num_vertices() == dag_.num_nodes());
  auto order = dag_.topological_order();
  MFT_CHECK_MSG(order.has_value(), "sizing network has a timing cycle");
  topo_ = std::move(*order);
  rev_loads_.assign(static_cast<std::size_t>(num_vertices()), {});
  for (NodeId j = 0; j < num_vertices(); ++j)
    for (const LoadTerm& t : verts_[static_cast<std::size_t>(j)].loads)
      rev_loads_[static_cast<std::size_t>(t.vertex)].push_back(
          LoadTerm{j, t.coeff});
  for (NodeId v = 0; v < num_vertices(); ++v) {
    const SizingVertex& sv = verts_[static_cast<std::size_t>(v)];
    if (sv.kind == VertexKind::kSource) {
      MFT_CHECK_MSG(sv.loads.empty() && sv.a_self == 0.0 && sv.b == 0.0,
                    "source vertex '" << name(v) << "' must be delay-free");
    } else {
      MFT_CHECK_MSG(sv.b > 0.0 || !sv.loads.empty(),
                    "sizeable vertex '" << name(v)
                                        << "' has no load: delay would be "
                                           "degenerate (zero)");
    }
  }
  compute_levels();
  build_plan();
}

void SizingNetwork::compute_levels() {
  const std::size_t n = static_cast<std::size_t>(num_vertices());
  topo_pos_.assign(n, 0);
  for (std::size_t i = 0; i < topo_.size(); ++i)
    topo_pos_[static_cast<std::size_t>(topo_[i])] = static_cast<int>(i);

  // Longest-path depth over the union of arcs and load terms, every load
  // term oriented forward in topological order (see the header comment).
  // All union edges then point forward in topo order, so one pass relaxing
  // each vertex's outgoing union edges computes the depth exactly.
  level_of_.assign(n, 0);
  for (const NodeId v : topo_) {
    const std::size_t vi = static_cast<std::size_t>(v);
    const int next = level_of_[vi] + 1;
    auto bump = [&](NodeId u) {
      const std::size_t ui = static_cast<std::size_t>(u);
      if (level_of_[ui] < next) level_of_[ui] = next;
    };
    for (const ArcId a : dag_.out_arcs(v)) bump(dag_.head(a));
    for (const LoadTerm& t : verts_[vi].loads)
      if (topo_pos_[static_cast<std::size_t>(t.vertex)] > topo_pos_[vi])
        bump(t.vertex);
    for (const LoadTerm& t : rev_loads_[vi])
      if (topo_pos_[static_cast<std::size_t>(t.vertex)] > topo_pos_[vi])
        bump(t.vertex);
  }

  int levels = 0;
  for (const int l : level_of_) levels = std::max(levels, l + 1);
  if (n == 0) levels = 0;
  level_offsets_.assign(static_cast<std::size_t>(levels) + 1, 0);
  for (const int l : level_of_) ++level_offsets_[static_cast<std::size_t>(l) + 1];
  for (int l = 0; l < levels; ++l)
    level_offsets_[static_cast<std::size_t>(l) + 1] +=
        level_offsets_[static_cast<std::size_t>(l)];
  // Appending in topo order sorts each level by topological position.
  level_order_.resize(n);
  std::vector<int> cursor(level_offsets_.begin(), level_offsets_.end() - 1);
  for (const NodeId v : topo_)
    level_order_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(
            level_of_[static_cast<std::size_t>(v)])]++)] = v;
}

void SizingNetwork::build_plan() {
  const int n = num_vertices();
  const std::size_t ns = static_cast<std::size_t>(n);
  SweepPlan& p = plan_;
  p.n = n;
  p.vid = level_order_;
  p.pos_of.assign(ns, 0);
  for (int i = 0; i < n; ++i)
    p.pos_of[static_cast<std::size_t>(p.vid[static_cast<std::size_t>(i)])] = i;

  p.a_self.resize(ns);
  p.b.resize(ns);
  p.topo_pos.resize(ns);
  p.source.resize(ns);
  p.sink.resize(ns);
  p.load_off.assign(ns + 1, 0);
  p.rload_off.assign(ns + 1, 0);
  p.fanin_off.assign(ns + 1, 0);
  p.fanout_off.assign(ns + 1, 0);
  for (int i = 0; i < n; ++i) {
    const std::size_t pi = static_cast<std::size_t>(i);
    const NodeId v = p.vid[pi];
    const std::size_t vi = static_cast<std::size_t>(v);
    const SizingVertex& sv = verts_[vi];
    p.a_self[pi] = sv.a_self;
    p.b[pi] = sv.b;
    p.topo_pos[pi] = topo_pos_[vi];
    p.source[pi] = sv.kind == VertexKind::kSource ? 1 : 0;
    p.sink[pi] = (sv.is_po || dag_.out_arcs(v).empty()) ? 1 : 0;
    p.load_off[pi + 1] = p.load_off[pi] + static_cast<int>(sv.loads.size());
    p.rload_off[pi + 1] =
        p.rload_off[pi] + static_cast<int>(rev_loads_[vi].size());
    p.fanin_off[pi + 1] =
        p.fanin_off[pi] + static_cast<int>(dag_.in_arcs(v).size());
    p.fanout_off[pi + 1] =
        p.fanout_off[pi] + static_cast<int>(dag_.out_arcs(v).size());
  }
  p.load_pos.resize(static_cast<std::size_t>(p.load_off[ns]));
  p.load_coeff.resize(static_cast<std::size_t>(p.load_off[ns]));
  p.rload_pos.resize(static_cast<std::size_t>(p.rload_off[ns]));
  p.rload_coeff.resize(static_cast<std::size_t>(p.rload_off[ns]));
  p.fanin_pos.resize(static_cast<std::size_t>(p.fanin_off[ns]));
  p.fanout_pos.resize(static_cast<std::size_t>(p.fanout_off[ns]));
  for (int i = 0; i < n; ++i) {
    const std::size_t pi = static_cast<std::size_t>(i);
    const NodeId v = p.vid[pi];
    const std::size_t vi = static_cast<std::size_t>(v);
    // Term order within each row is preserved exactly from the AoS form,
    // so CSR folds are bit-identical to the historical per-vertex walks.
    int k = p.load_off[pi];
    for (const LoadTerm& t : verts_[vi].loads) {
      p.load_pos[static_cast<std::size_t>(k)] =
          p.pos_of[static_cast<std::size_t>(t.vertex)];
      p.load_coeff[static_cast<std::size_t>(k)] = t.coeff;
      ++k;
    }
    k = p.rload_off[pi];
    for (const LoadTerm& t : rev_loads_[vi]) {
      p.rload_pos[static_cast<std::size_t>(k)] =
          p.pos_of[static_cast<std::size_t>(t.vertex)];
      p.rload_coeff[static_cast<std::size_t>(k)] = t.coeff;
      ++k;
    }
    k = p.fanin_off[pi];
    for (const ArcId a : dag_.in_arcs(v))
      p.fanin_pos[static_cast<std::size_t>(k++)] =
          p.pos_of[static_cast<std::size_t>(dag_.tail(a))];
    k = p.fanout_off[pi];
    for (const ArcId a : dag_.out_arcs(v))
      p.fanout_pos[static_cast<std::size_t>(k++)] =
          p.pos_of[static_cast<std::size_t>(dag_.head(a))];
  }
}

std::vector<double> SizingNetwork::min_sizes() const {
  std::vector<double> x(static_cast<std::size_t>(num_vertices()), 0.0);
  for (NodeId v = 0; v < num_vertices(); ++v)
    if (!is_source(v)) x[static_cast<std::size_t>(v)] = tech_.min_size;
  return x;
}

double SizingNetwork::delay(NodeId v, const std::vector<double>& sizes) const {
  if (frozen()) {
    // Stream the frozen CSR row instead of chasing the per-vertex heap
    // vector; the term order (and therefore the sum) is identical.
    const SweepPlan& pl = plan_;
    const std::size_t p =
        static_cast<std::size_t>(pl.pos_of[static_cast<std::size_t>(v)]);
    if (pl.source[p]) return 0.0;
    MFT_DCHECK(sizes[static_cast<std::size_t>(v)] > 0.0);
    double load = pl.b[p];
    for (int k = pl.load_off[p]; k < pl.load_off[p + 1]; ++k)
      load += pl.load_coeff[static_cast<std::size_t>(k)] *
              sizes[static_cast<std::size_t>(
                  pl.vid[static_cast<std::size_t>(
                      pl.load_pos[static_cast<std::size_t>(k)])])];
    return pl.a_self[p] + load / sizes[static_cast<std::size_t>(v)];
  }
  const SizingVertex& sv = vertex(v);
  if (sv.kind == VertexKind::kSource) return 0.0;
  const double x = sizes[static_cast<std::size_t>(v)];
  MFT_DCHECK(x > 0.0);
  double load = sv.b;
  for (const LoadTerm& t : sv.loads)
    load += t.coeff * sizes[static_cast<std::size_t>(t.vertex)];
  return sv.a_self + load / x;
}

double SizingNetwork::area(const std::vector<double>& sizes) const {
  // Id-order summation on purpose: callers (tests, reports, the engine's
  // area bookkeeping) pin these exact FP sums, and the sweep permutation
  // must not change them.
  double a = 0.0;
  if (frozen()) {
    const SweepPlan& pl = plan_;
    for (NodeId v = 0; v < num_vertices(); ++v)
      if (!pl.source[static_cast<std::size_t>(
              pl.pos_of[static_cast<std::size_t>(v)])])
        a += sizes[static_cast<std::size_t>(v)];
    return a;
  }
  for (NodeId v = 0; v < num_vertices(); ++v)
    if (!is_source(v)) a += sizes[static_cast<std::size_t>(v)];
  return a;
}

std::vector<double> SizingNetwork::area_delay_weights(
    const std::vector<double>& sizes) const {
  MFT_CHECK(frozen());
  // Solve (D−A)^T y = 1:
  //   y_i = (1 + Σ_{j loads i} a_ji · y_j) / (delay(i) − a_self_i).
  // For gate sizing, loads strictly point downstream and one Gauss–Seidel
  // sweep in topological order is exact ((D−A) is triangular, §2.3). For
  // transistor sizing, vertices sharing an electrical node load each other
  // mutually ((D−A) is *block* triangular), so we iterate sweeps; the
  // coupling is the weak parasitic term, so convergence is geometric.
  //
  // The sweep runs in sweep-position order over the frozen CSR. This is
  // bit-identical to the historical topological-order walk: load terms
  // strictly cross levels, so for every reverse-load term (j, a_ji) of i,
  // y_j was updated before i exactly when topo_pos(j) < topo_pos(i) —
  // in both walk orders — and each row folds its terms in stored order.
  const SweepPlan& pl = plan_;
  const std::size_t n = static_cast<std::size_t>(pl.n);
  std::vector<double> sizes_pos;
  pl.gather(sizes, sizes_pos);
  std::vector<double> y(n, 0.0);
  std::vector<double> denom(n, 1.0);
  for (int p = 0; p < pl.n; ++p) {
    const std::size_t pi = static_cast<std::size_t>(p);
    if (pl.source[pi]) continue;
    denom[pi] = pl.delay_at(p, sizes_pos) - pl.a_self[pi];
    MFT_CHECK_MSG(denom[pi] > 0.0,
                  "degenerate delay at '" << name(pl.vid[pi]) << "'");
  }
  for (int sweep = 0; sweep < 50; ++sweep) {
    double max_delta = 0.0;
    for (int p = 0; p < pl.n; ++p) {
      const std::size_t pi = static_cast<std::size_t>(p);
      if (pl.source[pi]) continue;
      double acc = 1.0;
      for (int k = pl.rload_off[pi]; k < pl.rload_off[pi + 1]; ++k)
        acc += pl.rload_coeff[static_cast<std::size_t>(k)] *
               y[static_cast<std::size_t>(
                   pl.rload_pos[static_cast<std::size_t>(k)])];
      const double yv = acc / denom[pi];
      max_delta = std::max(max_delta, std::abs(yv - y[pi]));
      y[pi] = yv;
    }
    if (max_delta < 1e-12) break;
  }
  std::vector<double> weights(n, 0.0);
  for (NodeId v = 0; v < num_vertices(); ++v) {
    const std::size_t pi =
        static_cast<std::size_t>(pl.pos_of[static_cast<std::size_t>(v)]);
    if (!pl.source[pi])
      weights[static_cast<std::size_t>(v)] =
          sizes[static_cast<std::size_t>(v)] * y[pi];
  }
  return weights;
}

}  // namespace mft
