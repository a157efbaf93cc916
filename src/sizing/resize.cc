#include "sizing/resize.h"

#include <algorithm>
#include <cmath>

#include "sizing/pass.h"
#include "sizing/shard.h"
#include "sizing/wphase.h"
#include "timing/sta.h"
#include "util/stopwatch.h"
#include "util/str.h"

namespace mft {

namespace {

/// Levels of safety halo around the dirty band. The band's frozen
/// boundary absorbs first-order load coupling; the halo gives the local
/// solve room to move the neighbors that matter most.
constexpr int kHaloLevels = 2;
/// Bounded local area-recovery budget: D/W refinement iterations run on
/// the carved band (or the whole network, for a target-only delta) after
/// the warm W-phase.
constexpr int kMaxLocalIterations = 8;

/// Bounded D/W area-recovery loop over an already-feasible iterate: the
/// refinement step of the MINFLOTRANSIT loop run standalone (no TILOS, no
/// full pipeline), stopping after kMaxLocalIterations iterations or when
/// the step reports no further progress. `sizes` must meet `target` on
/// entry; on exit it holds the best feasible iterate found.
void refine_area(SizingContext& ctx, const MinflotransitOptions& opt,
                 double target, std::vector<double>& sizes) {
  PipelineState st;
  st.target_delay = target;
  st.sizes = sizes;
  st.best_sizes = sizes;
  st.best_area = ctx.net().area(sizes);
  st.met_target = true;
  begin_refinement(opt.dphase, st);
  for (int i = 0; i < kMaxLocalIterations; ++i)
    if (!refine_step(ctx, opt.dphase, st)) break;
  sizes = st.best_sizes;
}

/// Level-band partition {[0,lo), [lo,hi), [hi,L)} with degenerate bands
/// collapsed; *mid_out is the index of the [lo,hi) band.
ShardPartition make_band_partition(const SizingNetwork& net, int lo, int hi,
                                   int* mid_out) {
  const int levels = net.num_levels();
  ShardPartition part;
  part.cut_levels.push_back(0);
  for (const int c : {lo, hi, levels})
    if (c > part.cut_levels.back()) part.cut_levels.push_back(c);
  const int k = static_cast<int>(part.cut_levels.size()) - 1;
  *mid_out = 0;
  for (int s = 0; s < k; ++s)
    if (part.cut_levels[static_cast<std::size_t>(s)] == lo) *mid_out = s;
  part.vertices.resize(static_cast<std::size_t>(k));
  part.shard_of.assign(static_cast<std::size_t>(net.num_vertices()), 0);
  const std::vector<int>& level_of = net.level_of();
  for (NodeId v = 0; v < net.num_vertices(); ++v) {
    const int l = level_of[static_cast<std::size_t>(v)];
    int s = 0;
    while (s + 1 < k && l >= part.cut_levels[static_cast<std::size_t>(s) + 1])
      ++s;
    part.shard_of[static_cast<std::size_t>(v)] = s;
    // Ascending id within each band — the local id order
    // build_shard_network expects.
    part.vertices[static_cast<std::size_t>(s)].push_back(v);
  }
  part.cut_width.assign(k > 1 ? static_cast<std::size_t>(k) - 1 : 0, 0);
  return part;
}

}  // namespace

const char* to_string(ResizeMode mode) {
  switch (mode) {
    case ResizeMode::kFixpoint:
      return "fixpoint";
    case ResizeMode::kWarm:
      return "warm";
    case ResizeMode::kCold:
      return "cold";
  }
  return "unknown";
}

ResizeSession::ResizeSession(const SizingNetwork& net, const ResizeOptions& opt)
    : net_(net.clone()),
      opt_(opt),
      ctx_(net_),
      pins_(static_cast<std::size_t>(net_.num_vertices()), 0.0) {}

bool ResizeSession::has_pins() const {
  for (const double p : pins_)
    if (p > 0.0) return true;
  return false;
}

void ResizeSession::install_pins() {
  ctx_.set_pins(has_pins() ? &pins_ : nullptr);
}

ResizeResult ResizeSession::solve(double target_delay) {
  ResizeResult res;
  if (!(target_delay > 0.0)) {
    res.ok = false;
    res.error = "target delay must be positive";
    return res;
  }
  return cold_solve(target_delay);
}

ResizeResult ResizeSession::adopt(const std::vector<double>& sizes,
                                  double target_delay) {
  ResizeResult res;
  if (!(target_delay > 0.0)) {
    res.ok = false;
    res.error = "target delay must be positive";
    return res;
  }
  if (static_cast<int>(sizes.size()) != net_.num_vertices()) {
    res.ok = false;
    res.error = strf("size vector has %zu entries, network has %d",
                     sizes.size(), net_.num_vertices());
    return res;
  }
  for (NodeId v = 0; v < net_.num_vertices(); ++v)
    if (!net_.is_source(v) && !(sizes[static_cast<std::size_t>(v)] > 0.0)) {
      res.ok = false;
      res.error = strf("adopted size of vertex %d is not positive", v);
      return res;
    }
  Stopwatch sw;
  const TimingReport t = run_sta(net_, sizes);
  sizes_ = sizes;
  target_ = target_delay;
  sized_ = true;
  res.sizes = sizes_;
  res.area = net_.area(sizes_);
  res.delay = t.critical_path;
  res.target = target_delay;
  res.met_target = t.critical_path <= target_delay * (1.0 + 1e-9);
  res.mode = ResizeMode::kFixpoint;
  res.seconds = sw.seconds();
  return res;
}

ResizeResult ResizeSession::cold_solve(double target) {
  ResizeResult res;
  Stopwatch sw;
  install_pins();
  ctx_.begin_job();
  const MinflotransitResult m = run_minflotransit(ctx_, target, opt_.cold);
  sizes_ = m.sizes;
  target_ = target;
  sized_ = true;
  res.sizes = sizes_;
  res.area = m.area;
  res.delay = m.delay;
  res.target = target;
  res.met_target = m.met_target;
  res.mode = ResizeMode::kCold;
  res.seconds = sw.seconds();
  return res;
}

bool ResizeSession::verify_and_adopt(const std::vector<double>& candidate,
                                     double target, ResizeMode mode,
                                     ResizeResult& res) {
  // The contract: every warm answer is re-verified by a full from-scratch
  // STA over the whole network before it is returned or adopted.
  const TimingReport t = run_sta(net_, candidate);
  if (!(t.critical_path <= target * (1.0 + 1e-9))) return false;
  sizes_ = candidate;
  target_ = target;
  res.sizes = sizes_;
  res.area = net_.area(sizes_);
  res.delay = t.critical_path;
  res.target = target;
  res.met_target = true;
  res.mode = mode;
  return true;
}

bool ResizeSession::warm_global(double target, ResizeResult& res) {
  // Rescale the achieved per-vertex delays into budgets summing to the new
  // target along every path, then relax warm from the current sizes: no
  // TILOS, no flow solve — two permutes and a few Gauss–Seidel sweeps.
  const TimingReport t0 = run_sta(net_, sizes_);
  if (!(t0.critical_path > 0.0)) return false;
  const double f = target / t0.critical_path;
  const std::size_t n = static_cast<std::size_t>(net_.num_vertices());
  std::vector<double> budget(n);
  for (std::size_t v = 0; v < n; ++v) budget[v] = t0.delay[v] * f;
  const WPhaseResult w =
      solve_wphase(net_, budget, sizes_, nullptr, nullptr, false,
                   has_pins() ? &pins_ : nullptr);
  if (!w.feasible) return false;
  std::vector<double> cand = w.sizes;
  install_pins();
  refine_area(ctx_, opt_.cold, target, cand);
  return verify_and_adopt(cand, target, ResizeMode::kWarm, res);
}

bool ResizeSession::warm_local(double target, int lo_level, int hi_level,
                               ResizeResult& res) {
  // Working iterate: current sizes with the pins forced — the pinned sizes
  // are part of the perturbation the carve must absorb.
  std::vector<double> work = sizes_;
  for (NodeId v = 0; v < net_.num_vertices(); ++v)
    if (pins_[static_cast<std::size_t>(v)] > 0.0)
      work[static_cast<std::size_t>(v)] = pins_[static_cast<std::size_t>(v)];

  int mid = 0;
  const ShardPartition part =
      make_band_partition(net_, lo_level, hi_level, &mid);

  // Span budget for the band from the unperturbed prefix/suffix arrival
  // profile: whatever time depth the other bands consume at the current
  // sizes is spoken for; the band gets the rest. The boundary margin is
  // shaved off the WHOLE target, not just the band's slice: it covers
  // prefix arrival drift caused by the band's own resizing (the band's
  // new sizes load the prefix's drivers), and that drift scales with the
  // full path depth — the local area-recovery pass deliberately spends
  // every unit of slack inside the band, so slack held against drift has
  // to live outside the span it is given.
  const TimingReport t = run_sta(net_, work);
  // No floor: a band that adds no time depth contributes zero.
  const std::vector<double> usage = shard_usage(part, t, 0.0);
  double span =
      part.num_shards() > 1 ? target * (1.0 - kShardBoundaryMargin) : target;
  for (int s = 0; s < part.num_shards(); ++s)
    if (s != mid) span -= usage[static_cast<std::size_t>(s)];
  if (!(span > 0.0)) return false;

  const ShardNetwork sn = build_shard_network(net_, part, mid, work);
  const int ln = sn.net->num_vertices();
  std::vector<double> lstart(static_cast<std::size_t>(ln), 0.0);
  std::vector<double> lpins(static_cast<std::size_t>(ln), 0.0);
  bool any_pin = false;
  for (int l = 0; l < sn.num_owned; ++l) {
    const NodeId gv = sn.global_of_local[static_cast<std::size_t>(l)];
    lstart[static_cast<std::size_t>(l)] = work[static_cast<std::size_t>(gv)];
    const double p = pins_[static_cast<std::size_t>(gv)];
    if (p > 0.0) {
      lpins[static_cast<std::size_t>(l)] = p;
      any_pin = true;
    }
  }

  // Proportional budgets inside the band, warm W-phase, then the bounded
  // local D/W area recovery — all O(band), never O(V).
  const TimingReport lt = run_sta(*sn.net, lstart);
  if (!(lt.critical_path > 0.0)) return false;
  const double lf = span / lt.critical_path;
  std::vector<double> lbudget(static_cast<std::size_t>(ln));
  for (int l = 0; l < ln; ++l)
    lbudget[static_cast<std::size_t>(l)] =
        lt.delay[static_cast<std::size_t>(l)] * lf;
  const WPhaseResult w =
      solve_wphase(*sn.net, lbudget, lstart, nullptr, nullptr, false,
                   any_pin ? &lpins : nullptr);
  if (!w.feasible) return false;
  std::vector<double> lsizes = w.sizes;
  {
    SizingContext lctx(*sn.net);
    if (any_pin) lctx.set_pins(&lpins);
    refine_area(lctx, opt_.cold, span, lsizes);
  }

  std::vector<double> cand = work;
  for (int l = 0; l < sn.num_owned; ++l)
    cand[static_cast<std::size_t>(
        sn.global_of_local[static_cast<std::size_t>(l)])] =
        lsizes[static_cast<std::size_t>(l)];
  res.region_vertices = sn.num_owned;
  return verify_and_adopt(cand, target, ResizeMode::kWarm, res);
}

ResizeResult ResizeSession::resize(const ResizeDelta& delta) {
  ResizeResult res;
  if (!sized_) {
    res.ok = false;
    res.error = "session has no sized state; call solve() or adopt() first";
    return res;
  }
  if (!std::isfinite(delta.target_delay) || delta.target_delay < 0.0) {
    res.ok = false;
    res.error =
        "target delay must be finite and positive (or 0 to keep the current)";
    return res;
  }
  const double target =
      delta.target_delay > 0.0 ? delta.target_delay : target_;
  const int n = net_.num_vertices();
  const Tech& tech = net_.tech();

  // Validate the whole delta before touching any state: a rejected delta
  // must leave the session exactly as it was (the daemon turns the error
  // into a kInvalidInput response, never a crash).
  std::vector<double> pending_b(static_cast<std::size_t>(n), 0.0);
  for (const ResizeLoadEdit& e : delta.load_edits) {
    if (e.vertex < 0 || e.vertex >= n) {
      res.ok = false;
      res.error = strf("load edit names unknown vertex %d", e.vertex);
      return res;
    }
    if (net_.is_source(e.vertex)) {
      res.ok = false;
      res.error = strf("load edit on source vertex %d (sources carry no load)",
                       e.vertex);
      return res;
    }
    if (!std::isfinite(e.b_delta)) {
      res.ok = false;
      res.error = strf("load edit for vertex %d is not a finite number",
                       e.vertex);
      return res;
    }
    pending_b[static_cast<std::size_t>(e.vertex)] += e.b_delta;
  }
  for (NodeId v = 0; v < n; ++v) {
    const double d = pending_b[static_cast<std::size_t>(v)];
    if (d == 0.0) continue;
    const SizingVertex& sv = net_.vertex(v);
    const double nb = sv.b + d;
    if (!std::isfinite(nb) || nb < 0.0 || (nb == 0.0 && sv.loads.empty())) {
      res.ok = false;
      res.error = strf(
          "load edit would leave vertex %d with degenerate load (b %.6g -> "
          "%.6g)",
          v, sv.b, nb);
      return res;
    }
  }
  std::vector<double> new_pins = pins_;
  for (const ResizePin& p : delta.pins) {
    if (p.vertex < 0 || p.vertex >= n) {
      res.ok = false;
      res.error = strf("pin names unknown vertex %d", p.vertex);
      return res;
    }
    if (net_.is_source(p.vertex)) {
      res.ok = false;
      res.error = strf("pin on source vertex %d (sources have no size)",
                       p.vertex);
      return res;
    }
    if (!std::isfinite(p.size)) {
      res.ok = false;
      res.error = strf("pin size for vertex %d is not a finite number",
                       p.vertex);
      return res;
    }
    if (p.size > 0.0 &&
        (p.size < tech.min_size * (1.0 - 1e-12) ||
         p.size > tech.max_size * (1.0 + 1e-12))) {
      res.ok = false;
      res.error =
          strf("pin size %.6g for vertex %d outside [%.6g, %.6g]", p.size,
               p.vertex, tech.min_size, tech.max_size);
      return res;
    }
    new_pins[static_cast<std::size_t>(p.vertex)] =
        p.size > 0.0 ? p.size : 0.0;
  }

  // The dirty set: vertices whose constant load or pin actually changes.
  std::vector<NodeId> dirty;
  for (NodeId v = 0; v < n; ++v) {
    if (pending_b[static_cast<std::size_t>(v)] != 0.0 ||
        new_pins[static_cast<std::size_t>(v)] !=
            pins_[static_cast<std::size_t>(v)])
      dirty.push_back(v);
  }
  res.dirty_vertices = static_cast<int>(dirty.size());

  Stopwatch sw;
  if (dirty.empty() && target == target_) {
    // Zero delta: fixpoint. Bit-identical sizes, no solver touched; the
    // delay comes from the context's (exact, incremental) STA.
    res.sizes = sizes_;
    res.area = net_.area(sizes_);
    res.delay = ctx_.sta(sizes_).critical_path;
    res.target = target_;
    res.met_target = res.delay <= target_ * (1.0 + 1e-9);
    res.mode = ResizeMode::kFixpoint;
    res.seconds = sw.seconds();
    return res;
  }

  // Commit the delta: ECO load edits mutate the owned clone in place (each
  // edit mints a fresh network serial, so every serial-keyed workspace —
  // including ctx_'s scratches — recomputes from scratch next run), pins
  // replace the session pin vector.
  for (const NodeId v : dirty)
    if (pending_b[static_cast<std::size_t>(v)] != 0.0)
      net_.eco_add_b(v, pending_b[static_cast<std::size_t>(v)]);
  pins_ = new_pins;

  bool warm_attempted = false;
  bool warm_ok = false;
  if (dirty.empty()) {
    // Target-only delta: global warm re-solve from the current sizes.
    warm_attempted = true;
    warm_ok = warm_global(target, res);
  } else {
    // Local delta: carve the dirty level band (plus halo) unless it
    // covers too much of the network to be worth carving.
    const std::vector<int>& level_of = net_.level_of();
    int lo = net_.num_levels(), hi = 0;
    for (const NodeId v : dirty) {
      lo = std::min(lo, level_of[static_cast<std::size_t>(v)]);
      hi = std::max(hi, level_of[static_cast<std::size_t>(v)] + 1);
    }
    lo = std::max(0, lo - kHaloLevels);
    hi = std::min(net_.num_levels(), hi + kHaloLevels);
    const std::vector<int>& off = net_.level_offsets();
    const int region = off[static_cast<std::size_t>(hi)] -
                       off[static_cast<std::size_t>(lo)];
    res.region_vertices = region;
    if (static_cast<double>(region) <=
        opt_.full_solve_frac * static_cast<double>(n)) {
      warm_attempted = true;
      warm_ok = warm_local(target, lo, hi, res);
    }
  }

  if (!warm_ok) {
    const int dirty_count = res.dirty_vertices;
    const int region = res.region_vertices;
    res = cold_solve(target);
    res.fell_back = warm_attempted;
    res.dirty_vertices = dirty_count;
    res.region_vertices = region;
  }
  res.seconds = sw.seconds();
  return res;
}

}  // namespace mft
