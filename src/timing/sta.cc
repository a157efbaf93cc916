#include "timing/sta.h"

#include <algorithm>
#include <climits>
#include <limits>

namespace mft {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Recomputes every per-vertex delay, streaming the plan's load CSR in
// sweep-position order. Shared by the two-arg run_sta and the scratch
// overload's first run so the full and incremental paths cannot drift
// apart.
void full_delay_pos(const SweepPlan& pl, const std::vector<double>& sizes_pos,
                    std::vector<double>& delay_pos) {
  delay_pos.resize(static_cast<std::size_t>(pl.n));
  for (int p = 0; p < pl.n; ++p)
    delay_pos[static_cast<std::size_t>(p)] = pl.delay_at(p, sizes_pos);
}

// Forward sweep in sweep-position order (a valid topological order —
// SweepPlan) from position `start` to the end: AT(v) = max over fanin j of
// AT(j) + delay(j), 0 at sources. cp_prefix[p] records the position of the
// CP argmax over positions [0, p], so a later fold can resume at any
// `start` whose earlier positions are settled (their delays unchanged since
// the fold that wrote cp_prefix). Shared by every path so the full,
// incremental and arrival-only reports cannot drift apart.
//
// Bit-identity to the historical id-space topological walk: every fanin
// fold reads only strictly earlier levels (fully settled in either walk
// order) and folds the vertex's own arc list in its original stored order;
// the cp winner "first in topological order attaining the max" is
// equivalently "max end, lowest topological position on exact ties", which
// is the explicit rule used here. A resumed fold
// re-derives the prefix winner's end from the same operands, so it carries
// on with exactly the value a fold from 0 would hold at `start`.
void forward_fold(const SweepPlan& pl, int start, std::vector<int>& cp_prefix,
                  TimingReport& r) {
  const int n = pl.n;
  const std::vector<double>& delay_pos = r.delay_pos;
  std::vector<double>& at_pos = r.at_pos;
  at_pos.resize(static_cast<std::size_t>(n));
  cp_prefix.resize(static_cast<std::size_t>(n));
  double critical_path = 0.0;
  int cp_pos = -1;
  int cp_tp = INT_MAX;
  if (start > 0) {
    cp_pos = cp_prefix[static_cast<std::size_t>(start) - 1];
    const std::size_t ci = static_cast<std::size_t>(cp_pos);
    critical_path = at_pos[ci] + delay_pos[ci];
    cp_tp = pl.topo_pos[ci];
  }
  for (int p = start; p < n; ++p) {
    const std::size_t pi = static_cast<std::size_t>(p);
    double at = 0.0;
    for (int k = pl.fanin_off[pi]; k < pl.fanin_off[pi + 1]; ++k) {
      const std::size_t j =
          static_cast<std::size_t>(pl.fanin_pos[static_cast<std::size_t>(k)]);
      at = std::max(at, at_pos[j] + delay_pos[j]);
    }
    at_pos[pi] = at;
    const double end = at + delay_pos[pi];
    const int tp = pl.topo_pos[pi];
    if (cp_pos < 0 || end > critical_path ||
        (end == critical_path && tp < cp_tp)) {
      critical_path = end;
      cp_pos = p;
      cp_tp = tp;
    }
    cp_prefix[pi] = cp_pos;
  }
  r.critical_path = critical_path;
  r.cp_vertex =
      cp_pos < 0 ? kInvalidNode : pl.vid[static_cast<std::size_t>(cp_pos)];
}

// Full forward/backward sweeps over the report's position-order delays,
// then the id-indexed export. Shared by the full and incremental paths so
// both produce identical reports; the backward fanout folds read only
// strictly later levels.
void run_sweeps(const SweepPlan& pl, std::vector<double>& rt_pos,
                std::vector<int>& cp_prefix, TimingReport& r) {
  const int n = pl.n;
  forward_fold(pl, 0, cp_prefix, r);
  const std::vector<double>& delay_pos = r.delay_pos;
  const double critical_path = r.critical_path;
  rt_pos.resize(static_cast<std::size_t>(n));

  // Backward: RT(v) = CP − delay(v) at POs, min over fanouts elsewhere.
  for (int p = n - 1; p >= 0; --p) {
    const std::size_t pi = static_cast<std::size_t>(p);
    double rt = kInf;
    if (pl.sink[pi]) rt = critical_path - delay_pos[pi];
    for (int k = pl.fanout_off[pi]; k < pl.fanout_off[pi + 1]; ++k)
      rt = std::min(rt, rt_pos[static_cast<std::size_t>(pl.fanout_pos[
                             static_cast<std::size_t>(k)])] -
                            delay_pos[pi]);
    rt_pos[pi] = rt;
  }

  // Id-indexed export: linear writes over the three report arrays,
  // gathered reads from the position arrays.
  const std::size_t nv = static_cast<std::size_t>(n);
  r.delay.resize(nv);
  r.at.resize(nv);
  r.rt.resize(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    const std::size_t p = static_cast<std::size_t>(pl.pos_of[v]);
    r.delay[v] = delay_pos[p];
    r.at[v] = r.at_pos[p];
    r.rt[v] = rt_pos[p];
  }
}

// Brings scratch.report.delay_pos up to date with `sizes`; `changed`
// selects the hinted or scanning path. Returns the first sweep position
// whose delay was recomputed (0 after a full recompute, n when nothing
// changed): no delay before it and no AT up to it can have moved.
int update_delays(const SizingNetwork& net, const std::vector<double>& sizes,
                  TimingScratch& scratch, const std::vector<NodeId>* changed) {
  MFT_CHECK(net.frozen());
  MFT_CHECK(static_cast<int>(sizes.size()) == net.num_vertices());
  const std::size_t n = static_cast<std::size_t>(net.num_vertices());
  const SweepPlan& pl = net.plan();
  int first = 0;

  if (!scratch.valid || scratch.net_serial != net.serial()) {
    // First run on this scratch (or a different network): full recompute.
    pl.gather(sizes, scratch.sizes_pos);
    full_delay_pos(pl, scratch.sizes_pos, scratch.report.delay_pos);
    scratch.is_dirty.assign(n, 0);
    scratch.valid = true;
    scratch.net_serial = net.serial();
    ++scratch.full_runs;
    scratch.delays_recomputed += static_cast<std::int64_t>(n);
  } else {
    // Incremental: a vertex's delay depends on its own size and the sizes
    // it loads, so the invalidated set is {changed} ∪ reverse loads of the
    // changed vertices — all found on the flat reverse-load CSR, tracked
    // as sweep positions.
    auto& dirty = scratch.dirty;
    dirty.clear();
    first = pl.n;
    auto mark = [&](int p) {
      const std::size_t i = static_cast<std::size_t>(p);
      if (!scratch.is_dirty[i]) {
        scratch.is_dirty[i] = 1;
        dirty.push_back(p);
        first = std::min(first, p);
      }
    };
    // sizes_pos holds the sizes of the previous run: a vertex is resized
    // when its new size differs from its entry there.
    auto resized = [&](NodeId v) {
      const std::size_t i = static_cast<std::size_t>(v);
      return sizes[i] !=
             scratch.sizes_pos[static_cast<std::size_t>(pl.pos_of[i])];
    };
    auto mark_changed = [&](NodeId v) {
      const int p = pl.pos_of[static_cast<std::size_t>(v)];
      scratch.sizes_pos[static_cast<std::size_t>(p)] =
          sizes[static_cast<std::size_t>(v)];
      mark(p);
      for (int k = pl.rload_off[static_cast<std::size_t>(p)];
           k < pl.rload_off[static_cast<std::size_t>(p) + 1]; ++k)
        mark(pl.rload_pos[static_cast<std::size_t>(k)]);
    };
    if (changed != nullptr) {
      // Hinted path: trust the caller's change set, touch nothing else.
      for (const NodeId v : *changed)
        if (resized(v)) mark_changed(v);
#ifndef NDEBUG
      // A hint that misses a resized vertex silently corrupts every later
      // report; cross-check the whole contract in debug builds.
      for (NodeId v = 0; v < net.num_vertices(); ++v)
        MFT_CHECK_MSG(!resized(v),
                      "run_sta changed-hint missed resized vertex " << v);
#endif
      ++scratch.hinted_runs;
    } else {
      for (NodeId v = 0; v < net.num_vertices(); ++v)
        if (resized(v)) mark_changed(v);
    }
    for (const int p : dirty) {
      scratch.report.delay_pos[static_cast<std::size_t>(p)] =
          pl.delay_at(p, scratch.sizes_pos);
      scratch.is_dirty[static_cast<std::size_t>(p)] = 0;
    }
    ++scratch.incremental_runs;
    scratch.delays_recomputed += static_cast<std::int64_t>(dirty.size());
  }
  return first;
}

// Shared body of the scratch overloads of run_sta: delays, then full
// sweeps (leaving the cp prefix a later arrival-only fold resumes from) and
// export.
const TimingReport& run_sta_incremental(const SizingNetwork& net,
                                        const std::vector<double>& sizes,
                                        TimingScratch& scratch,
                                        const std::vector<NodeId>* changed) {
  update_delays(net, sizes, scratch, changed);
  run_sweeps(net.plan(), scratch.rt_pos, scratch.cp_prefix, scratch.report);
  return scratch.report;
}

// Whether `r` carries required times covering vertex `v`: false on an
// arrival-only or empty report.
bool has_rt(const TimingReport& r, NodeId v) {
  return r.rt.size() == r.delay_pos.size() && v >= 0 &&
         static_cast<std::size_t>(v) < r.rt.size();
}
}  // namespace

TimingReport run_sta(const SizingNetwork& net, const std::vector<double>& sizes) {
  MFT_CHECK(net.frozen());
  MFT_CHECK(static_cast<int>(sizes.size()) == net.num_vertices());
  const SweepPlan& pl = net.plan();
  TimingReport r;
  std::vector<double> sizes_pos, rt_pos;
  std::vector<int> cp_prefix;
  pl.gather(sizes, sizes_pos);
  full_delay_pos(pl, sizes_pos, r.delay_pos);
  run_sweeps(pl, rt_pos, cp_prefix, r);
  return r;
}

const TimingReport& run_sta(const SizingNetwork& net,
                            const std::vector<double>& sizes,
                            TimingScratch& scratch) {
  return run_sta_incremental(net, sizes, scratch, nullptr);
}

const TimingReport& run_sta(const SizingNetwork& net,
                            const std::vector<double>& sizes,
                            TimingScratch& scratch,
                            const std::vector<NodeId>& changed) {
  return run_sta_incremental(net, sizes, scratch, &changed);
}

const TimingReport& run_arrivals(const SizingNetwork& net,
                                 const std::vector<double>& sizes,
                                 TimingScratch& scratch,
                                 const std::vector<NodeId>& changed) {
  const int start = update_delays(net, sizes, scratch, &changed);
  TimingReport& r = scratch.report;
  forward_fold(net.plan(), start, scratch.cp_prefix, r);
  r.delay.clear();
  r.at.clear();
  r.rt.clear();
  return r;
}

double TimingReport::slack(NodeId v) const {
  MFT_CHECK_MSG(has_rt(*this, v),
                "slack needs required times; an arrival-only report has "
                "none");
  return rt[static_cast<std::size_t>(v)] - at[static_cast<std::size_t>(v)];
}

double TimingReport::edge_slack(const SizingNetwork& net, ArcId a) const {
  const Digraph& g = net.dag();
  const NodeId i = g.tail(a);
  const NodeId j = g.head(a);
  MFT_CHECK_MSG(has_rt(*this, i) && has_rt(*this, j),
                "edge_slack needs required times; an arrival-only report "
                "has none");
  return rt[static_cast<std::size_t>(j)] - at[static_cast<std::size_t>(i)] -
         delay[static_cast<std::size_t>(i)];
}

std::vector<NodeId> TimingReport::critical_vertices(
    const SizingNetwork& net) const {
  const SweepPlan& pl = net.plan();
  MFT_CHECK_MSG(static_cast<int>(delay_pos.size()) == pl.n &&
                    at_pos.size() == delay_pos.size(),
                "critical_vertices needs a run_sta or run_arrivals report of "
                "this network");
  std::vector<NodeId> path;
  int p = cp_vertex == kInvalidNode
              ? -1
              : pl.pos_of[static_cast<std::size_t>(cp_vertex)];
  while (p >= 0) {
    const std::size_t pi = static_cast<std::size_t>(p);
    path.push_back(pl.vid[pi]);
    // Step to the max-(AT+delay) fanin: that maximum is exactly how AT(p)
    // was formed in the forward fold, so the comparison is exact, and
    // taking the argmax (lowest vertex id on ties) makes the walk
    // deterministic.
    int next = -1;
    double best = -kInf;
    for (int k = pl.fanin_off[pi]; k < pl.fanin_off[pi + 1]; ++k) {
      const int j = pl.fanin_pos[static_cast<std::size_t>(k)];
      const std::size_t ji = static_cast<std::size_t>(j);
      const double end = at_pos[ji] + delay_pos[ji];
      if (end > best) {
        best = end;
        next = j;
      } else if (end == best && next >= 0 &&
                 pl.vid[ji] < pl.vid[static_cast<std::size_t>(next)]) {
        next = j;
      }
    }
    if (next >= 0 && best != at_pos[pi])
      next = -1;  // AT came from the source floor, not a fanin
    p = next;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

bool TimingReport::safe(const SizingNetwork& net, double tol) const {
  for (NodeId v = 0; v < net.num_vertices(); ++v)
    if (slack(v) < -tol) return false;
  for (ArcId a = 0; a < net.dag().num_arcs(); ++a)
    if (edge_slack(net, a) < -tol) return false;
  return true;
}

}  // namespace mft
