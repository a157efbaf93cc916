#include "sizing/shard.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sizing/context.h"
#include "util/abort.h"
#include "util/fault.h"
#include "util/stopwatch.h"
#include "util/str.h"

namespace mft {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// A shard is re-solved when its span budget or any frozen boundary size
/// moved by more than this relative tolerance.
constexpr double kRebudgetTol = 0.01;
/// Floor on a shard's share of the delay target, as a fraction of the
/// target (protects degenerate shards from a zero budget).
constexpr double kMinSpanFrac = 0.02;

/// Per-boundary crossing width (arcs + load terms spanning the boundary),
/// indexed by cut level c in [0, L]: an edge with endpoint levels lo < hi
/// crosses every boundary c with lo < c <= hi.
std::vector<int> crossing_widths(const SizingNetwork& net) {
  const int levels = net.num_levels();
  const auto& level_of = net.level_of();
  std::vector<int> diff(static_cast<std::size_t>(levels) + 2, 0);
  auto span = [&](NodeId a, NodeId b) {
    const int la = level_of[static_cast<std::size_t>(a)];
    const int lb = level_of[static_cast<std::size_t>(b)];
    const int lo = std::min(la, lb);
    const int hi = std::max(la, lb);
    ++diff[static_cast<std::size_t>(lo) + 1];
    --diff[static_cast<std::size_t>(hi) + 1];
  };
  const Digraph& g = net.dag();
  for (ArcId a = 0; a < g.num_arcs(); ++a) span(g.tail(a), g.head(a));
  for (NodeId v = 0; v < net.num_vertices(); ++v)
    for (const LoadTerm& t : net.vertex(v).loads) span(v, t.vertex);
  std::vector<int> width(static_cast<std::size_t>(levels) + 1, 0);
  int acc = 0;
  for (int c = 0; c <= levels; ++c) {
    acc += diff[static_cast<std::size_t>(c)];
    width[static_cast<std::size_t>(c)] = acc;
  }
  return width;
}

/// Per-shard span usage under a timing report: the (floored) increments of
/// the running-max arrival profile max(AT+delay) taken shard by shard.
/// Used both for the initial budgets (begin) and for reconciliation
/// re-budgeting, so the accounting cannot drift between the two.
std::vector<double> shard_usage(const ShardPartition& part,
                                const TimingReport& t, double floor) {
  const int k = part.num_shards();
  std::vector<double> endmax(static_cast<std::size_t>(k), 0.0);
  for (NodeId v = 0; v < static_cast<NodeId>(part.shard_of.size()); ++v) {
    const int sh = part.shard_of[static_cast<std::size_t>(v)];
    endmax[static_cast<std::size_t>(sh)] =
        std::max(endmax[static_cast<std::size_t>(sh)],
                 t.at[static_cast<std::size_t>(v)] +
                     t.delay[static_cast<std::size_t>(v)]);
  }
  std::vector<double> usage(static_cast<std::size_t>(k), 0.0);
  double prev = 0.0, run_max = 0.0;
  for (int sh = 0; sh < k; ++sh) {
    run_max = std::max(run_max, endmax[static_cast<std::size_t>(sh)]);
    usage[static_cast<std::size_t>(sh)] = std::max(run_max - prev, floor);
    prev = run_max;
  }
  return usage;
}

}  // namespace

ShardPartition partition_levels(const SizingNetwork& net, int num_shards) {
  MFT_CHECK(net.frozen());
  MFT_CHECK(num_shards >= 1);
  const int levels = net.num_levels();
  const int n = net.num_vertices();
  const auto& off = net.level_offsets();

  ShardPartition part;
  const int k = std::max(1, std::min(num_shards, levels));

  // Sizeable vertices per level prefix: a band with none cannot be sized.
  std::vector<int> sizeable_prefix(static_cast<std::size_t>(levels) + 1, 0);
  {
    const auto& order = net.level_order();
    for (int l = 0; l < levels; ++l) {
      int cnt = 0;
      for (int i = off[static_cast<std::size_t>(l)];
           i < off[static_cast<std::size_t>(l) + 1]; ++i)
        if (!net.is_source(order[static_cast<std::size_t>(i)])) ++cnt;
      sizeable_prefix[static_cast<std::size_t>(l) + 1] =
          sizeable_prefix[static_cast<std::size_t>(l)] + cnt;
    }
  }

  const std::vector<int> width = crossing_widths(net);
  part.cut_levels.push_back(0);
  // Place each interior cut near the equal-vertex split, picking within a
  // window the boundary with the fewest crossing couplings (ties: closest
  // to the ideal split, then lower). Only *feasible* boundaries are
  // candidates: the band being closed and everything after the cut must
  // both keep at least one sizeable vertex — otherwise the width
  // minimization would happily close an all-source band (level 0) or snap
  // onto the empty after-end boundary (c == levels, width identically 0)
  // and silently collapse the shard count.
  const int window = std::max(1, levels / (4 * k));
  for (int s = 1; s < k; ++s) {
    const int ideal_count = static_cast<int>(
        static_cast<long long>(n) * s / k);
    // First level boundary whose cumulative vertex count reaches the ideal.
    int ideal = static_cast<int>(
        std::lower_bound(off.begin() + 1, off.end(), ideal_count) -
        off.begin());
    const int prev_cut = part.cut_levels.back();
    const int lo_bound = prev_cut + 1;
    // Leave at least one level for each of the k-s bands after this cut.
    const int hi_bound = levels - (k - s);
    ideal = std::max(lo_bound, std::min(ideal, hi_bound));
    int best = -1;
    bool best_in_window = false;
    for (int c = lo_bound; c <= hi_bound; ++c) {
      if (sizeable_prefix[static_cast<std::size_t>(c)] ==
              sizeable_prefix[static_cast<std::size_t>(prev_cut)] ||
          sizeable_prefix[static_cast<std::size_t>(levels)] ==
              sizeable_prefix[static_cast<std::size_t>(c)])
        continue;  // would close or leave a band with nothing to size
      const bool in_window = std::abs(c - ideal) <= window;
      if (best < 0) {
        best = c;
        best_in_window = in_window;
        continue;
      }
      if (in_window != best_in_window) {
        if (in_window) {  // in-window candidates always beat out-of-window
          best = c;
          best_in_window = true;
        }
        continue;
      }
      const int wc = width[static_cast<std::size_t>(c)];
      const int wb = width[static_cast<std::size_t>(best)];
      if (in_window ? (wc < wb || (wc == wb && std::abs(c - ideal) <
                                                   std::abs(best - ideal)))
                    : std::abs(c - ideal) < std::abs(best - ideal))
        best = c;
    }
    if (best < 0) break;  // no feasible boundary left: fewer shards
    part.cut_levels.push_back(best);
  }
  part.cut_levels.push_back(levels);
  // Every band owns a sizeable vertex by construction: each placed cut
  // passed the feasibility filter for both the band it closes and the
  // remainder (asserted across lowerings by tests/shard_test.cc).

  const int shards = static_cast<int>(part.cut_levels.size()) - 1;
  part.shard_of.assign(static_cast<std::size_t>(n), 0);
  part.vertices.resize(static_cast<std::size_t>(shards));
  const auto& level_of = net.level_of();
  for (NodeId v = 0; v < n; ++v) {
    const int l = level_of[static_cast<std::size_t>(v)];
    const int sh = static_cast<int>(
        std::upper_bound(part.cut_levels.begin() + 1, part.cut_levels.end(),
                         l) -
        (part.cut_levels.begin() + 1));
    part.shard_of[static_cast<std::size_t>(v)] = sh;
    part.vertices[static_cast<std::size_t>(sh)].push_back(v);
  }
  for (std::size_t s = 1; s + 1 < part.cut_levels.size(); ++s)
    part.cut_width.push_back(
        width[static_cast<std::size_t>(part.cut_levels[s])]);
  return part;
}

ShardNetwork build_shard_network(const SizingNetwork& net,
                                 const ShardPartition& part, int shard,
                                 const std::vector<double>& frozen_sizes) {
  MFT_FAULT_POINT("shard.extract");
  MFT_CHECK(shard >= 0 && shard < part.num_shards());
  MFT_CHECK(static_cast<int>(frozen_sizes.size()) == net.num_vertices());
  const std::vector<NodeId>& owned =
      part.vertices[static_cast<std::size_t>(shard)];

  ShardNetwork out;
  out.net = std::make_unique<SizingNetwork>(net.tech());
  out.num_owned = static_cast<int>(owned.size());
  std::vector<NodeId> local(static_cast<std::size_t>(net.num_vertices()),
                            kInvalidNode);
  for (const NodeId gv : owned) {
    SizingVertex v = net.vertex(gv);
    v.loads.clear();  // translated below via add_load / add_b
    local[static_cast<std::size_t>(gv)] =
        out.net->add_vertex(std::move(v), net.name(gv));
    out.global_of_local.push_back(gv);
  }
  auto is_owned = [&](NodeId gv) {
    return part.shard_of[static_cast<std::size_t>(gv)] == shard;
  };

  // Replica sources for boundary inputs, created in ascending global id
  // order (deterministic local ids).
  const Digraph& g = net.dag();
  std::vector<char> needs_replica(
      static_cast<std::size_t>(net.num_vertices()), 0);
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const NodeId u = g.tail(a);
    const NodeId v = g.head(a);
    if (is_owned(v) && !is_owned(u))
      needs_replica[static_cast<std::size_t>(u)] = 1;
  }
  for (NodeId gv = 0; gv < net.num_vertices(); ++gv) {
    if (!needs_replica[static_cast<std::size_t>(gv)]) continue;
    SizingVertex src;
    src.kind = VertexKind::kSource;
    local[static_cast<std::size_t>(gv)] =
        out.net->add_vertex(std::move(src), net.name(gv) + "@cut");
    out.global_of_local.push_back(gv);
  }

  // Arcs, in global arc order: internal arcs copied, inbound arcs re-rooted
  // at the replica source, outbound arcs dropped with the driver marked as
  // a frozen required-time endpoint at the cut.
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const NodeId u = g.tail(a);
    const NodeId v = g.head(a);
    if (is_owned(v)) {
      out.net->add_arc(local[static_cast<std::size_t>(u)],
                       local[static_cast<std::size_t>(v)]);
    } else if (is_owned(u)) {
      out.net->set_po(local[static_cast<std::size_t>(u)], true);
    }
  }

  // Load terms: internal ones copied, crossing ones folded into b at the
  // frozen neighbor size.
  std::vector<char> frozen_seen(static_cast<std::size_t>(net.num_vertices()),
                                0);
  for (const NodeId gv : owned) {
    for (const LoadTerm& t : net.vertex(gv).loads) {
      if (is_owned(t.vertex)) {
        out.net->add_load(local[static_cast<std::size_t>(gv)],
                          local[static_cast<std::size_t>(t.vertex)], t.coeff);
      } else {
        out.net->add_b(local[static_cast<std::size_t>(gv)],
                       t.coeff *
                           frozen_sizes[static_cast<std::size_t>(t.vertex)]);
        frozen_seen[static_cast<std::size_t>(t.vertex)] = 1;
      }
    }
  }
  for (NodeId gv = 0; gv < net.num_vertices(); ++gv)
    if (frozen_seen[static_cast<std::size_t>(gv)])
      out.frozen_loads.push_back(gv);

  out.net->freeze();
  return out;
}

// ---------------------------------------------------------------------------
// ShardReconcilePass
// ---------------------------------------------------------------------------

struct ShardReconcilePass::ShardState {
  ShardNetwork net;            ///< rebuilt whenever the shard is re-solved
  std::vector<double> frozen;  ///< frozen_loads sizes at the last build
  std::vector<double> sizes;   ///< last shard-local solution
  double span = 0.0;           ///< current boundary budget
  double solved_span = -1.0;   ///< span of the last solve
  bool dirty = true;
};

ShardReconcilePass::ShardReconcilePass(const ShardOptions& opt) : opt_(opt) {
  MFT_CHECK(opt_.num_shards >= 1);
  MFT_CHECK(opt_.max_rounds >= 1);
}

ShardReconcilePass::~ShardReconcilePass() = default;

void ShardReconcilePass::begin(SizingContext& ctx, PipelineState& s) {
  const SizingNetwork& net = ctx.net();
  MFT_CHECK(net.num_sizeable() > 0);
  // Join any previous run's pool before its shard networks are replaced.
  stream_.reset();
  part_ = partition_levels(net, opt_.num_shards);
  cuts_ = part_.cut_levels;
  shards_.clear();
  shards_.resize(static_cast<std::size_t>(part_.num_shards()));
  rounds_.clear();
  first_stitch_ = TilosResult{};
  round_ = 0;
  shard_jobs_ = 0;
  shard_retries_ = 0;
  shard_failures_ = 0;
  progress_done_ = 0;
  reconcile_seconds_ = 0.0;
  converged_ = false;
  best_unmet_cp_ = kInf;

  // One persistent streaming pool for every round of this run, recreated
  // so tickets (and the seeds derived from them) restart at 0. Rebuilt
  // dirty shard networks carry fresh serials each round, so an unbounded
  // context pool would grow by one dead context per shard job; promote
  // the unset limit to the shard count (an explicit limit is honored).
  JobRunnerOptions ropt = opt_.runner;
  if (ropt.context_cache_limit == 0 && part_.num_shards() > 1)
    ropt.context_cache_limit = part_.num_shards();
  // Worker-side transient failures (a faulted flow solve, a dead worker)
  // ride the engine's generic retry policy — same ticket, same seed, one
  // extra attempt — instead of the old hand-rolled resubmit; an explicit
  // caller policy is honored. Extraction faults are coordinator-side and
  // retried at submit time below.
  if (ropt.retry.max_attempts <= 1) ropt.retry.max_attempts = 2;
  stream_ = std::make_unique<StreamingRunner>(ropt);

  // Initial boundary budgets from the min-sized arrival profile: shard s
  // gets the target in proportion to the time depth its band adds at
  // minimum sizes (floored so no shard starts with a degenerate budget).
  s.sizes = net.min_sizes();
  s.best_area = kInf;
  s.met_target = false;
  const int k = part_.num_shards();
  if (k == 1) {
    // Monolithic passthrough: the span is the target *exactly* (a
    // profile-proportional (target*raw)/raw can be 1 ulp off in IEEE
    // double, silently breaking the bit-identity contract), and the
    // min-sized STA that exists only to apportion it is skipped.
    shards_[0].span = s.target_delay;
    shards_[0].dirty = true;
    return;
  }
  const TimingReport& t = ctx.sta(s.sizes);
  const std::vector<double> raw =
      shard_usage(part_, t, kMinSpanFrac * s.target_delay);
  double total = 0.0;
  for (const double r : raw) total += r;
  for (int sh = 0; sh < k; ++sh) {
    shards_[static_cast<std::size_t>(sh)].span =
        s.target_delay * raw[static_cast<std::size_t>(sh)] / total;
    shards_[static_cast<std::size_t>(sh)].dirty = true;
  }
}

void ShardReconcilePass::rebudget(const SizingNetwork& net,
                                  const TimingReport& t,
                                  const std::vector<double>& sizes,
                                  double target) {
  const int k = part_.num_shards();
  const double cp = t.critical_path;
  const std::vector<double> usage =
      shard_usage(part_, t, kMinSpanFrac * target);
  double total_usage = 0.0;
  for (const double u : usage) total_usage += u;

  std::vector<double> next(static_cast<std::size_t>(k), 0.0);
  if (cp > target) {
    // Infeasible stitch: tighten every span proportionally so the budgets
    // sum back to the target, and re-solve every shard — a marginal miss
    // moves each span by less than the dirt tolerance, but feasibility
    // must never be declared converged away.
    for (int sh = 0; sh < k; ++sh) {
      next[static_cast<std::size_t>(sh)] =
          target * usage[static_cast<std::size_t>(sh)] / total_usage;
      shards_[static_cast<std::size_t>(sh)].span =
          next[static_cast<std::size_t>(sh)];
      shards_[static_cast<std::size_t>(sh)].dirty = true;
    }
    return;
  }
  {
    // Feasible: the gap target − CP is path-skew slack the frozen
    // boundaries could not see. Hand it to the shards weighted by their
    // eq. (7) area-delay sensitivity Σ C_i — extra budget buys the most
    // area where the sensitivity is largest (the D-phase objective at
    // shard granularity).
    const std::vector<double> weights = net.area_delay_weights(sizes);
    std::vector<double> w(static_cast<std::size_t>(k), 0.0);
    double wsum = 0.0;
    for (NodeId v = 0; v < net.num_vertices(); ++v) {
      const int sh = part_.shard_of[static_cast<std::size_t>(v)];
      w[static_cast<std::size_t>(sh)] +=
          weights[static_cast<std::size_t>(v)];
      wsum += weights[static_cast<std::size_t>(v)];
    }
    const double slack = target - cp;
    double total_next = 0.0;
    for (int sh = 0; sh < k; ++sh) {
      next[static_cast<std::size_t>(sh)] =
          usage[static_cast<std::size_t>(sh)] +
          (wsum > 0.0 ? slack * w[static_cast<std::size_t>(sh)] / wsum : 0.0);
      total_next += next[static_cast<std::size_t>(sh)];
    }
    // The min_span floor can inflate Σ usage past CP, which would push
    // Σ next past the target and ping-pong the next stitch into the
    // infeasible branch; renormalize so the spans always sum to the
    // target exactly (a no-op when no floor was binding).
    if (total_next > 0.0)
      for (int sh = 0; sh < k; ++sh)
        next[static_cast<std::size_t>(sh)] *= target / total_next;
  }

  for (int sh = 0; sh < k; ++sh) {
    ShardState& st = shards_[static_cast<std::size_t>(sh)];
    st.span = next[static_cast<std::size_t>(sh)];
    const double ref = std::max(st.solved_span, 1e-12);
    if (std::abs(st.span - st.solved_span) > kRebudgetTol * ref) {
      st.dirty = true;
      continue;
    }
    // Boundary coupling drift: the shard solved against frozen neighbor
    // sizes; if those moved materially, its folded b terms are stale.
    const std::vector<NodeId>& fl = st.net.frozen_loads;
    for (std::size_t i = 0; i < fl.size(); ++i) {
      const double now = sizes[static_cast<std::size_t>(fl[i])];
      const double then = st.frozen[i];
      if (std::abs(now - then) > kRebudgetTol * std::max(then, 1e-12)) {
        st.dirty = true;
        break;
      }
    }
  }
}

PassStatus ShardReconcilePass::run(SizingContext& ctx, PipelineState& s) {
  const SizingNetwork& net = ctx.net();
  const double target = s.target_delay;
  const int k = part_.num_shards();
  ++round_;

  std::vector<int> dirty;
  for (int sh = 0; sh < k; ++sh)
    if (shards_[static_cast<std::size_t>(sh)].dirty) dirty.push_back(sh);
  if (dirty.empty()) {
    converged_ = true;
    return PassStatus::kDone;
  }

  // Rebuild dirty shards at the current stitched sizes and stream each
  // job out the moment its network is built — the first shard is already
  // solving on a worker while the coordinator is still extracting the
  // next (K == 1 passes the original network straight through — the
  // bit-identity contract with the monolithic pipeline). The per-shard
  // dmin facts are resolved lazily on the workers, in parallel, instead
  // of serializing on this thread the way the batch API did.
  Stopwatch round_sw;
  const int round_total = shard_jobs_ + static_cast<int>(dirty.size());

  // Inner-thread core budget for the round, mirroring the batch policy
  // the wave path applied: a forced JobRunnerOptions::inner_threads or
  // MFT_INNER_THREADS value is left to the streaming runner's own
  // fallback; otherwise every dirty shard gets one core and leftover pool
  // capacity is round-robined onto the largest bands (owned-vertex count
  // — known before extraction, unlike the built networks). Pure function
  // of the dirty set; inner width never changes results.
  std::vector<int> inner(dirty.size(), 0);
  if (opt_.runner.inner_threads == 0 && env_inner_threads() == 0) {
    inner.assign(dirty.size(), 1);
    std::vector<std::size_t> widest(dirty.size());
    for (std::size_t i = 0; i < dirty.size(); ++i) widest[i] = i;
    std::stable_sort(widest.begin(), widest.end(),
                     [&](std::size_t a, std::size_t b) {
                       return part_.vertices[static_cast<std::size_t>(
                                                 dirty[a])].size() >
                              part_.vertices[static_cast<std::size_t>(
                                                 dirty[b])].size();
                     });
    int leftover = stream_->threads() - static_cast<int>(dirty.size());
    for (std::size_t i = 0; leftover > 0;
         i = (i + 1) % dirty.size(), --leftover)
      ++inner[widest[i]];
  }

  // Builds shard sh's job network at the current stitched sizes (the
  // original network for K == 1) and records the frozen boundary
  // snapshot. Throws when an armed "shard.extract" fault fires.
  auto rebuild = [&](int sh) -> const SizingNetwork* {
    ShardState& st = shards_[static_cast<std::size_t>(sh)];
    if (k == 1) return &net;
    st.net = build_shard_network(net, part_, sh, s.sizes);
    st.frozen.clear();
    for (const NodeId gv : st.net.frozen_loads)
      st.frozen.push_back(s.sizes[static_cast<std::size_t>(gv)]);
    return st.net.net.get();
  };
  auto make_job = [&](int sh, int width, const char* suffix) {
    SizingJob job;
    job.inner_threads = width;
    const ShardState& st = shards_[static_cast<std::size_t>(sh)];
    job.target_delay =
        k > 1 ? st.span * (1.0 - kShardBoundaryMargin) : st.span;
    job.options = opt_.options;
    job.label = strf("shard%d@r%d%s", sh, round_, suffix);
    job.shard = sh;
    job.shard_round = round_;
    return job;
  };

  std::vector<JobTicket> tickets(dirty.size(), 0);
  std::vector<char> submitted(dirty.size(), 0);
  std::vector<std::string> extract_error(dirty.size());
  int retried = 0, failed = 0;
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const int sh = dirty[i];
    const SizingNetwork* job_net = nullptr;
    try {
      job_net = rebuild(sh);
    } catch (const std::exception&) {
      // Extraction failed: retry once on a fresh build, right here — the
      // coordinator-side twin of the engine's worker-side retry policy.
      ++retried;
      ++shard_retries_;
      try {
        job_net = rebuild(sh);
      } catch (const std::exception& e) {
        // Double extraction failure: the slot stays unsubmitted and the
        // consume loop folds the shard's band back.
        extract_error[i] = e.what();
        continue;
      }
    }
    std::function<void(const JobResult&)> on_complete;
    if (opt_.runner.progress)
      on_complete = [this, round_total](const JobResult& r) {
        // Serialized by the runner's callback lock; jobs of a round all
        // complete before the next round submits, so the count is
        // monotone in [1, round_total] within each round (retry jobs are
        // not counted — round_total is the no-failure job count).
        opt_.runner.progress(r, ++progress_done_, round_total);
      };
    tickets[i] = stream_->submit(*job_net, make_job(sh, inner[i], ""),
                                 std::move(on_complete));
    submitted[i] = 1;
  }
  shard_jobs_ = round_total;

  // Consume in ticket order — deterministic at any worker count — and
  // stitch each solution into the global iterate as it is claimed, while
  // the round's stragglers are still running. (Clean shards keep the
  // stitched values of the round that last solved them.) Transient
  // worker-side failures were already retried by the engine's policy
  // (JobResult::attempts > 1 says how often); extraction faults got one
  // fresh rebuild at submit. A shard that exhausted both keeps its
  // previous stitched band (min sizes in round 1) and stays dirty: the
  // band folds back into the stitched STA and the monolithic re-budget,
  // degrading the round instead of aborting the solve. The pipeline's
  // round cap then guarantees feasible-or-error termination.
  JobResult first;  // K == 1: the single job's full result, kept verbatim
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const int sh = dirty[i];
    ShardState& st = shards_[static_cast<std::size_t>(sh)];
    JobResult r;
    if (submitted[i]) {
      r = stream_->wait(tickets[i]);
      if (r.attempts > 1) {
        ++retried;
        shard_retries_ += r.attempts - 1;
      }
    } else {
      r.label = strf("shard%d@r%d", sh, round_);
      r.error = extract_error[i];
    }
    if (!r.ok) {
      ++failed;
      ++shard_failures_;
      if (k == 1) {
        // The passthrough job *is* the monolithic solve: nothing to fold
        // back into. Cancel any stragglers before unwinding frees state.
        stream_->shutdown(StreamingRunner::ShutdownMode::kCancel);
        throw EngineError(
            EngineStatus::kShardFailed,
            "shard job " + r.label + " failed after retry: " + r.error);
      }
      st.dirty = true;
      st.solved_span = -1.0;  // force a re-solve next round
      continue;
    }
    st.sizes = r.result.sizes;
    st.solved_span = st.span;
    st.dirty = false;
    if (round_ == 1) s.tilos_seconds += r.result.tilos_seconds;
    if (k > 1) {
      for (int l = 0; l < st.net.num_owned; ++l)
        s.sizes[static_cast<std::size_t>(
            st.net.global_of_local[static_cast<std::size_t>(l)])] =
            st.sizes[static_cast<std::size_t>(l)];
    } else {
      first = std::move(r);
    }
  }
  shard_jobs_ += retried;
  const double round_seconds = round_sw.seconds();

  // K == 1: the single job *is* the monolithic pipeline — forward its
  // result verbatim (including the true TILOS seed and D/W iteration log)
  // so the bit-identity contract covers the whole result shape, not just
  // the final sizes.
  if (k == 1) {
    const MinflotransitResult& inner = first.result;
    s.sizes = inner.sizes;
    s.initial = inner.initial;
    s.iterations = inner.iterations;
    s.met_target = inner.met_target;
    if (inner.met_target) {
      s.best_sizes = inner.sizes;
      s.best_area = inner.area;
    }
    ShardRound rr;
    // The inner pipeline already timed its own solution; no extra STA.
    rr.critical_path = inner.delay;
    rr.area = inner.area;
    rr.met_target = inner.met_target;
    rr.shards_solved = 1;
    rr.shards_retried = retried;
    rr.wall_seconds = round_seconds;
    rr.spans.push_back(shards_[0].solved_span);
    rounds_.push_back(std::move(rr));
    converged_ = true;
    return PassStatus::kDone;
  }

  // The surviving barrier: the stitched full-network STA and the span
  // re-budget need every shard of the round.
  Stopwatch reconcile_sw;
  const TimingReport& t = ctx.sta(s.sizes);
  const double cp = t.critical_path;
  const double area = net.area(s.sizes);
  const bool met = cp <= target * (1.0 + 1e-9);

  ShardRound rr;
  rr.critical_path = cp;
  rr.area = area;
  rr.met_target = met;
  rr.shards_solved = static_cast<int>(dirty.size()) - failed;
  rr.shards_retried = retried;
  rr.shards_failed = failed;
  rr.wall_seconds = round_seconds;
  for (int sh = 0; sh < k; ++sh)
    rr.spans.push_back(shards_[static_cast<std::size_t>(sh)].solved_span);
  rounds_.push_back(std::move(rr));
  s.iterations.push_back(IterationLog{area, cp, 0.0, 0.0});

  if (round_ == 1) {
    // The first stitch plays the role of the TILOS seed in the result
    // shape: the baseline later rounds improve on.
    s.initial.sizes = s.sizes;
    s.initial.area = area;
    s.initial.achieved_delay = cp;
    s.initial.met_target = met;
    first_stitch_ = s.initial;
  }
  if (met) {
    if (!s.met_target) {
      // First feasible round: if unmet rounds overwrote `initial` with
      // their closest attempt, restore the documented round-1 baseline.
      s.initial = first_stitch_;
    }
    if (!s.met_target || area < s.best_area) {
      s.met_target = true;
      s.best_area = area;
      s.best_sizes = s.sizes;
    }
  } else if (!s.met_target && cp < best_unmet_cp_) {
    // Target never met so far: keep the closest attempt as the reported
    // solution (the monolithic solver reports its TILOS attempt the same
    // way).
    best_unmet_cp_ = cp;
    s.initial.sizes = s.sizes;
    s.initial.area = area;
    s.initial.achieved_delay = cp;
  }

  rebudget(net, t, s.sizes, target);
  const double reconcile = reconcile_sw.seconds();
  rounds_.back().reconcile_seconds = reconcile;
  reconcile_seconds_ += reconcile;
  bool any_dirty = false;
  for (const ShardState& st : shards_)
    if (st.dirty) any_dirty = true;
  if (!any_dirty) {
    converged_ = true;
    return PassStatus::kDone;
  }
  return PassStatus::kRepeat;
}

// ---------------------------------------------------------------------------
// run_sharded_solve
// ---------------------------------------------------------------------------

ShardSolveResult run_sharded_solve(const SizingNetwork& net,
                                   double target_delay,
                                   const ShardOptions& opt) {
  SizingContext ctx(net);
  // Solve-level deadline/step budget, observed at the pipeline's
  // round-granularity checkpoint. A disarmed token never changes results.
  AbortToken token;
  if (opt.deadline_seconds > 0) token.arm_deadline(opt.deadline_seconds);
  if (opt.max_steps > 0) token.arm_steps(opt.max_steps);
  ctx.set_abort(&token);
  auto pass = std::make_unique<ShardReconcilePass>(opt);
  ShardReconcilePass* p = pass.get();
  Pipeline pipe;
  pipe.add(std::move(pass), opt.max_rounds);
  const PipelineResult pr = pipe.run(ctx, target_delay, opt.options.seed);
  ctx.set_abort(nullptr);

  ShardSolveResult out;
  out.result = to_minflotransit_result(ctx, pr);
  out.num_shards = p->num_shards();
  out.cut_levels = p->cut_levels();
  out.rounds = p->rounds();
  out.shard_jobs = p->shard_jobs();
  out.reconcile_seconds = p->reconcile_seconds();
  out.converged = p->converged();
  out.shard_retries = p->shard_retries();
  out.shard_failures = p->shard_failures();
  if (pr.state.abort_status != EngineStatus::kOk) {
    out.status = pr.state.abort_status;
    out.degraded = pr.state.met_target;
  } else if (p->shard_failures() > 0 && !pr.state.met_target) {
    // Feasible-or-error: persistent shard failures with no feasible
    // stitch inside the round cap are an error, not a silent miss.
    throw EngineError(EngineStatus::kShardFailed,
                      strf("%d shard job(s) failed after retry and the "
                           "sharded solve never met its target",
                           p->shard_failures()));
  }
  return out;
}

}  // namespace mft
