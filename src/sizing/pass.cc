#include "sizing/pass.h"

#include <algorithm>

#include "util/abort.h"
#include "util/stopwatch.h"

namespace mft {

void OptimizerPass::begin(SizingContext&, PipelineState&) {}

// ---------------------------------------------------------------------------
// TilosPass
// ---------------------------------------------------------------------------

TilosPass::TilosPass(const TilosOptions& opt) : opt_(opt) {}

PassStatus TilosPass::run(SizingContext& ctx, PipelineState& s) {
  Stopwatch sw;
  TilosOptions opt = opt_;
  if (opt.pins == nullptr) opt.pins = ctx.pins();
  s.initial = run_tilos(ctx.net(), s.target_delay, opt, nullptr, ctx.abort());
  s.tilos_seconds = sw.seconds();
  s.sizes = s.initial.sizes;
  s.best_sizes = s.initial.sizes;
  s.best_area = s.initial.area;
  s.met_target = s.initial.met_target;
  // Target unreachable: report the TILOS attempt unrefined.
  return s.met_target ? PassStatus::kDone : PassStatus::kAbort;
}

// ---------------------------------------------------------------------------
// WPhasePass
// ---------------------------------------------------------------------------

PassStatus WPhasePass::run(SizingContext& ctx, PipelineState& s) {
  const SizingNetwork& net = ctx.net();
  // W-phase at unchanged budgets: identity on interior points, but
  // canonicalizes min-clamped vertices onto the SMP fixpoint so later
  // D-phase linearizations start from a consistent point. All *area*
  // improvement comes from the D-phase budget moves. Warm-started from the
  // current iterate — which already satisfies these budgets, so the sweeps
  // only have to settle the min-clamped vertices.
  const TimingReport& t0 = ctx.sta(s.sizes);
  const WPhaseResult w0 = solve_wphase(net, t0.delay, s.sizes, nullptr,
                                       ctx.abort(), false, ctx.pins());
  s.wphase_sweeps += w0.sweeps;
  if (w0.feasible) {
    const double area0 = net.area(w0.sizes);
    if (ctx.sta(w0.sizes).critical_path <= s.target_delay * (1.0 + 1e-9) &&
        area0 <= s.best_area) {
      s.sizes = w0.sizes;
      s.best_sizes = s.sizes;
      s.best_area = area0;
    }
  }
  return PassStatus::kDone;
}

// ---------------------------------------------------------------------------
// DPhasePass
// ---------------------------------------------------------------------------

DPhasePass::DPhasePass(const DPhaseOptions& opt) : opt_(opt) {}

void DPhasePass::begin(SizingContext&, PipelineState& s) {
  s.beta = opt_.beta;
  s.backoffs = 0;
  s.stagnant = 0;
  // The context scratch last timed whatever ran before this pass, maybe an
  // earlier job: the first iteration finds the difference by scan.
  s.sizes_timed = false;
}

PassStatus DPhasePass::run(SizingContext& ctx, PipelineState& s) {
  const SizingNetwork& net = ctx.net();
  DPhaseOptions dopt = opt_;
  dopt.beta = s.beta;
  const std::vector<NodeId> none_changed;
  const DPhaseResult d = run_dphase(net, s.sizes, dopt, &ctx.dphase(),
                                    s.sizes_timed ? &none_changed : nullptr);
  if (!d.solved) return PassStatus::kDone;
  const WPhaseResult w = solve_wphase(net, d.budget, s.sizes, nullptr,
                                      ctx.abort(), false, ctx.pins());
  s.wphase_sweeps += w.sweeps;
  const TimingReport& timing = ctx.sta(w.sizes);
  const double area = net.area(w.sizes);
  const bool ok = w.feasible &&
                  timing.critical_path <= s.target_delay * (1.0 + 1e-9) &&
                  area <= s.best_area * (1.0 + 1e-9);
  // The scratch now holds w.sizes, which become s.sizes only if accepted.
  s.sizes_timed = ok;
  if (!ok) {
    // Linearization overstepped (timing broke or area regressed):
    // re-anchor at the best solution, shrink the trust region, retry.
    if (++s.backoffs > kMaxBetaBackoffs) return PassStatus::kDone;
    s.beta *= 0.5;
    s.sizes = s.best_sizes;
    return PassStatus::kRepeat;
  }
  s.backoffs = 0;
  s.sizes = w.sizes;
  s.iterations.push_back(
      IterationLog{area, timing.critical_path, d.objective, s.beta});
  const double improvement = (s.best_area - area) / s.best_area;
  if (area < s.best_area) {
    s.best_area = area;
    s.best_sizes = s.sizes;
  }
  if (improvement < kRelImprovementStop) {
    if (++s.stagnant >= kStagnationPatience) return PassStatus::kDone;
  } else {
    s.stagnant = 0;
  }
  return PassStatus::kRepeat;
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

Pipeline& Pipeline::add(std::unique_ptr<OptimizerPass> pass, int max_repeats) {
  MFT_CHECK(pass != nullptr);
  MFT_CHECK(max_repeats >= 0);
  entries_.push_back(Entry{std::move(pass), max_repeats});
  return *this;
}

const std::string& Pipeline::pass_name(int i) const {
  return entries_[static_cast<std::size_t>(i)].pass->name();
}

PipelineResult Pipeline::run(SizingContext& ctx, double target_delay,
                             std::uint64_t seed) const {
  Stopwatch total;
  PipelineResult out;
  PipelineState& s = out.state;
  s.target_delay = target_delay;
  s.seed = seed;
  out.pass_stats.reserve(entries_.size());

  AbortToken* tok = ctx.abort();
  bool aborted = false;
  for (const Entry& e : entries_) {
    PassStats stats;
    stats.name = e.pass->name();
    if (!aborted && e.max_repeats > 0) {
      e.pass->begin(ctx, s);
      for (int rep = 0; rep < e.max_repeats; ++rep) {
        // Pass-granularity checkpoint: once the token trips, stop invoking
        // passes and surface the best-so-far state.
        if (tok != nullptr && tok->step()) {
          aborted = true;
          break;
        }
        Stopwatch sw;
        const PassStatus st = e.pass->run(ctx, s);
        stats.seconds += sw.seconds();
        ++stats.invocations;
        stats.sweeps += s.wphase_sweeps;
        s.wphase_sweeps = 0;
        if (st == PassStatus::kAbort) aborted = true;
        if (st != PassStatus::kRepeat) break;
      }
    }
    out.pass_stats.push_back(std::move(stats));
  }
  if (tok != nullptr) s.abort_status = tok->tripped();
  out.total_seconds = total.seconds();
  return out;
}

Pipeline make_minflotransit_pipeline(const MinflotransitOptions& opt) {
  Pipeline p;
  p.add(std::make_unique<TilosPass>(opt.tilos));
  p.add(std::make_unique<WPhasePass>());
  p.add(std::make_unique<DPhasePass>(opt.dphase), opt.max_iterations);
  return p;
}

MinflotransitResult to_minflotransit_result(SizingContext& ctx,
                                            const PipelineResult& r) {
  MinflotransitResult res;
  res.initial = r.state.initial;
  res.met_target = r.state.met_target;
  res.tilos_seconds = r.state.tilos_seconds;
  res.total_seconds = r.total_seconds;
  res.iterations = r.state.iterations;
  if (!res.met_target) {
    // Matches the legacy early return: the TILOS attempt, unrefined.
    res.sizes = r.state.initial.sizes;
    res.area = r.state.initial.area;
    res.delay = r.state.initial.achieved_delay;
    return res;
  }
  res.sizes = r.state.best_sizes;
  res.area = r.state.best_area;
  res.delay = ctx.sta(res.sizes).critical_path;
  return res;
}

}  // namespace mft
