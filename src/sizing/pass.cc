#include "sizing/pass.h"

#include "util/abort.h"
#include "util/stopwatch.h"

namespace mft {

namespace {

/// §2.4 step 1: TILOS seed from minimum sizes. Initializes sizes/best and
/// returns false when the target is unreachable.
bool tilos_step(SizingContext& ctx, TilosOptions opt, PipelineState& s) {
  Stopwatch sw;
  if (opt.pins == nullptr) opt.pins = ctx.pins();
  s.initial = run_tilos(ctx.net(), s.target_delay, opt, nullptr, ctx.abort());
  s.tilos_seconds = sw.seconds();
  s.sizes = s.initial.sizes;
  s.best_sizes = s.initial.sizes;
  s.best_area = s.initial.area;
  s.met_target = s.initial.met_target;
  // Target unreachable: report the TILOS attempt unrefined.
  return s.met_target;
}

/// W-phase at budgets equal to the current achieved delays: the identity on
/// interior points, but canonicalizes min-clamped vertices onto the SMP
/// fixpoint so D-phase linearizations start from a consistent point.
void wphase_step(SizingContext& ctx, PipelineState& s) {
  const SizingNetwork& net = ctx.net();
  // All *area* improvement comes from the D-phase budget moves.
  // Warm-started from the current iterate — which already satisfies these
  // budgets, so the sweeps only have to settle the min-clamped vertices.
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
}

}  // namespace

void begin_refinement(const DPhaseOptions& opt, PipelineState& s) {
  s.beta = opt.beta;
  s.backoffs = 0;
  s.stagnant = 0;
  // The context scratch last timed whatever ran before the refinement,
  // maybe an earlier job: the first iteration finds the difference by scan.
  s.sizes_timed = false;
}

bool refine_step(SizingContext& ctx, const DPhaseOptions& opt,
                 PipelineState& s) {
  const SizingNetwork& net = ctx.net();
  DPhaseOptions dopt = opt;
  dopt.beta = s.beta;
  const std::vector<NodeId> none_changed;
  const DPhaseResult d = run_dphase(net, s.sizes, dopt, &ctx.dphase(),
                                    s.sizes_timed ? &none_changed : nullptr);
  if (!d.solved) return false;
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
    if (++s.backoffs > kMaxBetaBackoffs) return false;
    s.beta *= 0.5;
    s.sizes = s.best_sizes;
    return true;
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
    if (++s.stagnant >= kStagnationPatience) return false;
  } else {
    s.stagnant = 0;
  }
  return true;
}

Pipeline::Pipeline(const MinflotransitOptions& opt) : opt_(opt) {
  MFT_CHECK(opt_.max_iterations >= 0);
}

PipelineResult Pipeline::run(SizingContext& ctx, double target_delay,
                             std::uint64_t seed) const {
  Stopwatch total;
  PipelineResult out;
  PipelineState& s = out.state;
  s.target_delay = target_delay;
  s.seed = seed;
  out.pass_stats = {{"tilos"}, {"wphase"}, {"dphase"}};

  // Step-granularity checkpoint: once the token trips, no later step runs
  // and the best-so-far state is surfaced.
  AbortToken* tok = ctx.abort();
  const auto tripped = [tok] { return tok != nullptr && tok->step(); };
  // Runs one step, which returns whether the loop goes on, and charges its
  // wall time and W-phase sweeps to `stats`.
  const auto timed = [&s](PassStats& stats, const auto& step) {
    Stopwatch sw;
    const bool more = step();
    stats.seconds += sw.seconds();
    ++stats.invocations;
    stats.sweeps += s.wphase_sweeps;
    s.wphase_sweeps = 0;
    return more;
  };
  bool go = !tripped() && timed(out.pass_stats[0], [&] {
    return tilos_step(ctx, opt_.tilos, s);
  });
  go = go && !tripped() && timed(out.pass_stats[1], [&] {
    wphase_step(ctx, s);
    return true;
  });
  if (go && opt_.max_iterations > 0) {
    begin_refinement(opt_.dphase, s);
    for (int i = 0; go && i < opt_.max_iterations; ++i)
      go = !tripped() && timed(out.pass_stats[2], [&] {
        return refine_step(ctx, opt_.dphase, s);
      });
  }
  if (tok != nullptr) s.abort_status = tok->tripped();
  out.total_seconds = total.seconds();
  return out;
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
