// Pass layer of the sizing engine: the MINFLOTRANSIT loop over a
// SizingContext.
//
// The paper's algorithm (§2.4) is one fixed loop: a TILOS seed from minimum
// sizes, one W-phase at the achieved delays, then alternating
// D-phase/W-phase refinement until the area gain is negligible.
// Pipeline::run is that loop. It reproduces the pre-refactor
// run_minflotransit *bit-identically* (asserted by tests/engine_test.cc
// against a verbatim copy of the old driver). The D/W iteration is also
// exposed on its own (begin_refinement / refine_step): the resize layer
// refines an already-feasible iterate with it, without a TILOS seed.
//
// Control flow: one AbortToken::step() before TILOS, one before the W-phase
// and one before each D/W iteration; an unreachable target or a tripped
// token skips every later step. Per-step instrumentation (invocations, wall
// seconds, W-phase sweeps) is collected into PipelineResult::pass_stats.
#pragma once

#include <string>
#include <vector>

#include "sizing/context.h"
#include "sizing/minflotransit.h"
#include "util/status.h"

namespace mft {

/// Mutable state threaded through the steps of one Pipeline::run().
struct PipelineState {
  double target_delay = 0.0;
  std::uint64_t seed = 0;  ///< deterministic per-job seed (engine layer)

  std::vector<double> sizes;       ///< current iterate
  std::vector<double> best_sizes;  ///< best feasible solution so far
  double best_area = 0.0;
  bool met_target = false;

  TilosResult initial;         ///< the TILOS seed solution
  double tilos_seconds = 0.0;  ///< wall time of the TILOS step

  /// Why the run was cut short, if the context's AbortToken tripped
  /// (kCanceled / kDeadlineExpired / kStepBudget); kOk on a full run. When
  /// not kOk, sizes/best_sizes hold the best-so-far iterate — feasible iff
  /// met_target, since every accepted move preserves the delay target.
  EngineStatus abort_status = EngineStatus::kOk;

  std::vector<IterationLog> iterations;  ///< accepted D/W iterations

  // D-phase trust-region machinery, (re)armed by begin_refinement.
  double beta = 0.0;
  int backoffs = 0;
  int stagnant = 0;

  /// True when the context's timing scratch last timed exactly `sizes`:
  /// set when a D/W iteration is accepted (its acceptance STA timed the
  /// new iterate), cleared by begin_refinement and by a β backoff. The
  /// next D-phase then passes run_dphase an empty change hint instead of
  /// scanning for the difference.
  bool sizes_timed = false;

  /// W-phase Gauss–Seidel sweeps since Pipeline::run last harvested the
  /// counter into the running step's PassStats (the steps only ever add to
  /// it).
  std::int64_t wphase_sweeps = 0;
};

/// Arms the D/W refinement on `s`: the trust bound β from `opt`, zeroed
/// backoff and stagnation counters, and an unknown timing of s.sizes.
void begin_refinement(const DPhaseOptions& opt, PipelineState& s);

/// One D-phase/W-phase refinement iteration with the trust-region backoff
/// (kMaxBetaBackoffs) and the stagnation stopping rule (kRelImprovementStop,
/// kStagnationPatience) of run_minflotransit. Returns true while progress
/// is possible; the caller caps the iteration count (the paper's
/// max_iterations). Call begin_refinement first.
bool refine_step(SizingContext& ctx, const DPhaseOptions& opt,
                 PipelineState& s);

/// Per-step instrumentation of one Pipeline::run().
struct PassStats {
  std::string name;
  int invocations = 0;
  double seconds = 0.0;
  /// W-phase Gauss–Seidel sweeps executed by this step's invocations
  /// (warm-started W-phases show how much cheaper repeated ones get).
  std::int64_t sweeps = 0;
};

struct PipelineResult {
  PipelineState state;
  /// "tilos", "wphase" and "dphase", in that order, always all three.
  std::vector<PassStats> pass_stats;
  double total_seconds = 0.0;
};

/// The paper's loop: TILOS, one W-phase, then up to max_iterations D/W
/// iterations.
class Pipeline {
 public:
  explicit Pipeline(const MinflotransitOptions& opt = {});

  /// Runs the loop on ctx at the given delay target.
  PipelineResult run(SizingContext& ctx, double target_delay,
                     std::uint64_t seed = 0) const;

 private:
  MinflotransitOptions opt_;
};

/// Converts a finished pipeline run into the legacy result struct,
/// including the final STA through the context scratch.
MinflotransitResult to_minflotransit_result(SizingContext& ctx,
                                            const PipelineResult& r);

}  // namespace mft
