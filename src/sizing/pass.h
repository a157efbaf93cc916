// Pass layer of the sizing engine: the MINFLOTRANSIT phases as composable
// optimizer passes over a SizingContext.
//
// The paper's pipeline (§2.4) is TILOS seeding followed by an alternating
// D-phase/W-phase refinement. Historically that lived as one hard-coded
// loop in run_minflotransit(); here each phase is an OptimizerPass and a
// Pipeline runs a configured sequence of (pass, repeat-budget) entries over
// shared PipelineState. The default pipeline built by
// make_minflotransit_pipeline() reproduces the legacy loop *bit-identically*
// (asserted by tests/engine_test.cc against a verbatim copy of the old
// driver); the shard and resize layers reuse the passes on their own
// networks.
//
// Control flow: a pass returns kRepeat to be invoked again (up to its
// entry's repeat budget), kDone to advance to the next entry, or kAbort to
// end the whole pipeline (TILOS failing its delay target). Per-pass
// instrumentation (invocations, wall seconds) is collected by the Pipeline.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sizing/context.h"
#include "sizing/minflotransit.h"
#include "util/status.h"

namespace mft {

/// Mutable state threaded through the passes of one Pipeline::run().
struct PipelineState {
  double target_delay = 0.0;
  std::uint64_t seed = 0;  ///< deterministic per-job seed (engine layer)

  std::vector<double> sizes;       ///< current iterate
  std::vector<double> best_sizes;  ///< best feasible solution so far
  double best_area = 0.0;
  bool met_target = false;

  TilosResult initial;         ///< the TILOS seed solution
  double tilos_seconds = 0.0;  ///< wall time of the TILOS pass

  /// Why the run was cut short, if the context's AbortToken tripped
  /// (kCanceled / kDeadlineExpired / kStepBudget); kOk on a full run. When
  /// not kOk, sizes/best_sizes hold the best-so-far iterate — feasible iff
  /// met_target, since every accepted move preserves the delay target.
  EngineStatus abort_status = EngineStatus::kOk;

  std::vector<IterationLog> iterations;  ///< accepted D/W iterations

  // D-phase trust-region machinery (owned here so a Pipeline object can be
  // reused across runs; DPhasePass::begin re-initializes them).
  double beta = 0.0;
  int backoffs = 0;
  int stagnant = 0;

  /// True when the context's timing scratch last timed exactly `sizes`:
  /// set when a D/W iteration is accepted (its acceptance STA timed the
  /// new iterate), cleared by DPhasePass::begin and by a β backoff. The
  /// next D-phase then passes run_dphase an empty change hint instead of
  /// scanning for the difference.
  bool sizes_timed = false;

  /// W-phase Gauss–Seidel sweeps since the Pipeline last harvested the
  /// counter into the running entry's PassStats (pass implementations only
  /// ever add to it).
  std::int64_t wphase_sweeps = 0;
};

enum class PassStatus {
  kRepeat,  ///< invoke this pass again (subject to its repeat budget)
  kDone,    ///< this pass is finished; advance to the next pipeline entry
  kAbort,   ///< unrecoverable (e.g. infeasible target): end the pipeline
};

class OptimizerPass {
 public:
  virtual ~OptimizerPass() = default;
  virtual const std::string& name() const = 0;
  /// Called once per Pipeline::run() before the first invocation.
  virtual void begin(SizingContext& ctx, PipelineState& s);
  virtual PassStatus run(SizingContext& ctx, PipelineState& s) = 0;
};

/// §2.4 step 1: TILOS seed from minimum sizes. Initializes sizes/best and
/// aborts the pipeline when the target is unreachable.
class TilosPass : public OptimizerPass {
 public:
  explicit TilosPass(const TilosOptions& opt = {});
  const std::string& name() const override { return name_; }
  PassStatus run(SizingContext& ctx, PipelineState& s) override;

 private:
  std::string name_ = "tilos";
  TilosOptions opt_;
};

/// W-phase at budgets equal to the current achieved delays: the identity on
/// interior points, but canonicalizes min-clamped vertices onto the SMP
/// fixpoint so D-phase linearizations start from a consistent point.
class WPhasePass : public OptimizerPass {
 public:
  const std::string& name() const override { return name_; }
  PassStatus run(SizingContext& ctx, PipelineState& s) override;

 private:
  std::string name_ = "wphase";
};

/// One D-phase/W-phase refinement iteration with the trust-region backoff
/// (kMaxBetaBackoffs) and the stagnation stopping rule
/// (kRelImprovementStop, kStagnationPatience) of run_minflotransit.
/// Returns kRepeat while progress is possible; the enclosing entry's
/// repeat budget is the paper's max-iteration cap.
class DPhasePass : public OptimizerPass {
 public:
  explicit DPhasePass(const DPhaseOptions& opt);
  const std::string& name() const override { return name_; }
  void begin(SizingContext& ctx, PipelineState& s) override;
  PassStatus run(SizingContext& ctx, PipelineState& s) override;

 private:
  std::string name_ = "dphase";
  DPhaseOptions opt_;
};

/// Per-pass instrumentation of one Pipeline::run().
struct PassStats {
  std::string name;
  int invocations = 0;
  double seconds = 0.0;
  /// W-phase Gauss–Seidel sweeps executed by this entry's invocations
  /// (warm-started passes show how much cheaper repeated W-phases get).
  std::int64_t sweeps = 0;
};

struct PipelineResult {
  PipelineState state;
  std::vector<PassStats> pass_stats;  ///< one entry per pipeline entry
  double total_seconds = 0.0;
};

/// An ordered sequence of (pass, repeat budget) entries.
class Pipeline {
 public:
  /// Appends a pass invoked up to `max_repeats` times (until it stops
  /// returning kRepeat). Returns *this for chaining.
  Pipeline& add(std::unique_ptr<OptimizerPass> pass, int max_repeats = 1);

  /// Runs the configured passes on ctx at the given delay target.
  PipelineResult run(SizingContext& ctx, double target_delay,
                     std::uint64_t seed = 0) const;

  int num_passes() const { return static_cast<int>(entries_.size()); }
  const std::string& pass_name(int i) const;

 private:
  struct Entry {
    std::unique_ptr<OptimizerPass> pass;
    int max_repeats = 1;
  };
  std::vector<Entry> entries_;
};

/// The paper's pipeline: [TilosPass, WPhasePass, DPhasePass × max_iter].
Pipeline make_minflotransit_pipeline(const MinflotransitOptions& opt = {});

/// Converts a finished pipeline run into the legacy result struct,
/// including the final STA through the context scratch.
MinflotransitResult to_minflotransit_result(SizingContext& ctx,
                                            const PipelineResult& r);

}  // namespace mft
