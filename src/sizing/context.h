// Context layer of the sizing engine: one SizingContext per network, owning
// every piece of reusable solver state the optimizer passes need.
//
// The refinement loop re-runs STA, the D-phase LP, and the flow solver up
// to 100 times per sizing request; a batch server runs many requests back
// to back. A context bundles the incremental-STA scratch and the D-phase
// workspace (LP structure + flow arena, built once per topology) so that
//
//  - no pass allocates per-iteration: everything hot lives here, and
//  - nothing is rebuilt per job: the engine's JobRunner keeps one context
//    per (worker thread, network) and re-enters it across jobs.
//
// Contexts are cheap to construct (all state is built lazily on first use)
// and deliberately NOT thread-safe: one context belongs to one thread.
// Parallelism happens one level up, in engine/runner.h, by giving every
// worker its own contexts over the shared read-only SizingNetwork.
#pragma once

#include <cstdint>

#include "sizing/dphase.h"
#include "timing/sta.h"

namespace mft {

class AbortToken;

/// Per-context STA instrumentation of the context's one timing scratch.
/// Counters start at zero at context creation and after every
/// begin_job().
struct ContextStats {
  std::int64_t sta_full_runs = 0;
  std::int64_t sta_incremental_runs = 0;
  /// Incremental runs that took the changed-hint path (no size scan).
  std::int64_t sta_hinted_runs = 0;
  std::int64_t sta_delays_recomputed = 0;
  std::int64_t ns_pivots = 0;  ///< network-simplex pivots, all D-phase solves
};

class SizingContext {
 public:
  /// Binds to `net` for the context's whole lifetime. The network must
  /// outlive the context and must already be frozen. Instrumentation
  /// counters start at zero.
  explicit SizingContext(const SizingNetwork& net);

  SizingContext(const SizingContext&) = delete;
  SizingContext& operator=(const SizingContext&) = delete;
  SizingContext(SizingContext&&) = default;
  SizingContext& operator=(SizingContext&&) = default;

  const SizingNetwork& net() const { return *net_; }

  /// The context's one incremental-STA scratch, inside the D-phase
  /// workspace: the passes and the D-phase time through it (TILOS keeps
  /// its own internal scratch).
  TimingScratch& timing() { return dphase_.timing; }

  /// D-phase workspace: cached LP structure, flow arena, and the context's
  /// timing scratch.
  DPhaseWorkspace& dphase() { return dphase_; }

  /// Convenience: incremental STA through the context scratch; the report
  /// is valid until the next run on it (run_dphase included).
  const TimingReport& sta(const std::vector<double>& sizes) {
    return run_sta(*net_, sizes, dphase_.timing);
  }

  /// Cooperative abort/budget token for the job currently running on this
  /// context (nullptr when none). Not owned; the engine worker installs it
  /// at job start and clears it at job end. Passes check it at their
  /// natural checkpoints — a null or disarmed token never changes results.
  void set_abort(AbortToken* abort) { abort_ = abort; }
  AbortToken* abort() const { return abort_; }

  /// Optional ECO size pins for the passes run through this context
  /// (id-indexed, entry > 0 = hold that vertex at that size). Not owned;
  /// nullptr (the default) means no pins and leaves every existing path
  /// bit-identical. TILOS never bumps a pinned vertex and the W-phase never
  /// relaxes one; the D-phase budgets freely but the pinned sizes win when
  /// the budgets are re-solved.
  void set_pins(const std::vector<double>* pins) { pins_ = pins; }
  const std::vector<double>* pins() const { return pins_; }

  /// Marks the start of a new job on a reused context: zeroes all
  /// instrumentation so per-job stats are not polluted by earlier jobs, and
  /// forgets the flow solver's last optimal basis, so the job's first
  /// D-phase solve starts cold and its pivots and wall time never depend on
  /// the job that ran before it. Later solves of the job warm-start from
  /// their predecessor. Cached solver state (LP structure, flow arena,
  /// timing scratch) is kept — that reuse is the point of pooling
  /// contexts.
  void begin_job() {
    reset_instrumentation();
    dphase_.flow.mcf.forget_basis();
  }

  /// Zero the STA/flow instrumentation counters (see begin_job()).
  void reset_instrumentation();

  /// Snapshot of the counters accumulated since the last begin_job().
  ContextStats stats() const;

 private:
  const SizingNetwork* net_;
  AbortToken* abort_ = nullptr;
  const std::vector<double>* pins_ = nullptr;
  DPhaseWorkspace dphase_;
};

}  // namespace mft
