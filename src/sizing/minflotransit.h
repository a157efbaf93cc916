// MINFLOTRANSIT (paper §2.4): TILOS initial solution, then alternating
// D-phase (min-cost-flow delay-budget redistribution) and W-phase (SMP
// minimum-area re-sizing) until the area improvement becomes negligible.
//
// Since the pass-pipeline refactor these entry points are thin wrappers
// over sizing/pass.h (make_minflotransit_pipeline) — kept as the stable
// public API. Callers that run many sizings on one network should hold a
// SizingContext and use the context overload so no solver state is rebuilt
// per call; the engine layer (engine/runner.h) does exactly that.
#pragma once

#include "sizing/dphase.h"
#include "sizing/tilos.h"
#include "sizing/wphase.h"

namespace mft {

/// The D/W loop stops when the relative area improvement stays below
/// kRelImprovementStop for kStagnationPatience consecutive iterations
/// ("negligible", §2.4 step 3).
constexpr double kRelImprovementStop = 1e-4;
constexpr int kStagnationPatience = 3;
/// On W-phase infeasibility or timing regression, the trust bound β is
/// halved and the iteration retried, at most this many times in a row.
constexpr int kMaxBetaBackoffs = 4;

struct MinflotransitOptions {
  TilosOptions tilos;
  DPhaseOptions dphase;
  int max_iterations = 100;  ///< §3: "no more than 100 iterations"
  /// Seed forwarded into PipelineState for stochastic passes. The default
  /// passes are fully deterministic and ignore it; the engine layer sets
  /// it per job (derived from the batch base seed) so any future
  /// randomized pass stays reproducible at every thread count.
  std::uint64_t seed = 0;
};

struct IterationLog {
  double area = 0.0;
  double critical_path = 0.0;
  double dphase_objective = 0.0;  ///< predicted area decrease
  double beta = 0.0;
};

struct MinflotransitResult {
  std::vector<double> sizes;   ///< best solution found
  bool met_target = false;
  double area = 0.0;
  double delay = 0.0;          ///< CP at the returned sizes
  TilosResult initial;         ///< the TILOS solution it started from
  std::vector<IterationLog> iterations;
  double tilos_seconds = 0.0;  ///< time spent in the initial TILOS sizing
  double total_seconds = 0.0;  ///< end-to-end, including TILOS
};

MinflotransitResult run_minflotransit(const SizingNetwork& net,
                                      double target_delay,
                                      const MinflotransitOptions& opt = {});

class SizingContext;

/// Same algorithm through a caller-owned context: reuses the context's
/// incremental-STA scratch and D-phase workspace across calls instead of
/// building them per invocation. Bit-identical results to the overload
/// above (the workspaces only change *where* work happens, not its values).
MinflotransitResult run_minflotransit(SizingContext& ctx, double target_delay,
                                      const MinflotransitOptions& opt = {});

}  // namespace mft
