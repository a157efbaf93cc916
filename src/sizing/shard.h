// Sharded large-netlist solve: level-cut partitioning, parallel shard
// jobs, and boundary-budget (D-phase style) reconciliation.
//
// The monolithic pipeline walks the whole network on every TILOS bump and
// every D/W iteration, so one huge netlist is one long sequential solve.
// This module turns it into a stream of jobs the engine already knows how
// to run:
//
//  1. partition_levels() cuts the frozen network at level boundaries
//     (reusing the levelization cached at freeze()). Every arc and every
//     load term connects two different levels, so a level boundary is a
//     clean timing cut: no intra-level coupling is ever severed, and every
//     crossing points from a lower shard to a higher one. Cuts are placed
//     near equal-vertex splits, choosing within a window the boundary with
//     the fewest crossing arcs+loads — the crossings are exactly the
//     couplings that must be frozen during shard solves, so a thin cut is
//     a low-distortion cut.
//
//  2. build_shard_network() extracts one shard as a standalone
//     SizingNetwork with frozen boundary budgets: crossing arcs into the
//     shard become replica source vertices (arrival 0 — the shard is
//     budgeted in its own time frame), crossing arcs out of the shard mark
//     the driver is_po (frozen required time at the cut), and crossing
//     load terms are folded into the constant b with the neighbor's size
//     frozen at the current stitched solution. Shard-internal CP ≤ span
//     then bounds every global path segment, so stitched solutions meeting
//     Σ spans = target meet the global target (conservative: path skew at
//     the cuts is slack the reconciliation pass wins back).
//
//  3. Each shard solve is an ordinary engine SizingJob (shard metadata on
//     the job), submitted through the persistent StreamingRunner
//     (engine/stream.h) rather than as one batch per round. The worker
//     pool lives across all reconciliation rounds (no per-round spawn and
//     join barrier), each dirty shard's job is streamed out the moment
//     its network is rebuilt (the first shard solves while the
//     coordinator is still extracting the next), per-shard dmin facts
//     resolve on the workers instead of serializing on the coordinator,
//     and results are consumed in ticket order with each solution
//     stitched into the global iterate while the round's stragglers are
//     still running. The only barrier left per round is the re-budget
//     step itself (the stitched full-network STA plus the span
//     arithmetic, which need every shard of the round). Worker pool plus
//     per-job inner_threads give two-level parallelism for free — and
//     the per-sweep cost inside a shard is O(V/K) instead of O(V), which
//     is a real algorithmic win even on one worker.
//
//  4. ShardReconcilePass (an OptimizerPass over the *full-network*
//     context) stitches the shard solutions, runs one full STA, and
//     re-budgets the cut boundaries on the stitched solution: infeasible
//     stitches tighten every span proportionally; feasible ones
//     redistribute the recovered path-skew slack weighted by the shards'
//     eq. (7) area-delay sensitivities Σ C_i = Σ x_i·y_i — the D-phase
//     linearization applied at shard granularity. Only shards whose span
//     or frozen boundary sizes moved are re-solved; the pass repeats until
//     no shard is dirty (boundary slacks converged) or the round budget is
//     exhausted.
//
// Contract: run_sharded_solve with num_shards == 1 runs the monolithic
// pipeline on the original network object — bit-identical to
// run_minflotransit (asserted by tests/shard_test.cc). For K > 1 the
// result is deterministic at any worker/inner-thread count, meets the
// target whenever a round's stitch does, and trades a bounded area gap
// (the frozen-boundary conservatism, measured by bench_shard) for the
// parallel + incremental speedup.
#pragma once

#include <memory>

#include "engine/runner.h"
#include "engine/stream.h"
#include "sizing/pass.h"

namespace mft {

/// Safety margin reserved at every cut: shards solve to span·(1−margin),
/// leaving headroom for the cross-boundary load drift of solving all
/// shards of a round against the previous round's frozen sizes. Not
/// applied at num_shards == 1 (the monolithic bit-identity contract).
/// ResizeSession's carved band reserves the same margin against the
/// prefix arrival drift its own resizing causes.
constexpr double kShardBoundaryMargin = 0.005;

struct ShardOptions {
  /// Number of level-contiguous shards. 1 = monolithic passthrough;
  /// clamped to what the network's level count supports.
  int num_shards = 4;
  /// Reconciliation rounds (outer repeat budget of ShardReconcilePass).
  int max_rounds = 4;
  /// Per-shard optimizer configuration (the usual pipeline options).
  MinflotransitOptions options;
  /// Wall-clock deadline / virtual-step budget for the *whole* sharded
  /// solve (0 = none), enforced at round granularity through the pipeline
  /// checkpoint: an expired solve stops after its current round and
  /// reports the best stitched iterate with status/degraded set (same
  /// contract as SizingJob's knobs).
  double deadline_seconds = 0.0;
  std::int64_t max_steps = 0;
  /// Worker pool for the streamed shard jobs (threads, inner_threads,
  /// base_seed, progress — the progress hook fires per completed shard
  /// job). Because every reconciliation round rebuilds its dirty shard
  /// networks with fresh serials, a context_cache_limit of 0 is promoted
  /// to num_shards for K > 1 (per-worker pools and the dmin cache would
  /// otherwise grow by one dead entry per shard job); an explicit limit
  /// is honored as given. Eviction never changes results.
  JobRunnerOptions runner;
};

/// A level-cut partition of a frozen network into contiguous level bands.
struct ShardPartition {
  /// num_shards+1 ascending entries with cut_levels.front() == 0 and
  /// cut_levels.back() == net.num_levels(); shard s owns exactly the
  /// vertices with cut_levels[s] <= level_of(v) < cut_levels[s+1].
  std::vector<int> cut_levels;
  /// Per global vertex: the owning shard.
  std::vector<int> shard_of;
  /// Per shard: owned global vertex ids, ascending (the local id order of
  /// build_shard_network).
  std::vector<std::vector<NodeId>> vertices;
  /// Per interior cut (size num_shards-1): arcs + load terms crossing it.
  std::vector<int> cut_width;

  int num_shards() const { return static_cast<int>(vertices.size()); }
};

/// Cuts `net` into up to `num_shards` level bands (fewer when the network
/// has too few levels, or when a band would own no sizeable vertex). Cuts
/// sit near equal-vertex splits, locally minimizing crossing width.
ShardPartition partition_levels(const SizingNetwork& net, int num_shards);

/// One shard extracted as a standalone frozen SizingNetwork. Owned
/// vertices come first (ascending global id), then one replica source per
/// distinct boundary input.
struct ShardNetwork {
  std::unique_ptr<SizingNetwork> net;
  /// Global id of every local vertex (owned, then replica sources).
  std::vector<NodeId> global_of_local;
  /// Global vertices whose sizes were frozen into b terms (the far ends of
  /// crossing load terms), ascending; the reconciliation dirt check.
  std::vector<NodeId> frozen_loads;
  int num_owned = 0;
};

/// Builds shard `shard` of `part` with boundary load terms frozen at
/// `frozen_sizes` (one full global size vector).
ShardNetwork build_shard_network(const SizingNetwork& net,
                                 const ShardPartition& part, int shard,
                                 const std::vector<double>& frozen_sizes);

/// One reconciliation round, for diagnostics and BENCH_shard.json.
struct ShardRound {
  double critical_path = 0.0;  ///< stitched full-network CP
  double area = 0.0;           ///< stitched area
  bool met_target = false;
  int shards_solved = 0;       ///< dirty shards re-solved this round
  /// Failure recovery this round: jobs that consumed a retry (an engine
  /// re-attempt for a worker-side transient, or a fresh rebuild after an
  /// extraction fault), and shards whose retry also failed — their band
  /// kept the previous stitched sizes and stayed dirty for the next
  /// round's monolithic re-budget.
  int shards_retried = 0;
  int shards_failed = 0;
  /// Rebuild + streamed solve + stitch of the round's dirty shards, from
  /// the first submit to the last ticket consumed (rebuild and stitch
  /// overlap the in-flight solves).
  double wall_seconds = 0.0;
  /// The surviving per-round barrier: stitched full-network STA plus the
  /// span re-budget (0 for the K == 1 passthrough, which needs neither).
  double reconcile_seconds = 0.0;
  std::vector<double> spans;   ///< per-shard budget the round solved at
};

struct ShardSolveResult {
  /// Stitched best solution in the familiar shape (sizes/area/delay/
  /// met_target; `initial` is the first round's stitch — or, when the
  /// target is never met, the closest stitched attempt, which is then
  /// also what `result.sizes` reports).
  MinflotransitResult result;
  int num_shards = 0;
  std::vector<int> cut_levels;
  std::vector<ShardRound> rounds;
  int shard_jobs = 0;          ///< shard jobs executed across all rounds
  /// Total coordinator barrier time (Σ rounds' reconcile_seconds): the
  /// wave-free measurement — everything else overlaps the shard solves.
  double reconcile_seconds = 0.0;
  bool converged = false;      ///< no shard dirty when the pass stopped
  /// Structured outcome. kOk on a clean solve; kDeadlineExpired /
  /// kStepBudget when the solve-level budget tripped (degraded set when a
  /// feasible stitch exists). Shard-job failures that recovery absorbed
  /// show up only in the retry/failure counters.
  EngineStatus status = EngineStatus::kOk;
  bool degraded = false;
  int shard_retries = 0;   ///< retry attempts consumed (successful or not)
  int shard_failures = 0;  ///< shard jobs whose retry also failed
};

/// The reconciliation driver as a PR-2 pipeline pass over the full-network
/// context. begin() partitions, budgets, and brings up the persistent
/// streaming worker pool; each run() executes one round (stream dirty
/// shard jobs as they are rebuilt, consume + stitch in ticket order, then
/// the STA + re-budget barrier) and returns kRepeat until the boundary
/// budgets converge. Writes the stitched iterate/best into PipelineState,
/// so to_minflotransit_result applies unchanged. Deterministic at any
/// worker/inner-thread count: submission order and ticket-ordered
/// consumption are pure functions of the dirty sets, never of arrival
/// order.
class ShardReconcilePass : public OptimizerPass {
 public:
  explicit ShardReconcilePass(const ShardOptions& opt);
  ~ShardReconcilePass() override;
  const std::string& name() const override { return name_; }
  void begin(SizingContext& ctx, PipelineState& s) override;
  PassStatus run(SizingContext& ctx, PipelineState& s) override;

  // Diagnostics harvested by run_sharded_solve after the pipeline run.
  const std::vector<ShardRound>& rounds() const { return rounds_; }
  const std::vector<int>& cut_levels() const { return cuts_; }
  int num_shards() const { return part_.num_shards(); }
  int shard_jobs() const { return shard_jobs_; }
  double reconcile_seconds() const { return reconcile_seconds_; }
  bool converged() const { return converged_; }
  int shard_retries() const { return shard_retries_; }
  int shard_failures() const { return shard_failures_; }

 private:
  struct ShardState;
  void rebudget(const SizingNetwork& net, const TimingReport& timing,
                const std::vector<double>& sizes, double target);

  std::string name_ = "shard-reconcile";
  ShardOptions opt_;
  ShardPartition part_;
  std::vector<ShardState> shards_;
  std::vector<int> cuts_;
  std::vector<ShardRound> rounds_;
  /// Round-1 stitch, restored into PipelineState::initial if a later
  /// round is the first to meet the target (unmet rounds in between
  /// overwrite `initial` with the closest attempt, which only the
  /// never-met outcome should report).
  TilosResult first_stitch_;
  int round_ = 0;
  int shard_jobs_ = 0;
  int shard_retries_ = 0;
  int shard_failures_ = 0;
  int progress_done_ = 0;  ///< ShardOptions::runner.progress completion count
  double reconcile_seconds_ = 0.0;
  bool converged_ = false;
  double best_unmet_cp_ = 0.0;
  /// One persistent worker pool for all of a run's reconciliation rounds;
  /// (re)created by begin() so every pipeline run starts at ticket 0
  /// (deterministic seeds) with empty context pools. Declared *last*:
  /// members destroy in reverse order, so the runner joins its workers —
  /// who may still hold jobs pointing at shards_' networks when an
  /// unwinding throw skips the ticket waits — before those networks are
  /// freed.
  std::unique_ptr<StreamingRunner> stream_;
};

/// Partition → parallel shard jobs → reconciliation, end to end, on a
/// fresh context. Worker-side transient failures are retried by the
/// engine's generic policy (same ticket and seed, one extra attempt);
/// a faulted extraction is rebuilt once at submit. A shard that exhausts
/// both keeps its previous stitched band and stays dirty, so the solve
/// degrades instead of aborting (never
/// for an unreachable target — that is reported through
/// result.met_target, like the monolithic solver). Throws
/// EngineError(kShardFailed) only when failures persist *and* no feasible
/// stitch was ever found within the round cap (feasible-or-error
/// termination), or when the K == 1 passthrough job double-fails (there is
/// no band to fold back).
ShardSolveResult run_sharded_solve(const SizingNetwork& net,
                                   double target_delay,
                                   const ShardOptions& opt = {});

}  // namespace mft
