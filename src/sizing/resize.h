// ECO serving (ROADMAP "warm-start incremental re-size"): millisecond
// re-solves of an already-sized network under a small perturbation.
//
// An engineering change order (ECO) perturbs a sized design slightly — a
// new delay target, a few pF of added load, a handful of cells frozen at
// fixed sizes — and the interactive loop wants a new feasible solution in
// milliseconds, not a cold TILOS + D/W solve from scratch. The pieces this
// rides on already exist: post-freeze constant-load edits
// (SizingNetwork::eco_add_b, which mints a fresh serial so every
// serial-keyed workspace recomputes), the level cache that localizes a
// perturbation to a band of levels, the PR-4 frozen-boundary extraction
// (build_shard_network) that carves that band out as a standalone network,
// and warm-started W/D-phase refinement over the current sizes.
//
// A ResizeSession owns a mutable *clone* of the caller's network plus the
// current sized state, and applies ResizeDeltas against it:
//
//  - zero delta → fixpoint: the current sizes are returned bit-identical
//    (the contract tests/resize_test.cc pins);
//  - target-only delta → global warm re-solve: per-vertex delay budgets are
//    rescaled from the achieved delays and the W-phase relaxes warm from
//    the current sizes (no TILOS, no flow solve unless area recovery runs);
//  - small local delta (load edits / pins dirtying few levels) → the dirty
//    level band plus a halo is carved with frozen boundaries, warm-solved
//    at a span budget derived from the unperturbed prefix/suffix arrival
//    profile, locally area-recovered by a bounded D/W loop, and stitched
//    back;
//  - large delta (dirty region above ResizeOptions::full_solve_frac, or a
//    warm attempt that fails its budgets) → full cold solve, with pins
//    enforced through the pass pipeline (SizingContext::set_pins).
//
// Every non-fixpoint answer is re-verified by a full from-scratch STA over
// the whole network before it is adopted or returned; a warm answer that
// fails verification falls back to cold transparently (ResizeResult
// reports which mode actually produced the answer).
//
// Sessions are deliberately NOT thread-safe and not movable: one session
// belongs to one thread (the engine daemon serializes per-session resizes
// on its request thread).
#pragma once

#include <string>
#include <vector>

#include "sizing/context.h"
#include "sizing/minflotransit.h"

namespace mft {

/// One constant-load edit: shift b of `vertex` by `b_delta` (pF of wire or
/// sink capacitance added or removed by the ECO).
struct ResizeLoadEdit {
  NodeId vertex = kInvalidNode;
  double b_delta = 0.0;
};

/// One size pin: hold `vertex` at `size` through all subsequent solves
/// (size <= 0 releases an existing pin). Pins persist across deltas until
/// released.
struct ResizePin {
  NodeId vertex = kInvalidNode;
  double size = 0.0;
};

/// A perturbation against the session's current sized state. Default
/// constructed = the zero delta (fixpoint contract).
struct ResizeDelta {
  /// New delay target; 0 keeps the session's current target.
  double target_delay = 0.0;
  std::vector<ResizeLoadEdit> load_edits;
  std::vector<ResizePin> pins;
};

struct ResizeOptions {
  /// Warm/cold decision threshold: when the carved region (dirty levels
  /// plus halo) would cover more than this fraction of the vertices, go
  /// straight to the cold solve — the warm machinery would be touching
  /// most of the network anyway.
  double full_solve_frac = 0.25;
  /// Options for cold solves (the initial solve() and every fallback).
  MinflotransitOptions cold;
};

enum class ResizeMode {
  kFixpoint,  ///< zero delta: current sizes returned bit-identical
  kWarm,      ///< warm re-solve (global budget rescale or carved band)
  kCold,      ///< full cold solve (initial, threshold, or fallback)
};

const char* to_string(ResizeMode mode);

struct ResizeResult {
  /// False when the delta itself was invalid (unknown vertex, a source,
  /// an edit that would leave a degenerate delay, a bad pin size); the
  /// session state is untouched and `error` says why.
  bool ok = true;
  std::string error;

  std::vector<double> sizes;  ///< adopted solution (id-indexed)
  double area = 0.0;
  double delay = 0.0;   ///< verified full-STA critical path at `sizes`
  double target = 0.0;  ///< target the solve ran against
  bool met_target = false;
  ResizeMode mode = ResizeMode::kCold;
  /// True when a warm attempt was made but verification or feasibility
  /// forced the cold fallback.
  bool fell_back = false;

  int dirty_vertices = 0;   ///< vertices named by the delta (deduplicated)
  int region_vertices = 0;  ///< carved band size (0 unless a band was carved)
  double seconds = 0.0;     ///< wall time of this resize
};

class ResizeSession {
 public:
  /// Clones `net` (fresh serial — the clone is mutated in place by load
  /// edits and must not alias workspaces keyed on the original). The
  /// session starts unsized: call solve() or adopt() first.
  explicit ResizeSession(const SizingNetwork& net,
                         const ResizeOptions& opt = {});

  ResizeSession(const ResizeSession&) = delete;
  ResizeSession& operator=(const ResizeSession&) = delete;

  /// Establish the sized state with a full cold solve at `target_delay`.
  ResizeResult solve(double target_delay);

  /// Establish the sized state from an existing solution (e.g. a prior
  /// engine job's result on the same network) without re-solving; runs one
  /// full STA to record the achieved delay. `sizes` must be a full
  /// id-indexed vector for this network.
  ResizeResult adopt(const std::vector<double>& sizes, double target_delay);

  /// Apply one delta against the current sized state (see the file
  /// comment for the mode selection). Requires a prior solve()/adopt().
  ResizeResult resize(const ResizeDelta& delta);

  const SizingNetwork& net() const { return net_; }
  bool sized() const { return sized_; }
  const std::vector<double>& sizes() const { return sizes_; }
  double target() const { return target_; }
  /// Current pin vector (id-indexed, 0 = free).
  const std::vector<double>& pins() const { return pins_; }

 private:
  bool has_pins() const;
  void install_pins();
  ResizeResult cold_solve(double target);
  /// Full-network warm re-solve for a target-only delta.
  bool warm_global(double target, ResizeResult& res);
  /// Carve the dirty band [lo_level, hi_level) and warm-solve it.
  bool warm_local(double target, int lo_level, int hi_level,
                  ResizeResult& res);
  /// From-scratch full STA + adoption of a candidate; false if the
  /// candidate misses the target (caller then falls back).
  bool verify_and_adopt(const std::vector<double>& candidate, double target,
                        ResizeMode mode, ResizeResult& res);

  SizingNetwork net_;  ///< owned clone; eco_add_b mutates it in place
  ResizeOptions opt_;
  SizingContext ctx_;  ///< bound to net_ for the session lifetime
  std::vector<double> sizes_;
  std::vector<double> pins_;  ///< id-indexed, 0 = free
  double target_ = 0.0;
  bool sized_ = false;
};

}  // namespace mft
