// Greedy local-search downsizer: an independent near-optimality probe.
//
// Starting from any timing-feasible sizing, repeatedly tries shrinking each
// element by a constant factor, keeping the move iff the circuit still
// meets the delay target. This is O(passes·|V|·STA) — far too slow for
// production — but it certifies *local* minimality: if MINFLOTRANSIT's
// output is (near-)optimal (paper Theorem 3), a local search started from
// it must find almost nothing left to reclaim. Tests use exactly that
// property.
#pragma once

#include "timing/sta.h"

namespace mft {

struct DownsizeResult {
  std::vector<double> sizes;
  double area = 0.0;
  int accepted_moves = 0;
  int passes = 0;
};

/// Requires `start` to meet `target_delay`; returns a locally-minimal
/// shrink of it that still does (trial step ×0.95, at most 50 full sweeps
/// over all elements).
DownsizeResult greedy_downsize(const SizingNetwork& net,
                               const std::vector<double>& start,
                               double target_delay);

}  // namespace mft
