// TILOS-style sensitivity-based greedy sizer (paper refs [1],[15]).
//
// This is both the baseline MINFLOTRANSIT is compared against in Table 1 /
// Fig. 7 and the producer of MINFLOTRANSIT's initial guess solution (§2.4
// step 1). Starting from a minimum-sized circuit, each pass walks the
// critical path, computes for every on-path element the change in path
// delay per unit of added area if that element were bumped by ×bumpsize,
// bumps the most beneficial element, and repeats until the delay target is
// met or no bump helps.
#pragma once

#include <cstdint>

#include "timing/sta.h"

namespace mft {

/// Safety cap on bump passes: run_tilos stops after
/// kMaxBumpsPerSizeable * max(1, num_sizeable) bumps.
constexpr std::int64_t kMaxBumpsPerSizeable = 4000;

struct TilosOptions {
  double bumpsize = 1.1;  ///< paper §3 uses 1.1
  /// Optional ECO size pins (id-indexed, entry > 0 = hold that vertex at
  /// that size): pinned vertices start at the pinned size and are never
  /// bump candidates. Not owned; may be nullptr.
  const std::vector<double>* pins = nullptr;
};

struct TilosResult {
  std::vector<double> sizes;
  bool met_target = false;
  double achieved_delay = 0.0;  ///< CP at the returned sizes
  double area = 0.0;
  std::int64_t bumps = 0;
};

class AbortToken;
class ThreadArena;  ///< never defined: names an ignored parameter below

/// Critical-path delay of the minimum-sized circuit (the paper's Dmin).
double min_sized_delay(const SizingNetwork& net);

/// The first STA is a full run_sta. Each bump then passes the bumped vertex
/// to run_arrivals: a delay recompute over its loaders (no size scan) and
/// an AT fold from the first re-delayed sweep position to the end, with no
/// RT sweep or slack.
///
/// `abort` (optional) is checked once per bump; when it trips the loop
/// stops with the best-so-far sizes and met_target reflecting the last STA.
/// The ThreadArena* parameter is ignored: it keeps this function's linker
/// symbol, which the repo benchmark's tracer interposes, and callers pass
/// nullptr.
TilosResult run_tilos(const SizingNetwork& net, double target_delay,
                      const TilosOptions& opt = {}, ThreadArena* = nullptr,
                      AbortToken* abort = nullptr);

}  // namespace mft
