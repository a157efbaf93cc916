#include "sizing/context.h"

namespace mft {

SizingContext::SizingContext(const SizingNetwork& net) : net_(&net) {
  MFT_CHECK(net.frozen());
  // Scratches are freshly constructed (all counters zero), but reset
  // explicitly so a future member with non-zero initial instrumentation
  // cannot silently leak into the first job's stats.
  reset_instrumentation();
}

void SizingContext::set_arena(ThreadArena* arena) {
  arena_ = arena;
  timing_.arena = arena;
  dphase_.timing.arena = arena;
}

void SizingContext::set_fast_math(bool on) {
  fast_math_ = on;
  timing_.fast_math = on;
  dphase_.timing.fast_math = on;
}

void SizingContext::reset_instrumentation() {
  timing_.reset_instrumentation();
  dphase_.timing.reset_instrumentation();
  dphase_.flow.mcf.reset_stats();
}

ContextStats SizingContext::stats() const {
  ContextStats s;
  s.sta_full_runs = timing_.full_runs + dphase_.timing.full_runs;
  s.sta_incremental_runs =
      timing_.incremental_runs + dphase_.timing.incremental_runs;
  s.sta_hinted_runs = timing_.hinted_runs + dphase_.timing.hinted_runs;
  s.sta_delays_recomputed =
      timing_.delays_recomputed + dphase_.timing.delays_recomputed;
  s.ns_pivots = dphase_.flow.mcf.ns_pivots_total;
  return s;
}

}  // namespace mft
