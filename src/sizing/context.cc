#include "sizing/context.h"

namespace mft {

SizingContext::SizingContext(const SizingNetwork& net) : net_(&net) {
  MFT_CHECK(net.frozen());
  // The scratch is freshly constructed (all counters zero), but reset
  // explicitly so a future member with non-zero initial instrumentation
  // cannot silently leak into the first job's stats.
  reset_instrumentation();
}

void SizingContext::reset_instrumentation() {
  dphase_.timing.reset_instrumentation();
  dphase_.flow.mcf.reset_stats();
}

ContextStats SizingContext::stats() const {
  const TimingScratch& t = dphase_.timing;
  ContextStats s;
  s.sta_full_runs = t.full_runs;
  s.sta_incremental_runs = t.incremental_runs;
  s.sta_hinted_runs = t.hinted_runs;
  s.sta_delays_recomputed = t.delays_recomputed;
  s.ns_pivots = dphase_.flow.mcf.ns_pivots_total;
  return s;
}

}  // namespace mft
