#include "sizing/minflotransit.h"

#include "sizing/pass.h"
#include "util/stopwatch.h"

namespace mft {

// The loop itself lives in sizing/pass.cc as Pipeline::run; these wrappers
// are the stable public API. engine_test.cc pins them bit-identically
// against a verbatim copy of the pre-refactor loop.

MinflotransitResult run_minflotransit(SizingContext& ctx, double target_delay,
                                      const MinflotransitOptions& opt) {
  Stopwatch total;
  const Pipeline pipeline(opt);
  MinflotransitResult res =
      to_minflotransit_result(ctx, pipeline.run(ctx, target_delay, opt.seed));
  res.total_seconds = total.seconds();
  return res;
}

MinflotransitResult run_minflotransit(const SizingNetwork& net,
                                      double target_delay,
                                      const MinflotransitOptions& opt) {
  SizingContext ctx(net);
  return run_minflotransit(ctx, target_delay, opt);
}

}  // namespace mft
