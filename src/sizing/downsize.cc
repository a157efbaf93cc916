#include "sizing/downsize.h"

#include <algorithm>

namespace mft {

constexpr double kShrink = 0.95;  ///< multiplicative trial step
constexpr int kMaxPasses = 50;    ///< full sweeps over all elements

DownsizeResult greedy_downsize(const SizingNetwork& net,
                               const std::vector<double>& start,
                               double target_delay) {
  MFT_CHECK_MSG(run_sta(net, start).critical_path <=
                    target_delay * (1.0 + 1e-9),
                "greedy_downsize requires a feasible starting point");
  DownsizeResult res;
  res.sizes = start;
  const double min_size = net.tech().min_size;

  for (int pass = 0; pass < kMaxPasses; ++pass) {
    ++res.passes;
    int accepted_this_pass = 0;
    for (NodeId v = 0; v < net.num_vertices(); ++v) {
      if (net.is_source(v)) continue;
      double& x = res.sizes[static_cast<std::size_t>(v)];
      if (x <= min_size * (1.0 + 1e-12)) continue;
      const double saved = x;
      x = std::max(min_size, x * kShrink);
      if (run_sta(net, res.sizes).critical_path >
          target_delay * (1.0 + 1e-9)) {
        x = saved;  // revert
      } else {
        ++accepted_this_pass;
      }
    }
    res.accepted_moves += accepted_this_pass;
    if (accepted_this_pass == 0) break;
  }
  res.area = net.area(res.sizes);
  return res;
}

}  // namespace mft
