#include "sizing/report.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/str.h"

namespace mft {

namespace {

const char* kind_name(VertexKind k) {
  switch (k) {
    case VertexKind::kSource:
      return "source";
    case VertexKind::kGate:
      return "gate";
    case VertexKind::kTransistor:
      return "transistor";
    case VertexKind::kWire:
      return "wire";
  }
  return "?";
}

}  // namespace

std::string timing_summary(const SizingNetwork& net,
                           const std::vector<double>& sizes) {
  const TimingReport t = run_sta(net, sizes);
  int critical = 0;
  double worst_slack = std::numeric_limits<double>::infinity();
  for (NodeId v = 0; v < net.num_vertices(); ++v) {
    if (net.is_source(v)) continue;
    const double sl = t.slack(v);
    worst_slack = std::min(worst_slack, sl);
    if (sl < 1e-9 * (1.0 + t.critical_path)) ++critical;
  }
  std::ostringstream os;
  os << strf("critical path : %.4f\n", t.critical_path);
  os << strf("worst slack   : %.4g\n", worst_slack);
  os << strf("critical elems: %d of %d\n", critical, net.num_sizeable());
  os << strf("total area    : %.2f\n", net.area(sizes));
  return os.str();
}

std::string size_histogram(const SizingNetwork& net,
                           const std::vector<double>& sizes, int max_width) {
  const double min_size = net.tech().min_size;
  // Power-of-two buckets relative to minimum size.
  std::vector<int> buckets;
  for (NodeId v = 0; v < net.num_vertices(); ++v) {
    if (net.is_source(v)) continue;
    const double rel =
        std::max(1.0, sizes[static_cast<std::size_t>(v)] / min_size);
    const int b = static_cast<int>(std::floor(std::log2(rel)));
    if (b >= static_cast<int>(buckets.size()))
      buckets.resize(static_cast<std::size_t>(b) + 1, 0);
    ++buckets[static_cast<std::size_t>(b)];
  }
  int peak = 1;
  for (int c : buckets) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const int width = buckets[b] * max_width / peak;
    os << strf("%4.0f-%4.0fx |%s %d\n", std::pow(2.0, static_cast<double>(b)),
               std::pow(2.0, static_cast<double>(b + 1)),
               std::string(static_cast<std::size_t>(width), '#').c_str(),
               buckets[b]);
  }
  return os.str();
}

std::string sizing_csv(const SizingNetwork& net,
                       const std::vector<double>& sizes) {
  const TimingReport t = run_sta(net, sizes);
  std::ostringstream os;
  os << "name,kind,size,delay,slack\n";
  for (NodeId v = 0; v < net.num_vertices(); ++v) {
    if (net.is_source(v)) continue;
    os << net.name(v) << ',' << kind_name(net.vertex(v).kind) << ','
       << strf("%.4f,%.4f,%.4f", sizes[static_cast<std::size_t>(v)],
               t.delay[static_cast<std::size_t>(v)],
               t.slack(v))
       << '\n';
  }
  return os.str();
}

std::string compare_report(const SizingNetwork& net,
                           const MinflotransitResult& result, int top_movers) {
  std::ostringstream os;
  os << strf("TILOS         : area %.2f, delay %.4f, %lld bumps\n",
             result.initial.area, result.initial.achieved_delay,
             static_cast<long long>(result.initial.bumps));
  os << strf("MINFLOTRANSIT : area %.2f, delay %.4f, %zu D/W iterations\n",
             result.area, result.delay, result.iterations.size());
  if (result.initial.area > 0.0)
    os << strf("savings       : %.2f%%\n",
               100.0 * (1.0 - result.area / result.initial.area));

  // Vertices the refinement moved furthest (either direction).
  std::vector<NodeId> order;
  for (NodeId v = 0; v < net.num_vertices(); ++v)
    if (!net.is_source(v)) order.push_back(v);
  auto movement = [&](NodeId v) {
    return std::abs(result.sizes[static_cast<std::size_t>(v)] -
                    result.initial.sizes[static_cast<std::size_t>(v)]);
  };
  std::sort(order.begin(), order.end(),
            [&](NodeId a, NodeId b) { return movement(a) > movement(b); });
  os << "largest moves :\n";
  for (int i = 0; i < top_movers && i < static_cast<int>(order.size()); ++i) {
    const NodeId v = order[static_cast<std::size_t>(i)];
    if (movement(v) < 1e-9) break;
    os << strf("  %-20s %8.3f -> %8.3f\n", net.name(v).c_str(),
               result.initial.sizes[static_cast<std::size_t>(v)],
               result.sizes[static_cast<std::size_t>(v)]);
  }
  return os.str();
}

}  // namespace mft
