// ECO serving benchmark: warm-start resize(delta) against the cold
// from-scratch solve on the largest generated instance.
//
// The serving claim under test (ROADMAP "ECO serving"): against an
// already-sized network, a small perturbation — a handful of per-vertex
// load edits — re-solves in milliseconds-to-subsecond via the carved
// warm path, while the cold solve costs tens of seconds; and the zero
// delta is a true fixpoint (bit-identical sizes, no solver touched).
//
// Measurements, emitted to BENCH_eco.json:
//  - cold_base: the full MINFLOTRANSIT solve that opens the session,
//  - fixpoint: median zero-delta resize (the no-op floor of the serving
//    path) plus the determinism bit (sizes bit-identical to the base),
//  - warm@<frac>: one warm resize per perturbation fraction (clustered
//    level-band load edits on frac*n vertices), with its speedup over
//    cold_base, the carved region size, and whether the warm path held
//    (mode_warm=1) or fell back,
//  - cold_resize: the same largest perturbation forced down the cold
//    path (full_solve_frac=0), the honest like-for-like denominator.
//
// Gates (exit code 1, for CI):
//  - the zero-delta resize must return bit-identical sizes, always;
//  - at full size (default --slices/--bits, n ~ 68k) the warm resize at
//    every swept fraction <= 1% must be >= 5x faster than the cold
//    re-solve and must not have fallen back.
// A smoke run (--slices 16 --bits 8) keeps the determinism gate but
// skips the speedup gate — small instances make cold cheap enough that
// the ratio is noise-bound.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sizing/resize.h"
#include "sizing/tilos.h"
#include "util/str.h"

using namespace mft;
using namespace mft::bench;

namespace {

/// Deterministic clustered perturbation: the first `count` non-source
/// vertices whose level falls in a band around the middle of the network —
/// the locality a placed-and-routed ECO actually has.
ResizeDelta make_perturbation(const SizingNetwork& net, int count,
                              double b_delta) {
  ResizeDelta delta;
  const int mid = net.num_levels() / 2;
  for (int radius = 3; radius <= net.num_levels();
       radius += 3) {  // widen until enough
    delta.load_edits.clear();
    for (NodeId v = 0;
         v < net.num_vertices() &&
         static_cast<int>(delta.load_edits.size()) < count;
         ++v) {
      const int l = net.level_of()[static_cast<std::size_t>(v)];
      if (!net.is_source(v) && l >= mid - radius && l < mid + radius)
        delta.load_edits.push_back({v, b_delta});
    }
    if (static_cast<int>(delta.load_edits.size()) >= count) break;
  }
  return delta;
}

}  // namespace

int main(int argc, char** argv) {
  const int slices = bench_int_flag(argc, argv, "--slices", nullptr, 256);
  const int bits = bench_int_flag(argc, argv, "--bits", nullptr, 24);
  const bool full_size = slices >= 256 && bits >= 24;

  Netlist nl = make_wide_datapath(slices, bits);
  LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const int n = lc.net.num_vertices();
  const double dmin = min_sized_delay(lc.net);
  const double target = 0.8 * dmin;
  std::printf("eco: %s n=%d levels=%d target=%.4f (0.8 dmin)\n",
              nl.name().c_str(), n, lc.net.num_levels(), target);

  BenchJson json;
  bool gates_ok = true;

  // The session base: one cold solve, the denominator for every speedup.
  ResizeSession session(lc.net);
  Stopwatch cold_sw;
  const ResizeResult base = session.solve(target);
  const double cold_seconds = cold_sw.seconds();
  if (!base.ok || !base.met_target) {
    std::fprintf(stderr, "error: base cold solve failed: %s\n",
                 base.error.c_str());
    return 1;
  }
  std::printf("  cold_base      %8.3fs  area %.1f\n", cold_seconds,
              base.area);
  json.add("cold_base", cold_seconds,
           {{"n", n}, {"area", base.area}, {"met_target", 1.0}});

  // Zero-delta fixpoint: the serving no-op, and the determinism gate.
  bool fixpoint_identical = true;
  const RepeatTiming fp_t = time_repeats(5, [&] {
    const ResizeResult fp = session.resize(ResizeDelta{});
    fixpoint_identical =
        fixpoint_identical && fp.ok && fp.mode == ResizeMode::kFixpoint &&
        fp.sizes == base.sizes;
  });
  std::printf("  fixpoint       %8.4fs  bit-identical=%d\n", fp_t.median(),
              fixpoint_identical);
  json.add("fixpoint", fp_t.median(),
           {{"identical", fixpoint_identical ? 1.0 : 0.0},
            {"repeats", 5.0}});
  if (!fixpoint_identical) {
    std::fprintf(stderr,
                 "GATE FAILED: zero-delta resize is not a bit-identical "
                 "fixpoint\n");
    gates_ok = false;
  }

  // Perturbation sweep: frac*n clustered load edits, warm path.
  const std::vector<double> fracs = {0.0001, 0.001, 0.01};
  ResizeDelta largest;
  for (const double frac : fracs) {
    const int count =
        std::max(1, static_cast<int>(frac * static_cast<double>(n)));
    const ResizeDelta delta = make_perturbation(lc.net, count, 0.05);
    largest = delta;

    ResizeSession warm(lc.net);
    if (!warm.adopt(base.sizes, target).ok) {
      std::fprintf(stderr, "error: warm adopt failed\n");
      return 1;
    }
    Stopwatch sw;
    const ResizeResult r = warm.resize(delta);
    const double warm_seconds = sw.seconds();
    const double speedup =
        warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;
    const bool warm_held = r.ok && r.mode == ResizeMode::kWarm && !r.fell_back;
    std::printf(
        "  warm@%-7.4f  %8.4fs  %6.1fx  edits=%d region=%d mode=%s%s "
        "met=%d\n",
        frac, warm_seconds, speedup, r.dirty_vertices, r.region_vertices,
        to_string(r.mode), r.fell_back ? " (fell back)" : "", r.met_target);
    json.add(strf("warm@%g", frac), warm_seconds,
             {{"speedup_vs_cold", speedup},
              {"edits", static_cast<double>(r.dirty_vertices)},
              {"region", static_cast<double>(r.region_vertices)},
              {"mode_warm", warm_held ? 1.0 : 0.0},
              {"met_target", r.met_target ? 1.0 : 0.0}});
    if (!r.ok || !r.met_target) {
      std::fprintf(stderr, "GATE FAILED: warm resize at frac %g: %s\n", frac,
                   r.ok ? "missed target" : r.error.c_str());
      gates_ok = false;
    }
    if (full_size && (!warm_held || speedup < 5.0)) {
      std::fprintf(stderr,
                   "GATE FAILED: frac %g: warm %s, speedup %.1fx (need warm "
                   "path held and >= 5x)\n",
                   frac, warm_held ? "held" : "fell back", speedup);
      gates_ok = false;
    }
  }

  // Like-for-like cold denominator: the largest perturbation forced down
  // the cold path (threshold 0 disables the carve).
  {
    ResizeOptions opt;
    opt.full_solve_frac = 0.0;
    ResizeSession cold(lc.net, opt);
    if (!cold.adopt(base.sizes, target).ok) {
      std::fprintf(stderr, "error: cold adopt failed\n");
      return 1;
    }
    Stopwatch sw;
    const ResizeResult r = cold.resize(largest);
    const double s = sw.seconds();
    std::printf("  cold_resize    %8.3fs  edits=%d mode=%s met=%d\n", s,
                r.dirty_vertices, to_string(r.mode), r.met_target);
    json.add("cold_resize", s,
             {{"edits", static_cast<double>(r.dirty_vertices)},
              {"met_target", r.ok && r.met_target ? 1.0 : 0.0}});
  }

  if (!json.write("BENCH_eco.json")) {
    std::fprintf(stderr, "error: cannot write BENCH_eco.json\n");
    return 1;
  }
  std::printf("wrote BENCH_eco.json%s\n",
              gates_ok ? "" : "  (GATES FAILED)");
  return gates_ok ? 0 : 1;
}
