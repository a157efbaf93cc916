// Span recorder interface shared by the benchmark driver and trace.cc.
//
// trace.cc is linked only into the traced binary (mftbench_traced), where
// GNU ld --wrap routes the library's calls to the entry points listed in
// entry_points.txt through it. The hooks are declared weak, so the plain
// binary (mftbench) links without trace.cc and sees them as null.
#pragma once

#include <cstdint>
#include <string>

namespace mftbench {

/// One interposed entry point (or overload family).
enum TraceKind : int {
  kNs,        ///< mft::solve_network_simplex
  kLp,        ///< mft::DualFlowLp::solve
  kSta,       ///< mft::run_sta, all three overloads
  kCritical,  ///< mft::TimingReport::critical_vertices
  kBalance,   ///< mft::compute_delay_balance
  kWeights,   ///< mft::SizingNetwork::area_delay_weights
  kTilos,     ///< mft::run_tilos
  kDphase,    ///< mft::run_dphase
  kWphase,    ///< mft::solve_wphase (the warm-start overload)
  kPass,      ///< mft::Pipeline::run (a job root when nothing encloses it)
  kResize,    ///< mft::ResizeSession::resize (the ECO job root)
  kJournal,   ///< mft::Journal::append
  kNumKinds,
};

/// Totals over every span recorded while tracing was on, summed over all
/// threads. Self time is a span's duration minus its child spans'.
struct TraceTotals {
  double self_s[kNumKinds] = {};
  double total_s[kNumKinds] = {};
  std::int64_t calls[kNumKinds] = {};
  double sta_tilos_s = 0.0;  ///< run_sta self time directly under run_tilos
  /// Job-root spans (Pipeline::run or ResizeSession::resize with no
  /// enclosing span) on the thread that enabled tracing, and on all others.
  double root_main_s = 0.0;
  double root_worker_s = 0.0;
  double pass_main_self_s = 0.0;  ///< Pipeline::run self time, driver thread
  std::int64_t pivots = 0;             ///< McfWorkspace::ns_pivots per solve
  std::int64_t builds = 0;             ///< problem_builds increments
  std::int64_t delays_recomputed = 0;  ///< TimingScratch counter increments
  std::int64_t bumps = 0;              ///< TilosResult::bumps
  std::int64_t sweeps = 0;             ///< WPhaseResult::sweeps
  std::int64_t spans = 0;
  std::int64_t spans_kept = 0;  ///< spans kept for the Chrome trace
};

/// Starts or stops recording. The first call that starts it names the
/// calling thread the driver thread (root_main_s).
void trace_enable(bool on) __attribute__((weak));
TraceTotals trace_totals() __attribute__((weak));
/// Writes the kept spans as Chrome trace-event JSON (opens in Perfetto).
bool trace_write_chrome(const std::string& path) __attribute__((weak));

}  // namespace mftbench
