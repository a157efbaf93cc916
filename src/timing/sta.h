// Static timing analysis over a SizingNetwork — the attributes of paper
// eq. (8): arrival time AT, required time RT, slack, edge slack, and the
// critical path CP(G).
//
// Entry points:
//  - run_sta(net, sizes): full recompute, allocates a fresh report.
//  - run_sta(net, sizes, scratch): incremental. The scratch remembers the
//    sizes of the previous call and only recomputes the delay for
//    vertices whose delay can actually have changed (the resized vertices
//    plus everything loaded by them, via the reverse-load CSR), found by an
//    O(n) scan against the remembered sizes.
//  - run_sta(net, sizes, scratch, changed): same, but the caller names the
//    resized vertices up front and the O(n) scan is skipped — the right
//    form for callers that know their own update (an empty hint for the
//    D-phase after an acceptance STA timed its sizes on the same scratch).
//    `changed` must be a superset of the truly-resized vertices (extra or
//    duplicate entries cost nothing); an incomplete hint is corruption and
//    is caught by a full cross-check in debug builds.
//  - run_arrivals(net, sizes, scratch, changed): arrival-only, for callers
//    that read only delays, ATs and the critical path (TILOS bumps). Same
//    hint contract and delay recompute as above, then the AT fold resumes
//    at the first sweep position whose delay changed (earlier positions
//    cannot move), keeping the CP endpoint as a prefix argmax. No RT sweep
//    and no id-order export.
// All paths produce bit-identical delays, ATs and critical paths; the
// tier-1 suite asserts the equivalences on randomized size updates.
//
// Layout: the kernels never walk SizingVertex records. All hot state lives
// in sweep-position order (SizingNetwork::plan()): the delay recompute and
// the AT/RT sweeps stream the plan's SoA/CSR arrays level-contiguously,
// and the report carries the position-order delays and ATs they produce
// (`delay_pos`, `at_pos`). A full run (every run_sta overload) also exports
// the id-indexed `delay`, `at` and `rt`. An arrival-only report holds
// `delay_pos`, `at_pos`, `critical_path` and `cp_vertex`, all current, and
// leaves `delay`, `at` and `rt` empty (never stale): slack(), edge_slack()
// and safe() refuse it with MFT_CHECK, and the next run_sta on the same
// scratch rebuilds all three arrays. critical_vertices() reads only the
// position arrays, so it walks either kind of report. Values are
// bit-identical to the historical id-order walks (term order per vertex is
// preserved; max/min folds are exact under reordering). Every kernel runs
// sequentially on the calling thread; the engine parallelizes across jobs.
#pragma once

#include <cstdint>
#include <vector>

#include "timing/sizing_network.h"

namespace mft {

struct TimingReport {
  /// Id-indexed arrays, exported by full runs only (empty on an
  /// arrival-only report).
  std::vector<double> delay;   ///< per-vertex delay under the given sizes
  std::vector<double> at;      ///< arrival time at the vertex *input*
  std::vector<double> rt;      ///< required time
  /// The same delays and ATs in sweep-position order (index p is vertex
  /// plan().vid[p]), filled by every run: the kernels' working arrays.
  std::vector<double> delay_pos;
  std::vector<double> at_pos;
  double critical_path = 0.0;  ///< CP(G) = max_v (at + delay)
  /// Endpoint realizing CP(G), tracked during the forward sweep (first
  /// vertex in topological order attaining the max — deterministic).
  NodeId cp_vertex = kInvalidNode;

  /// Vertex slack RT(v) − AT(v). Needs RT: fails with MFT_CHECK on an
  /// arrival-only report, an empty one, or a `v` out of range.
  double slack(NodeId v) const;

  /// Edge slack esl(e_ij) = RT(j) − AT(i) − delay(i)  (eq. (8)). Needs RT:
  /// fails with MFT_CHECK like slack().
  double edge_slack(const SizingNetwork& net, ArcId a) const;

  /// Vertices on the critical path, source→sink order. Walks the plan's
  /// fanin CSR over `at_pos + delay_pos` from cp_vertex's position, at
  /// every step to the fanin with the largest AT + delay (exact ties go to
  /// the lowest vertex id), and stops where the AT came from the source
  /// floor. Fails with MFT_CHECK on a report without position arrays for
  /// `net`.
  std::vector<NodeId> critical_vertices(const SizingNetwork& net) const;

  /// "Safe" per the paper: all vertex slacks and edge slacks >= -tol.
  /// Fails with MFT_CHECK like slack().
  bool safe(const SizingNetwork& net, double tol = 1e-9) const;
};

/// Reusable state for incremental STA. Owned by callers that re-run timing
/// many times on one network (W-phase/backoff loop, D-phase workspace).
struct TimingScratch {
  /// Result storage, reused across calls. Its `delay_pos` and `at_pos` are
  /// the persistent position-order delays and ATs the next run updates.
  TimingReport report;
  /// The rest of the sweep-position-order working set (see
  /// SizingNetwork::plan). `sizes_pos` is the only record of the sizes
  /// last timed (the change scan and the hint checks compare against it):
  /// callers may read it, never write it.
  std::vector<double> sizes_pos;
  std::vector<double> rt_pos;
  /// cp_prefix[p]: position of the CP argmax over positions [0, p], written
  /// by every forward fold; run_arrivals resumes from it.
  std::vector<int> cp_prefix;
  std::vector<int> dirty;          ///< scratch: positions to re-delay
  std::vector<char> is_dirty;      ///< scratch: dedup mask for `dirty`
  bool valid = false;              ///< false until the first (full) run
  std::uint64_t net_serial = 0;    ///< SizingNetwork::serial() of the run

  // Instrumentation for tests and benches.
  std::int64_t full_runs = 0;
  std::int64_t incremental_runs = 0;
  /// Subset of incremental_runs that used a caller-provided changed hint
  /// (no O(n) size scan).
  std::int64_t hinted_runs = 0;
  std::int64_t delays_recomputed = 0;

  /// Zero the instrumentation counters without touching the cached timing
  /// state (the next run stays incremental). SizingContext calls this at
  /// creation and between batch jobs so per-job stats start from zero.
  void reset_instrumentation() {
    full_runs = 0;
    incremental_runs = 0;
    hinted_runs = 0;
    delays_recomputed = 0;
  }
};

/// Full forward/backward sweep. `sizes` indexed by vertex id: the reference
/// every other path is compared against.
TimingReport run_sta(const SizingNetwork& net, const std::vector<double>& sizes);

/// Incremental sweep: recomputes only the delays invalidated since the
/// previous call on this scratch (full recompute on the first call). The
/// invalidated set is found by scanning `sizes` against the previous run.
/// Returns scratch.report; the reference stays valid until the next call.
const TimingReport& run_sta(const SizingNetwork& net,
                            const std::vector<double>& sizes,
                            TimingScratch& scratch);

/// Incremental sweep with a caller-provided change hint: `changed` must
/// contain every vertex whose size differs from the previous call on this
/// scratch (supersets and duplicates are fine — entries whose size is
/// unchanged are skipped). Skips the O(n) size-diff scan entirely.
const TimingReport& run_sta(const SizingNetwork& net,
                            const std::vector<double>& sizes,
                            TimingScratch& scratch,
                            const std::vector<NodeId>& changed);

/// Arrival-only incremental update with the same hint contract: re-delays
/// the changed vertices and their reverse loads, then re-folds AT from the
/// first changed sweep position to the end. Returns scratch.report holding
/// current `delay_pos`, `at_pos`, `critical_path` and `cp_vertex`,
/// bit-identical to run_sta's, with `delay`, `at` and `rt` empty (see the
/// header comment).
const TimingReport& run_arrivals(const SizingNetwork& net,
                                 const std::vector<double>& sizes,
                                 TimingScratch& scratch,
                                 const std::vector<NodeId>& changed);

}  // namespace mft
