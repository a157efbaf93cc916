// Span recorder for the traced benchmark binary.
//
// mftbench_traced is linked with GNU ld --wrap=<sym> for every entry point
// in entry_points.txt: the library's cross-object calls to <sym> land in
// __wrap_<sym> below, which opens a span, calls __real_<sym> (the original
// function) and closes the span. Each thread keeps its own span stack, so a
// span's self time is its duration minus its children's, and every span
// carries the id of its thread's outermost span — a job's Pipeline::run or
// an ECO ResizeSession::resize. Totals accumulate per thread without locks;
// the first kMaxKeptSpans spans are also kept for the Chrome trace export.
#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mcf/dual_lp.h"
#include "mcf/network_simplex.h"
#include "sizing/dphase.h"
#include "sizing/pass.h"
#include "sizing/resize.h"
#include "sizing/tilos.h"
#include "sizing/wphase.h"
#include "timing/delay_balance.h"
#include "timing/sta.h"
#include "util/journal.h"

namespace mftbench {
namespace {

const char* const kKindName[kNumKinds] = {
    "mcf.solve_network_simplex",    "mcf.DualFlowLp::solve",
    "timing.run_sta",               "timing.critical_vertices",
    "timing.compute_delay_balance", "timing.area_delay_weights",
    "sizing.run_tilos",             "sizing.run_dphase",
    "sizing.solve_wphase",          "sizing.Pipeline::run",
    "sizing.ResizeSession::resize", "util.Journal::append"};

constexpr int kMaxDepth = 64;
constexpr std::int64_t kMaxKeptSpans = 100000;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Frame {
  TraceKind kind = kNs;
  std::int64_t start = 0;
  std::int64_t child = 0;  ///< summed duration of closed child spans
  std::int64_t root = 0;   ///< id of the thread's outermost open span
};

struct SpanRec {
  std::int64_t start = 0;  ///< since the first trace_enable(true)
  std::int64_t dur = 0;
  std::int64_t root = 0;
  TraceKind kind = kNs;
};

struct ThreadState {
  int tid = 0;
  bool main = false;
  int depth = 0;
  Frame stack[kMaxDepth];
  TraceTotals acc;
  std::vector<SpanRec> kept;
};

std::atomic<bool> g_on{false};
std::atomic<std::int64_t> g_next_root{1};
std::atomic<std::int64_t> g_kept{0};
// Written once, before g_on first turns true (release store); read only
// after an acquire load of g_on saw it true.
std::int64_t g_epoch = 0;
std::thread::id g_main_thread;
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadState>> g_threads;  // guarded by g_mu

ThreadState& self() {
  thread_local ThreadState* t = nullptr;
  if (t == nullptr) {
    auto st = std::make_unique<ThreadState>();
    st->main = std::this_thread::get_id() == g_main_thread;
    std::lock_guard<std::mutex> lock(g_mu);
    st->tid = static_cast<int>(g_threads.size()) + 1;
    t = st.get();
    g_threads.push_back(std::move(st));
  }
  return *t;
}

void add(TraceTotals& a, const TraceTotals& b) {
  for (int k = 0; k < kNumKinds; ++k) {
    a.self_s[k] += b.self_s[k];
    a.total_s[k] += b.total_s[k];
    a.calls[k] += b.calls[k];
  }
  a.sta_tilos_s += b.sta_tilos_s;
  a.root_main_s += b.root_main_s;
  a.root_worker_s += b.root_worker_s;
  a.pass_main_self_s += b.pass_main_self_s;
  a.pivots += b.pivots;
  a.builds += b.builds;
  a.delays_recomputed += b.delays_recomputed;
  a.bumps += b.bumps;
  a.sweeps += b.sweeps;
  a.spans += b.spans;
  a.spans_kept += b.spans_kept;
}

/// One span, opened before the real call and closed when the wrapper
/// returns or unwinds. Inert while tracing is off.
class Span {
 public:
  explicit Span(TraceKind kind) {
    if (!g_on.load(std::memory_order_acquire)) return;
    ThreadState& t = self();
    if (t.depth == kMaxDepth) return;
    Frame& f = t.stack[t.depth];
    f.kind = kind;
    f.child = 0;
    f.root = t.depth == 0
                 ? g_next_root.fetch_add(1, std::memory_order_relaxed)
                 : t.stack[0].root;
    ++t.depth;
    t_ = &t;
    f.start = now_ns();
  }

  ~Span() {
    if (t_ == nullptr) return;
    const std::int64_t end = now_ns();
    ThreadState& t = *t_;
    const Frame& f = t.stack[--t.depth];
    const std::int64_t dur = end - f.start;
    const double self_s = 1e-9 * static_cast<double>(dur - f.child);
    TraceTotals& a = t.acc;
    a.self_s[f.kind] += self_s;
    a.total_s[f.kind] += 1e-9 * static_cast<double>(dur);
    ++a.calls[f.kind];
    ++a.spans;
    if (f.kind == kPass && t.main) a.pass_main_self_s += self_s;
    if (t.depth > 0) {
      Frame& parent = t.stack[t.depth - 1];
      parent.child += dur;
      if (f.kind == kSta && parent.kind == kTilos) a.sta_tilos_s += self_s;
    } else if (f.kind == kPass || f.kind == kResize) {
      (t.main ? a.root_main_s : a.root_worker_s) +=
          1e-9 * static_cast<double>(dur);
    }
    if (g_kept.load(std::memory_order_relaxed) < kMaxKeptSpans &&
        g_kept.fetch_add(1, std::memory_order_relaxed) < kMaxKeptSpans) {
      t.kept.push_back(SpanRec{f.start - g_epoch, dur, f.root, f.kind});
      ++a.spans_kept;
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Where this call's counters go; null while tracing is off.
  TraceTotals* acc() const { return t_ != nullptr ? &t_->acc : nullptr; }

 private:
  ThreadState* t_ = nullptr;
};

}  // namespace

void trace_enable(bool on) {
  if (on && g_epoch == 0) {
    g_main_thread = std::this_thread::get_id();
    g_epoch = now_ns();
  }
  g_on.store(on, std::memory_order_release);
}

TraceTotals trace_totals() {
  std::lock_guard<std::mutex> lock(g_mu);
  TraceTotals sum;
  for (const auto& t : g_threads) add(sum, t->acc);
  return sum;
}

bool trace_write_chrome(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  const char* sep = "\n";
  for (const auto& t : g_threads) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 sep, t->tid, t->main ? "driver" : "worker");
    sep = ",\n";
    for (const SpanRec& s : t->kept)
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"mft\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"job\":%lld}}",
                   kKindName[s.kind], t->tid,
                   1e-3 * static_cast<double>(s.start),
                   1e-3 * static_cast<double>(s.dur),
                   static_cast<long long>(s.root));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace mftbench

// ---------------------------------------------------------------------------
// The interposed entry points. Each __wrap_<mangled> has the signature of
// the C++ function it stands for, with `this` as an explicit first
// parameter for member functions; __real_<mangled> is the original. The
// names must match entry_points.txt.
// ---------------------------------------------------------------------------

#define MFTB_CAT2(a, b) a##b
#define MFTB_CAT(a, b) MFTB_CAT2(a, b)
#define REAL(sym) MFTB_CAT(__real_, sym)
#define WRAP(sym) MFTB_CAT(__wrap_, sym)

#define SYM_NS \
  _ZN3mft21solve_network_simplexERKNS_10McfProblemERKNS_21NetworkSimplexOptionsEPNS_12McfWorkspaceE
#define SYM_LP _ZNK3mft10DualFlowLp5solveENS_10FlowSolverEiiPNS0_9WorkspaceE
#define SYM_STA2 _ZN3mft7run_staERKNS_13SizingNetworkERKSt6vectorIdSaIdEE
#define SYM_STA3 \
  _ZN3mft7run_staERKNS_13SizingNetworkERKSt6vectorIdSaIdEERNS_13TimingScratchE
#define SYM_STA4 \
  _ZN3mft7run_staERKNS_13SizingNetworkERKSt6vectorIdSaIdEERNS_13TimingScratchERKS3_IiSaIiEE
#define SYM_CRIT \
  _ZNK3mft12TimingReport17critical_verticesERKNS_13SizingNetworkE
#define SYM_BALANCE \
  _ZN3mft21compute_delay_balanceERKNS_13SizingNetworkERKNS_12TimingReportENS_11BalanceModeE
#define SYM_WEIGHTS \
  _ZNK3mft13SizingNetwork18area_delay_weightsERKSt6vectorIdSaIdEE
#define SYM_TILOS \
  _ZN3mft9run_tilosERKNS_13SizingNetworkEdRKNS_12TilosOptionsEPNS_11ThreadArenaEPNS_10AbortTokenE
#define SYM_DPHASE \
  _ZN3mft10run_dphaseERKNS_13SizingNetworkERKSt6vectorIdSaIdEERKNS_13DPhaseOptionsEPNS_15DPhaseWorkspaceEPKS3_IiSaIiEE
#define SYM_WWARM \
  _ZN3mft12solve_wphaseERKNS_13SizingNetworkERKSt6vectorIdSaIdEES7_PNS_11ThreadArenaEPNS_10AbortTokenEbPS6_
#define SYM_PASS _ZNK3mft8Pipeline3runERNS_13SizingContextEdm
#define SYM_RESIZE _ZN3mft13ResizeSession6resizeERKNS_11ResizeDeltaE
#define SYM_JOURNAL \
  _ZN3mft7Journal6appendERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE

using namespace mft;
using mftbench::Span;
using mftbench::TraceTotals;

extern "C" {

McfSolution REAL(SYM_NS)(const McfProblem&, const NetworkSimplexOptions&,
                         McfWorkspace*);
McfSolution WRAP(SYM_NS)(const McfProblem& p, const NetworkSimplexOptions& opt,
                         McfWorkspace* ws) {
  Span span(mftbench::kNs);
  McfSolution r = REAL(SYM_NS)(p, opt, ws);
  if (TraceTotals* a = span.acc(); a != nullptr && ws != nullptr)
    a->pivots += ws->ns_pivots;
  return r;
}

DualFlowLp::Result REAL(SYM_LP)(const DualFlowLp*, FlowSolver, int, int,
                                DualFlowLp::Workspace*);
DualFlowLp::Result WRAP(SYM_LP)(const DualFlowLp* lp, FlowSolver solver,
                                int cost_digits, int supply_digits,
                                DualFlowLp::Workspace* ws) {
  Span span(mftbench::kLp);
  const int builds = ws != nullptr ? ws->problem_builds : 0;
  DualFlowLp::Result r =
      REAL(SYM_LP)(lp, solver, cost_digits, supply_digits, ws);
  // Without a workspace every solve builds its flow problem afresh.
  if (TraceTotals* a = span.acc())
    a->builds += ws != nullptr ? ws->problem_builds - builds : 1;
  return r;
}

TimingReport REAL(SYM_STA2)(const SizingNetwork&, const std::vector<double>&);
TimingReport WRAP(SYM_STA2)(const SizingNetwork& net,
                            const std::vector<double>& sizes) {
  Span span(mftbench::kSta);
  TimingReport r = REAL(SYM_STA2)(net, sizes);
  if (TraceTotals* a = span.acc()) a->delays_recomputed += net.num_vertices();
  return r;
}

const TimingReport& REAL(SYM_STA3)(const SizingNetwork&,
                                   const std::vector<double>&, TimingScratch&);
const TimingReport& WRAP(SYM_STA3)(const SizingNetwork& net,
                                   const std::vector<double>& sizes,
                                   TimingScratch& scratch) {
  Span span(mftbench::kSta);
  const std::int64_t before = scratch.delays_recomputed;
  const TimingReport& r = REAL(SYM_STA3)(net, sizes, scratch);
  if (TraceTotals* a = span.acc())
    a->delays_recomputed += scratch.delays_recomputed - before;
  return r;
}

const TimingReport& REAL(SYM_STA4)(const SizingNetwork&,
                                   const std::vector<double>&, TimingScratch&,
                                   const std::vector<NodeId>&);
const TimingReport& WRAP(SYM_STA4)(const SizingNetwork& net,
                                   const std::vector<double>& sizes,
                                   TimingScratch& scratch,
                                   const std::vector<NodeId>& changed) {
  Span span(mftbench::kSta);
  const std::int64_t before = scratch.delays_recomputed;
  const TimingReport& r = REAL(SYM_STA4)(net, sizes, scratch, changed);
  if (TraceTotals* a = span.acc())
    a->delays_recomputed += scratch.delays_recomputed - before;
  return r;
}

std::vector<NodeId> REAL(SYM_CRIT)(const TimingReport*, const SizingNetwork&);
std::vector<NodeId> WRAP(SYM_CRIT)(const TimingReport* report,
                                   const SizingNetwork& net) {
  Span span(mftbench::kCritical);
  return REAL(SYM_CRIT)(report, net);
}

DelayBalance REAL(SYM_BALANCE)(const SizingNetwork&, const TimingReport&,
                               BalanceMode);
DelayBalance WRAP(SYM_BALANCE)(const SizingNetwork& net,
                               const TimingReport& timing, BalanceMode mode) {
  Span span(mftbench::kBalance);
  return REAL(SYM_BALANCE)(net, timing, mode);
}

std::vector<double> REAL(SYM_WEIGHTS)(const SizingNetwork*,
                                      const std::vector<double>&);
std::vector<double> WRAP(SYM_WEIGHTS)(const SizingNetwork* net,
                                      const std::vector<double>& sizes) {
  Span span(mftbench::kWeights);
  return REAL(SYM_WEIGHTS)(net, sizes);
}

TilosResult REAL(SYM_TILOS)(const SizingNetwork&, double, const TilosOptions&,
                            ThreadArena*, AbortToken*);
TilosResult WRAP(SYM_TILOS)(const SizingNetwork& net, double target,
                            const TilosOptions& opt, ThreadArena* arena,
                            AbortToken* abort) {
  Span span(mftbench::kTilos);
  TilosResult r = REAL(SYM_TILOS)(net, target, opt, arena, abort);
  if (TraceTotals* a = span.acc()) a->bumps += r.bumps;
  return r;
}

DPhaseResult REAL(SYM_DPHASE)(const SizingNetwork&, const std::vector<double>&,
                              const DPhaseOptions&, DPhaseWorkspace*,
                              const std::vector<NodeId>*);
DPhaseResult WRAP(SYM_DPHASE)(const SizingNetwork& net,
                              const std::vector<double>& sizes,
                              const DPhaseOptions& opt, DPhaseWorkspace* ws,
                              const std::vector<NodeId>* changed) {
  Span span(mftbench::kDphase);
  return REAL(SYM_DPHASE)(net, sizes, opt, ws, changed);
}

WPhaseResult REAL(SYM_WWARM)(const SizingNetwork&, const std::vector<double>&,
                             const std::vector<double>&, ThreadArena*,
                             AbortToken*, bool, const std::vector<double>*);
WPhaseResult WRAP(SYM_WWARM)(const SizingNetwork& net,
                             const std::vector<double>& budget,
                             const std::vector<double>& start,
                             ThreadArena* arena, AbortToken* abort,
                             bool fast_math, const std::vector<double>* pins) {
  Span span(mftbench::kWphase);
  WPhaseResult r =
      REAL(SYM_WWARM)(net, budget, start, arena, abort, fast_math, pins);
  if (TraceTotals* a = span.acc()) a->sweeps += r.sweeps;
  return r;
}

PipelineResult REAL(SYM_PASS)(const Pipeline*, SizingContext&, double,
                              std::uint64_t);
PipelineResult WRAP(SYM_PASS)(const Pipeline* pipeline, SizingContext& ctx,
                              double target, std::uint64_t seed) {
  Span span(mftbench::kPass);
  return REAL(SYM_PASS)(pipeline, ctx, target, seed);
}

ResizeResult REAL(SYM_RESIZE)(ResizeSession*, const ResizeDelta&);
ResizeResult WRAP(SYM_RESIZE)(ResizeSession* session,
                              const ResizeDelta& delta) {
  Span span(mftbench::kResize);
  return REAL(SYM_RESIZE)(session, delta);
}

void REAL(SYM_JOURNAL)(Journal*, const std::string&);
void WRAP(SYM_JOURNAL)(Journal* journal, const std::string& payload) {
  Span span(mftbench::kJournal);
  REAL(SYM_JOURNAL)(journal, payload);
}

}  // extern "C"
