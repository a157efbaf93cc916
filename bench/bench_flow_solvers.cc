// Ablation A1: which min-cost-flow solver should back the D-phase?
//
// Three sections:
//  1. Real D-phase instances — the LP of eq. (10) built from TILOS-sized
//     ISCAS analogs — solved end-to-end through run_dphase with each
//     backend solver, cold.
//  2. The D/W iterate sequence of one real MINFLOTRANSIT run (c2670 and
//     c3540 at 0.6 Dmin), replayed through run_dphase twice: cold, with
//     the basis forgotten before every solve, and warm, each solve starting
//     from the previous optimal basis as a job does. The bench exits 1 if
//     any warm budget differs from the cold one by a single bit.
//  3. Generated layered min-cost-flow instances of growing size (deep,
//     chain-heavy networks shaped like circuit DAG duals), solved directly
//     with the network simplex from a cold start. This is the hot-path
//     scaling curve; the largest instance is the change-over-change perf
//     gate.
//
// The layered instances are also the pivot-sequence gate: their pivot
// counts are host-independent integers, pinned below, and any change to
// the pricing rule, the leaving-arc rule or the cold start basis moves
// them. The bench exits 1 when one differs.
//
// Results go to stdout and to BENCH_flow_solvers.json (see BenchJson).
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>

#include "bench_common.h"
#include "mcf/network_simplex.h"
#include "mcf/ssp.h"
#include "sizing/dphase.h"
#include "sizing/pass.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace mft;
using namespace mft::bench;

namespace {

struct Prepared {
  LoweredCircuit lc;
  std::vector<double> sizes;
};

const Prepared& prepared(const std::string& name) {
  static std::map<std::string, Prepared> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    Netlist nl = make_named_circuit(name);
    Prepared p{lower_gate_level(nl, Tech{}), {}};
    const CalibratedTarget cal = calibrate_target(p.lc.net);
    p.sizes = run_tilos(p.lc.net, cal.target).sizes;
    it = cache.emplace(name, std::move(p)).first;
  }
  return it->second;
}

// Deterministic layered flow network mimicking a D-phase dual: `layers`
// ranks of `width` nodes, a guaranteed spine i->i between consecutive
// ranks (so every supply can route), plus random in-rank-to-next-rank and
// skip arcs. Mostly uncapacitated arcs with nonnegative integerized costs;
// a fraction carry finite capacity and possibly negative cost.
McfProblem make_layered(std::uint64_t seed, int layers, int width,
                        int extra_per_node) {
  Rng rng(seed);
  const int n = layers * width;
  McfProblem p(n);
  auto node = [width](int layer, int i) { return layer * width + i; };
  for (int l = 0; l + 1 < layers; ++l) {
    for (int i = 0; i < width; ++i) {
      p.add_arc(node(l, i), node(l + 1, i), kInfFlow,
                rng.uniform_int(0, 1000));
      for (int e = 0; e < extra_per_node; ++e) {
        const int j = rng.uniform_int(0, width - 1);
        const int skip = std::min(layers - 1 - l, rng.uniform_int(1, 3));
        if (rng.flip(0.2)) {
          // Capacitated (possibly negative-cost) shortcut.
          p.add_arc(node(l, i), node(l + skip, j),
                    rng.uniform_int(1, 50), rng.uniform_int(-200, 1000));
        } else {
          p.add_arc(node(l, i), node(l + skip, j), kInfFlow,
                    rng.uniform_int(0, 1000));
        }
      }
    }
  }
  // Balanced supplies: sources on rank 0, sinks on the last rank.
  Flow total = 0;
  for (int i = 0; i < width; ++i) {
    const Flow s = rng.uniform_int(1, 20);
    p.add_supply(node(0, i), s);
    total += s;
  }
  for (int i = 0; i < width; ++i) {
    const Flow s = i + 1 < width ? total / width : total - (width - 1) * (total / width);
    p.add_supply(node(layers - 1, i), -s);
  }
  return p;
}

// The D-phase inputs of one iteration: the iterate and the trust bound.
struct Iterate {
  std::vector<double> sizes;
  double beta;
};

// The paper's D/W pass, logging the input of every D-phase solve it runs.
class RecordingDPhasePass : public OptimizerPass {
 public:
  RecordingDPhasePass(const MinflotransitOptions& opt,
                      std::vector<Iterate>* log)
      : inner_(opt.dphase), log_(log) {}
  const std::string& name() const override { return inner_.name(); }
  void begin(SizingContext& ctx, PipelineState& s) override {
    inner_.begin(ctx, s);
  }
  PassStatus run(SizingContext& ctx, PipelineState& s) override {
    log_->push_back({s.sizes, s.beta});
    return inner_.run(ctx, s);
  }

 private:
  DPhasePass inner_;
  std::vector<Iterate>* log_;
};

std::vector<Iterate> record_iterates(const SizingNetwork& net, double target) {
  const MinflotransitOptions opt;
  std::vector<Iterate> log;
  Pipeline p;
  p.add(std::make_unique<TilosPass>(opt.tilos));
  p.add(std::make_unique<WPhasePass>());
  p.add(std::make_unique<RecordingDPhasePass>(opt, &log), opt.max_iterations);
  SizingContext ctx(net);
  p.run(ctx, target);
  return log;
}

struct Replay {
  double seconds = 0.0;
  std::int64_t pivots = 0;
  std::vector<std::vector<double>> budgets;
};

// Runs the D-phase at every iterate through one workspace, forgetting the
// basis before each solve when `cold`.
Replay replay(const SizingNetwork& net, const std::vector<Iterate>& iterates,
              bool cold) {
  Replay out;
  DPhaseWorkspace ws;
  for (const Iterate& it : iterates) {
    DPhaseOptions opt;
    opt.beta = it.beta;
    if (cold) ws.flow.mcf.forget_basis();
    Stopwatch sw;
    const DPhaseResult r = run_dphase(net, it.sizes, opt, &ws);
    out.seconds += sw.seconds();
    out.pivots += ws.flow.mcf.ns_pivots;
    out.budgets.push_back(r.budget);
  }
  return out;
}

double time_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.seconds());
  }
  return best;
}

}  // namespace

int main() {
  BenchJson json;

  // --- Section 1: D-phase instances through each backend -----------------
  const std::vector<std::string> circuits = {"c432", "c880", "c1355", "c2670"};
  const std::vector<std::pair<const char*, FlowSolver>> solvers = {
      {"network_simplex", FlowSolver::kNetworkSimplex},
      {"ssp", FlowSolver::kSsp},
  };
  std::printf("%-34s %12s %14s %12s\n", "benchmark", "wall (ms)",
              "constraints", "objective");
  for (const std::string& name : circuits) {
    const Prepared& p = prepared(name);
    for (const auto& [sname, solver] : solvers) {
      if (solver == FlowSolver::kSsp && name == "c2670") continue;
      DPhaseOptions opt;
      opt.solver = solver;
      DPhaseResult r;
      const double secs = time_best_of(3, [&] {
        r = run_dphase(p.lc.net, p.sizes, opt);
      });
      const std::string bname = "dphase/" + name + "/" + sname;
      std::printf("%-34s %12.3f %14d %12.4f\n", bname.c_str(), secs * 1e3,
                  r.num_constraints, r.objective);
      std::fflush(stdout);
      json.add(bname, secs,
               {{"constraints", static_cast<double>(r.num_constraints)},
                {"objective", r.objective}});
    }
  }

  // --- Section 2: the D/W iterate sequence of a real run, cold and warm ---
  std::printf("\n%-34s %8s %12s %12s %12s %12s\n", "benchmark", "solves",
              "cold pivots", "warm pivots", "cold ms/solve", "warm ms/solve");
  bool warm_equals_cold = true;
  for (const std::string& name : {std::string("c2670"), std::string("c3540")}) {
    const LoweredCircuit lc =
        lower_gate_level(make_named_circuit(name), Tech{});
    const std::vector<Iterate> iterates =
        record_iterates(lc.net, 0.6 * min_sized_delay(lc.net));
    Replay cold, warm;
    for (int rep = 0; rep < 3; ++rep) {
      Replay c = replay(lc.net, iterates, /*cold=*/true);
      Replay w = replay(lc.net, iterates, /*cold=*/false);
      if (rep == 0 || c.seconds < cold.seconds) cold = std::move(c);
      if (rep == 0 || w.seconds < warm.seconds) warm = std::move(w);
    }
    if (warm.budgets != cold.budgets) {
      std::fprintf(stderr, "FAIL: %s warm D-phase budgets differ from cold\n",
                   name.c_str());
      warm_equals_cold = false;
    }
    const double solves = static_cast<double>(iterates.size());
    const std::string bname = "dphase_seq/" + name + "@0.6";
    std::printf("%-34s %8zu %12lld %12lld %12.3f %12.3f\n", bname.c_str(),
                iterates.size(), static_cast<long long>(cold.pivots),
                static_cast<long long>(warm.pivots),
                cold.seconds * 1e3 / solves, warm.seconds * 1e3 / solves);
    std::fflush(stdout);
    json.add(bname + "/cold", cold.seconds,
             {{"solves", solves},
              {"pivots", static_cast<double>(cold.pivots)},
              {"ms_per_solve", cold.seconds * 1e3 / solves}});
    json.add(bname + "/warm", warm.seconds,
             {{"solves", solves},
              {"pivots", static_cast<double>(warm.pivots)},
              {"ms_per_solve", warm.seconds * 1e3 / solves}});
  }

  // --- Section 3: network simplex on generated layered instances ---------
  struct Shape {
    const char* name;
    int layers, width, extra;
    std::int64_t pivots;  ///< the pinned pivot count
  };
  const std::vector<Shape> shapes = {
      {"layered_2k", 100, 20, 2, 3286},
      {"layered_12k", 600, 20, 2, 20678},
      {"layered_50k", 2500, 20, 2, 89757},
  };
  std::printf("\n%-34s %12s %10s %10s %16s %10s %10s\n", "benchmark",
              "wall (ms)", "nodes", "arcs", "cost", "pivots", "ns/pivot");
  McfWorkspace ws;
  bool pivots_ok = true;
  for (const Shape& s : shapes) {
    const McfProblem p = make_layered(/*seed=*/42, s.layers, s.width, s.extra);
    McfSolution sol;
    const int reps = p.num_nodes() <= 20000 ? 3 : 2;
    const double secs = time_best_of(reps, [&] {
      ws.forget_basis();  // every repetition is a cold solve
      sol = solve_network_simplex(p, {}, &ws);
    });
    MFT_CHECK(sol.status == McfStatus::kOptimal);
    const std::string bname = std::string("ns/") + s.name;
    const double ns_per_pivot = secs * 1e9 / static_cast<double>(ws.ns_pivots);
    std::printf("%-34s %12.3f %10d %10d %16lld %10lld %10.0f\n", bname.c_str(),
                secs * 1e3, p.num_nodes(), p.num_arcs(),
                static_cast<long long>(sol.total_cost),
                static_cast<long long>(ws.ns_pivots), ns_per_pivot);
    std::fflush(stdout);
    json.add(bname, secs,
             {{"nodes", static_cast<double>(p.num_nodes())},
              {"arcs", static_cast<double>(p.num_arcs())},
              {"pivots", static_cast<double>(ws.ns_pivots)},
              {"ns_per_pivot", ns_per_pivot},
              {"cost", static_cast<double>(sol.total_cost)}});
    if (ws.ns_pivots != s.pivots) {
      std::fprintf(stderr, "FAIL: %s took %lld pivots, pinned %lld\n",
                   bname.c_str(), static_cast<long long>(ws.ns_pivots),
                   static_cast<long long>(s.pivots));
      pivots_ok = false;
    }
    // Cross-check the small instance against SSP.
    if (p.num_nodes() <= 5000) {
      const McfSolution ref = solve_ssp(p);
      MFT_CHECK(ref.status == McfStatus::kOptimal &&
                ref.total_cost == sol.total_cost);
    }
  }

  if (!json.write("BENCH_flow_solvers.json"))
    std::fprintf(stderr, "warning: could not write BENCH_flow_solvers.json\n");
  return pivots_ok && warm_equals_cold ? 0 : 1;
}
