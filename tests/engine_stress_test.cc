// Heavier engine runs, labeled "slow" in CMake so the ASan/UBSan CI job
// (tier-1 labels only) skips them — the TSan job runs this suite for the
// concurrency coverage: a Table-1-sized circuit at gate granularity plus
// a transistor-granularity adder, batched at several thread counts, all
// required to be bit-identical to the sequential run; and a mixed-workload
// streaming soak (shard-extracted tiled networks interleaved with ISCAS
// jobs, submission order randomized by the portable Rng) whose per-ticket
// results must be bit-identical at every worker count and every
// submission order.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "engine/runner.h"
#include "engine/stream.h"
#include "gen/blocks.h"
#include "gen/iscas_analog.h"
#include "gen/tiled.h"
#include "sizing/shard.h"
#include "timing/lowering.h"
#include "util/rng.h"

namespace mft {
namespace {

TEST(EngineStress, MixedGranularityBatchDeterministicAcrossThreadCounts) {
  // c6288 (the array-multiplier analog) is the heaviest Table-1 circuit;
  // pairing it with a transistor-granularity adder exercises both
  // lowerings under the pool.
  Netlist c6288 = make_iscas_analog("c6288");
  Netlist adder = make_ripple_adder(16);
  LoweredCircuit gate_lc = lower_gate_level(c6288, Tech{});
  LoweredCircuit tran_lc = lower_transistor_level(adder, Tech{});
  const std::vector<const SizingNetwork*> networks = {&gate_lc.net,
                                                      &tran_lc.net};

  std::vector<SizingJob> jobs;
  for (double ratio : {0.7, 0.6}) {
    SizingJob g;
    g.network = 0;
    g.target_ratio = ratio;
    g.label = "c6288/gate@" + std::to_string(ratio);
    jobs.push_back(std::move(g));
  }
  for (double ratio : {0.8, 0.6, 0.5, 0.45}) {
    SizingJob t;
    t.network = 1;
    t.target_ratio = ratio;
    t.label = "adder16/tran@" + std::to_string(ratio);
    jobs.push_back(std::move(t));
  }

  JobRunnerOptions seq;
  seq.threads = 1;
  const BatchResult reference = JobRunner(seq).run(networks, jobs);
  for (const JobResult& r : reference.results) {
    SCOPED_TRACE(r.label);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.result.met_target);
  }

  for (int threads : {4}) {
    JobRunnerOptions par;
    par.threads = threads;
    const BatchResult batch = JobRunner(par).run(networks, jobs);
    ASSERT_EQ(batch.results.size(), reference.results.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      SCOPED_TRACE(jobs[i].label + " @" + std::to_string(threads) +
                   " threads");
      const JobResult& x = reference.results[i];
      const JobResult& y = batch.results[i];
      ASSERT_TRUE(y.ok) << y.error;
      EXPECT_EQ(x.seed, y.seed);
      EXPECT_EQ(x.target, y.target);
      ASSERT_EQ(x.result.sizes.size(), y.result.sizes.size());
      for (std::size_t v = 0; v < x.result.sizes.size(); ++v)
        ASSERT_EQ(x.result.sizes[v], y.result.sizes[v]) << "vertex " << v;
      EXPECT_EQ(x.result.area, y.result.area);
      EXPECT_EQ(x.result.delay, y.result.delay);
      EXPECT_EQ(x.result.iterations.size(), y.result.iterations.size());
    }
  }
}

TEST(EngineStress, MixedWorkloadStreamingSoakIsDeterministicPerTicket) {
  // The streaming runner's production shape: shard jobs (fresh networks,
  // the reconciliation workload) arriving
  // interleaved with ordinary circuit jobs, in an order the caller does
  // not control. Each logical job carries an explicit seed, so any
  // submission permutation of the same logical job must land on the
  // bit-identical result — at any worker count, with bounded context
  // pools forcing evictions throughout.
  TiledDatapathParams p;
  p.lanes = 6;
  p.stages = 8;
  p.bits = 2;
  const LoweredCircuit tiled = lower_gate_level(make_tiled_datapath(p), Tech{});
  const ShardPartition part = partition_levels(tiled.net, 3);
  ASSERT_EQ(part.num_shards(), 3);
  std::vector<ShardNetwork> shards;
  for (int sh = 0; sh < 3; ++sh)
    shards.push_back(
        build_shard_network(tiled.net, part, sh, tiled.net.min_sizes()));
  const Netlist c432 = make_iscas_analog("c432");
  const LoweredCircuit iscas = lower_gate_level(c432, Tech{});

  std::vector<const SizingNetwork*> nets;
  for (const ShardNetwork& s : shards) nets.push_back(s.net.get());
  nets.push_back(&iscas.net);

  std::vector<SizingJob> logical;
  for (int i = 0; i < 16; ++i) {
    SizingJob job;
    job.network = i % 4;  // shard0, shard1, shard2, c432, shard0, ...
    job.target_ratio = 0.9 - 0.03 * (i / 4);
    job.options.max_iterations = 3;
    job.label = "soak" + std::to_string(i);
    job.seed = 0x5eed0000u + static_cast<std::uint64_t>(i);  // order-independent
    logical.push_back(std::move(job));
  }

  auto stream_permuted = [&](const std::vector<int>& order, int workers,
                             int context_limit) {
    JobRunnerOptions opt;
    opt.threads = workers;
    opt.context_cache_limit = context_limit;
    StreamingRunner stream(opt);
    // tickets[logical job] — submissions happen in `order`.
    std::vector<JobTicket> tickets(logical.size());
    for (const int id : order) {
      const SizingJob& job = logical[static_cast<std::size_t>(id)];
      tickets[static_cast<std::size_t>(id)] = stream.submit(
          *nets[static_cast<std::size_t>(job.network)], job);
    }
    std::vector<JobResult> by_logical;
    for (std::size_t i = 0; i < logical.size(); ++i)
      by_logical.push_back(stream.wait(tickets[i]));
    return by_logical;
  };

  std::vector<int> canonical(logical.size());
  std::iota(canonical.begin(), canonical.end(), 0);
  const std::vector<JobResult> reference = stream_permuted(canonical, 1, 0);
  for (const JobResult& r : reference) {
    SCOPED_TRACE(r.label);
    ASSERT_TRUE(r.ok) << r.error;
  }

  Rng rng(20260730);
  for (const int workers : {2, 4}) {
    // Fisher–Yates with the portable Rng: the same shuffles on every
    // platform, so failures reproduce.
    std::vector<int> order = canonical;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.index(i)]);
    const std::vector<JobResult> got =
        stream_permuted(order, workers, /*context_limit=*/2);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      SCOPED_TRACE(reference[i].label + " @" + std::to_string(workers) +
                   " workers");
      const JobResult& x = reference[i];
      const JobResult& y = got[i];
      ASSERT_TRUE(y.ok) << y.error;
      EXPECT_EQ(y.seed, x.seed);
      EXPECT_EQ(y.target, x.target);
      EXPECT_EQ(y.dmin, x.dmin);
      ASSERT_EQ(y.result.sizes.size(), x.result.sizes.size());
      for (std::size_t v = 0; v < x.result.sizes.size(); ++v)
        ASSERT_EQ(y.result.sizes[v], x.result.sizes[v]) << "vertex " << v;
      EXPECT_EQ(y.result.area, x.result.area);
      EXPECT_EQ(y.result.delay, x.result.delay);
    }
  }
}

}  // namespace
}  // namespace mft
