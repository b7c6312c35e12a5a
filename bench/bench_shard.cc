// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Experiment S — shared-nothing shard scaling (src/serve/, DESIGN.md §6).
// Three machine-trackable claims:
//   * scaling: batch throughput grows near-linearly with the shard count S.
//     Replicas are process-simulated on one host, so the scaling number is
//     the shared-nothing model wall — max over per-shard execution walls
//     (each shard would run on its own machine) plus the coordinator's
//     merge — measured with a strictly sequential fan-out so shard walls
//     are not inflated by host-core contention. The co-scheduled wall on
//     this host is also reported; on a machine with >= S cores the two
//     converge, on a single-core container only the model wall can scale.
//   * bytes: for top-t queries the threshold-selection merge ships strictly
//     fewer bytes than the naive full-candidate gather (serve/merge.h wire
//     cost model, also accumulated as serve.* counters in the registry).
//   * determinism: canonical coordinator rows are byte-identical to the
//     sorted unsharded index rows — the bench hard-fails on divergence.
//
// Usage: bench_shard [num_objects] [num_queries] [top_t]
// (defaults 32768 / 256 / 8; CI runs a tiny size as a schema smoke test).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/orp_kw.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "serve/coordinator.h"
#include "serve/merge.h"
#include "serve/shard_replica.h"
#include "serve/shard_router.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

constexpr uint32_t kShardSweep[] = {1, 2, 4, 8};

using Batch = std::vector<BatchQuery<Box<2>>>;
using ServeCoordinator = Coordinator<OrpKwIndex<2>>;

/// Canonical form of the unsharded index's answer: ascending ids.
std::vector<std::vector<ObjectId>> UnshardedReference(
    const OrpKwIndex<2>& index, const Batch& batch) {
  ShardAnswer result = AnswerBatch<OrpKwIndex<2>, Box<2>>(index, batch);
  for (auto& row : result.rows) std::sort(row.begin(), row.end());
  return result.rows;
}

/// Median over reps of the shared-nothing model wall: the slowest shard's
/// local execution wall plus the coordinator merge. Shards run sequentially
/// inside Run (parallel_fanout off), so each shard wall is clean even when
/// the host has fewer cores than shards.
double MedianModelWallMicros(ServeCoordinator* coordinator,
                             const Batch& batch, int reps = 5) {
  coordinator->Run(batch);  // Warm-up.
  std::vector<double> walls;
  walls.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const auto result = coordinator->Run(batch);
    double max_shard = 0.0;
    for (double w : result.shard_wall_micros) max_shard = std::max(max_shard, w);
    walls.push_back(max_shard + result.merge_micros);
  }
  return obs::Median(std::move(walls));
}

void Run(uint32_t num_objects, int num_queries, uint64_t top_t) {
  bench::JsonReport report("shard");
  obs::MetricsRegistry registry;
  Rng rng(num_objects * 5 + 11);
  CorpusSpec spec;
  spec.num_objects = num_objects;
  spec.vocab_size = 128;
  spec.zipf_skew = 1.0;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(num_objects, PointDistribution::kUniform, &rng);
  std::vector<double> axis_keys;
  axis_keys.reserve(num_objects);
  for (const auto& p : pts) axis_keys.push_back(p[0]);
  const double n_weight = static_cast<double>(corpus.total_weight());

  // Broad boxes over the two hottest keywords: candidate sets of hundreds
  // of ids per query — work that scales with the slice each shard owns (the
  // regime shard scale-out exists for) and enough candidate volume for the
  // selection-vs-naive bytes comparison to be meaningful.
  Batch batch;
  for (int i = 0; i < num_queries; ++i) {
    batch.push_back({GenerateBoxQuery(std::span<const Point<2>>(pts),
                                      rng.UniformDouble(0.3, 0.8), &rng),
                     PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng,
                                       /*frequent_pool=*/4)});
  }

  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> unsharded(pts, &corpus, opt);
  const auto reference = UnshardedReference(unsharded, batch);

  std::printf("\n-- shard scaling, N=%.0f, %d queries, top_t=%llu --\n",
              n_weight, num_queries,
              static_cast<unsigned long long>(top_t));
  std::printf("%4s %14s %12s %10s %12s %14s %14s %10s\n", "S", "model(us)",
              "QPS(model)", "speedup", "host(us)", "naive(B)", "select(B)",
              "identical");

  std::vector<double> shard_counts;
  std::vector<double> model_qps;
  double base_model_us = 0.0;
  double speedup_s4 = 0.0;
  for (uint32_t num_shards : kShardSweep) {
    ShardRouter router(ShardStrategy::kSpacePartitioned, num_shards);
    const ShardPlan plan = router.Plan(corpus, axis_keys);

    // Full-report coordinator, sequential fan-out: determinism + scaling.
    ServeOptions full;
    full.parallel_fanout = false;
    ServeCoordinator coordinator(plan, pts, corpus, opt, full);
    const auto probe = coordinator.Run(batch);
    bool identical = probe.rows.size() == reference.size();
    for (size_t i = 0; identical && i < reference.size(); ++i) {
      identical = probe.rows[i] == reference[i];
    }
    const double model_us = MedianModelWallMicros(&coordinator, batch);
    if (num_shards == 1) base_model_us = model_us;
    const double qps = model_us > 0 ? num_queries / (model_us / 1e6) : 0.0;
    const double speedup = model_us > 0 ? base_model_us / model_us : 0.0;
    if (num_shards == 4) speedup_s4 = speedup;

    // Co-scheduled wall on this host (pool fan-out), for reference.
    ServeOptions parallel = full;
    parallel.parallel_fanout = true;
    ServeCoordinator host_coordinator(plan, pts, corpus, opt, parallel);
    const double host_us =
        bench::MedianMicros([&] { host_coordinator.Run(batch); });

    // Top-t merge: selection protocol vs naive gather, bytes accounted by
    // the serve/merge.h wire model and the serve.* registry counters.
    ServeOptions select_opt = full;
    select_opt.top_t = top_t;
    select_opt.selection_merge = true;
    ServeCoordinator selective(plan, pts, corpus, opt, select_opt, &registry);
    const auto selected = selective.Run(batch);
    ServeOptions naive_opt = select_opt;
    naive_opt.selection_merge = false;
    ServeCoordinator gather(plan, pts, corpus, opt, naive_opt);
    const auto gathered = gather.Run(batch);
    bool top_identical = true;
    for (size_t i = 0; i < batch.size(); ++i) {
      std::vector<ObjectId> expected = reference[i];
      if (expected.size() > top_t) expected.resize(top_t);
      top_identical = top_identical && selected.rows[i] == expected &&
                      gathered.rows[i] == expected;
    }
    const double naive_bytes = static_cast<double>(selected.bytes.naive);
    const double selection_bytes =
        static_cast<double>(selected.bytes.selection);

    std::printf("%4u %14.0f %12.0f %10.2f %12.0f %14.0f %14.0f %10s\n",
                num_shards, model_us, qps, speedup, host_us, naive_bytes,
                selection_bytes, identical && top_identical ? "yes" : "NO");
    bench::PrintCsv("S-scaling",
                    {{"N", n_weight},
                     {"S", double(num_shards)},
                     {"model_us", model_us},
                     {"qps_model", qps},
                     {"speedup_model", speedup},
                     {"host_us", host_us},
                     {"top_t", double(top_t)},
                     {"bytes_naive", naive_bytes},
                     {"bytes_selection", selection_bytes},
                     {"identical", identical && top_identical ? 1.0 : 0.0}},
                    &report);
    if (!identical || !top_identical) {
      std::fprintf(stderr,
                   "FATAL: S=%u sharded rows diverged from the unsharded "
                   "index (full=%d top%llu=%d)\n",
                   num_shards, int(identical),
                   static_cast<unsigned long long>(top_t),
                   int(top_identical));
      std::exit(1);
    }
    shard_counts.push_back(double(num_shards));
    model_qps.push_back(qps);
  }
  bench::PrintExponent("qps_model vs S",
                       bench::FitLogLogSlope(shard_counts, model_qps), 1.0,
                       &report);
  report.SetGauge("speedup_s4", speedup_s4);

  // Strategy comparison at S=4: the keyword partition trades the space
  // partition's weight balance for hot-keyword locality; the skew shows up
  // in the per-shard candidate counters (CAS-style robustness measurement).
  {
    std::printf("\n-- partition strategies at S=4 --\n");
    std::printf("%10s %14s %14s %12s\n", "strategy", "max/avg weight",
                "max/avg cand", "identical");
    for (ShardStrategy strategy : {ShardStrategy::kSpacePartitioned,
                                   ShardStrategy::kKeywordPartitioned}) {
      const bool space = strategy == ShardStrategy::kSpacePartitioned;
      ShardRouter router(strategy, 4);
      const ShardPlan plan = router.Plan(corpus, axis_keys);
      ServeOptions full;
      full.parallel_fanout = false;
      obs::MetricsRegistry strategy_registry;
      ServeCoordinator coordinator(plan, pts, corpus, opt, full,
                                   &strategy_registry);
      const auto result = coordinator.Run(batch);
      bool identical = true;
      for (size_t i = 0; i < batch.size(); ++i) {
        identical = identical && result.rows[i] == reference[i];
      }
      uint64_t max_weight = 0;
      for (uint64_t w : plan.shard_weight) max_weight = std::max(max_weight, w);
      const double weight_skew =
          4.0 * double(max_weight) / double(corpus.total_weight());
      uint64_t max_cand = 0;
      uint64_t total_cand = 0;
      for (uint32_t s = 0; s < 4; ++s) {
        const uint64_t c = strategy_registry.CounterValue(
            "serve.shard" + std::to_string(s) + ".candidates");
        max_cand = std::max(max_cand, c);
        total_cand += c;
      }
      const double cand_skew =
          total_cand > 0 ? 4.0 * double(max_cand) / double(total_cand) : 0.0;
      std::printf("%10s %14.2f %14.2f %12s\n", space ? "space" : "keyword",
                  weight_skew, cand_skew, identical ? "yes" : "NO");
      bench::PrintCsv("S-strategy",
                      {{"S", 4.0},
                       {"space", space ? 1.0 : 0.0},
                       {"weight_skew", weight_skew},
                       {"candidate_skew", cand_skew},
                       {"identical", identical ? 1.0 : 0.0}},
                      &report);
      if (!identical) {
        std::fprintf(stderr, "FATAL: %s strategy diverged from unsharded\n",
                     space ? "space" : "keyword");
        std::exit(1);
      }
    }
  }

  // Budgeted scatter-gather at S=4: a per-shard, per-query ops cap bounds
  // tail work at the price of exactness (footnote-4 semantics, surfaced via
  // serve.budget_exhausted).
  {
    ShardRouter router(ShardStrategy::kSpacePartitioned, 4);
    const ShardPlan plan = router.Plan(corpus, axis_keys);
    ServeOptions budgeted;
    budgeted.parallel_fanout = false;
    budgeted.per_shard_query_ops = std::max<uint64_t>(64, num_objects / 64);
    obs::MetricsRegistry budget_registry;
    ServeCoordinator coordinator(plan, pts, corpus, opt, budgeted,
                                 &budget_registry);
    const auto result = coordinator.Run(batch);
    const double budget_us = MedianModelWallMicros(&coordinator, batch);
    std::printf("\n-- budgeted fan-out at S=4, %llu ops/shard/query: "
                "%llu exhaustions, model %.0f us --\n",
                static_cast<unsigned long long>(budgeted.per_shard_query_ops),
                static_cast<unsigned long long>(result.budget_exhaustions),
                budget_us);
    bench::PrintCsv(
        "S-budget",
        {{"S", 4.0},
         {"ops_budget", double(budgeted.per_shard_query_ops)},
         {"budget_exhausted", double(result.budget_exhaustions)},
         {"model_us", budget_us}},
        &report);
  }

  report.MergeRegistry(registry);
  bench::EmitJson(&report);
}

}  // namespace
}  // namespace kwsc

int main(int argc, char** argv) {
  uint32_t num_objects = 32768;
  int num_queries = 256;
  uint64_t top_t = 8;
  if (argc > 1) num_objects = static_cast<uint32_t>(std::atoi(argv[1]));
  if (argc > 2) num_queries = std::atoi(argv[2]);
  if (argc > 3) top_t = static_cast<uint64_t>(std::atoll(argv[3]));
  if (num_objects < 256 || num_queries < 8 || top_t < 1) {
    std::fprintf(stderr,
                 "usage: bench_shard [num_objects >= 256] [num_queries >= 8] "
                 "[top_t >= 1]\n");
    return 2;
  }
  kwsc::bench::PrintHeader(
      "S shared-nothing shard scaling + merge bytes",
      "throughput scales near-linearly with shard count under the "
      "shared-nothing model; threshold-selection merge ships fewer bytes "
      "than naive gather; sharded results byte-identical to unsharded");
  kwsc::Run(num_objects, num_queries, top_t);
  return 0;
}
