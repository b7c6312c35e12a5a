// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The batch path (serve/shard_replica.h): splitting a batch across a pool
// with ParallelAnswerBatch must be invisible — per-query result vectors
// (including emission order) equal to per-query Query calls, aggregate
// QueryStats equal to the sequentially accumulated totals, and a work
// histogram bit-identical for every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/orp_kw.h"
#include "core/rr_kw.h"
#include "serve/shard_replica.h"
#include "test_util.h"
#include "text/corpus.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

/// A pool for `threads`-way batches: the caller runs slice 0 itself, so it
/// lends threads - 1 workers, and a 1-thread batch needs no pool at all.
std::unique_ptr<ThreadPool> PoolFor(int threads) {
  return threads > 1 ? std::make_unique<ThreadPool>(threads - 1) : nullptr;
}

TEST(ParallelAnswerBatch, BatchMatchesPerQueryAnswersAndStats) {
  Rng rng(8201);
  CorpusSpec spec;
  spec.num_objects = 2000;
  spec.vocab_size = 120;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(2000, PointDistribution::kClustered, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);

  std::vector<BatchQuery<Box<2>>> batch;
  for (int i = 0; i < 48; ++i) {
    batch.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(pts),
                          rng.UniformDouble(0.01, 0.4), &rng),
         PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng)});
  }

  // Reference: per-query calls threading one QueryStats through all of them.
  std::vector<std::vector<ObjectId>> expected;
  QueryStats expected_stats;
  for (const auto& q : batch) {
    expected.push_back(index.Query(q.region, q.keywords, &expected_stats));
  }

  for (int threads : {1, 2, 4, 8}) {
    const auto pool = PoolFor(threads);
    // Recording histograms must not change the answer either.
    for (bool record : {false, true}) {
      QueryHistograms histograms;
      const ShardAnswer result = ParallelAnswerBatch<OrpKwIndex<2>, Box<2>>(
          index, batch, pool.get(), record ? &histograms : nullptr);
      ASSERT_EQ(result.rows.size(), batch.size()) << "threads=" << threads;
      for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(result.rows[i], expected[i])
            << "threads=" << threads << " query " << i;
      }
      EXPECT_EQ(testing::StatsKey(result.stats),
                testing::StatsKey(expected_stats))
          << "threads=" << threads << " record=" << record;
      EXPECT_FALSE(result.stats.budget_exhausted);
      EXPECT_EQ(histograms.latency.count(), record ? batch.size() : 0u);
    }
  }
}

// The determinism contract of the observability layer: on the same batch,
// the merged work histogram (per-query objects examined) and the merged
// QueryStats are byte-identical for every thread count, and the latency
// histogram always carries exactly one sample per query.
TEST(ParallelAnswerBatch, MergedHistogramsAndStatsIdenticalAcrossThreadCounts) {
  Rng rng(8205);
  CorpusSpec spec;
  spec.num_objects = 1500;
  spec.vocab_size = 100;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(1500, PointDistribution::kClustered, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);

  std::vector<BatchQuery<Box<2>>> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(pts),
                          rng.UniformDouble(0.01, 0.3), &rng),
         PickQueryKeywords(corpus, 2,
                           i % 2 == 0 ? KeywordPick::kFrequent
                                      : KeywordPick::kCooccurring,
                           &rng)});
  }

  std::string reference_work;
  std::string reference_stats;
  for (int threads : {1, 2, 4, 8}) {
    const auto pool = PoolFor(threads);
    QueryHistograms histograms;
    const ShardAnswer result = ParallelAnswerBatch<OrpKwIndex<2>, Box<2>>(
        index, batch, pool.get(), &histograms);
    const std::string work = histograms.work.DebugString();
    const std::string stats = testing::StatsKey(result.stats);
    if (threads == 1) {
      reference_work = work;
      reference_stats = stats;
      EXPECT_EQ(histograms.work.count(), batch.size());
    } else {
      EXPECT_EQ(work, reference_work) << "threads=" << threads;
      EXPECT_EQ(stats, reference_stats) << "threads=" << threads;
    }
    // Latency is wall-clock (not value-deterministic), but its shape is:
    // one sample per query.
    EXPECT_EQ(histograms.latency.count(), batch.size())
        << "threads=" << threads;
    EXPECT_EQ(result.budget_exhaustions, 0u);
  }
}

// Every query runs on a fresh budget, so every query that trips it counts,
// at every thread count.
TEST(ParallelAnswerBatch, BudgetExhaustionsCountEveryQuery) {
  Rng rng(8214);
  CorpusSpec spec;
  spec.num_objects = 800;
  spec.vocab_size = 60;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(800, PointDistribution::kClustered, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);
  using View = BudgetedIndexView<OrpKwIndex<2>, Box<2>>;
  const View view(&index, /*per_query_ops=*/3);

  std::vector<BatchQuery<Box<2>>> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(pts),
                          rng.UniformDouble(0.5, 0.9), &rng),
         PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng)});
  }
  uint64_t expected = 0;
  for (const auto& q : batch) {
    QueryStats stats;
    view.Query(q.region, q.keywords, &stats);
    if (stats.budget_exhausted) ++expected;
  }
  // More exhaustions than threads, or one count per slice could pass.
  ASSERT_GT(expected, 2u);

  for (int threads : {1, 2}) {
    const auto pool = PoolFor(threads);
    const ShardAnswer result =
        ParallelAnswerBatch<View, Box<2>>(view, batch, pool.get());
    EXPECT_EQ(result.budget_exhaustions, expected) << "threads=" << threads;
    EXPECT_TRUE(result.stats.budget_exhausted);
  }
}

TEST(ParallelAnswerBatch, SliceBoundaryMathEdgeCases) {
  // The contiguous slice partition [s*n/slices, (s+1)*n/slices): exercise
  // n < threads, n == threads, and n == 1 and pin the exact per-query
  // answers (every boundary bug shows up as a skipped or double-run query).
  Rng rng(8213);
  CorpusSpec spec;
  spec.num_objects = 400;
  spec.vocab_size = 50;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(400, PointDistribution::kClustered, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);

  std::vector<BatchQuery<Box<2>>> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(pts), 0.3, &rng),
         PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng)});
  }
  struct Case {
    size_t batch_size;
    int threads;
  };
  for (const Case c : {Case{3, 8}, Case{4, 4}, Case{1, 4}, Case{1, 1},
                       Case{7, 4}}) {
    const std::span<const BatchQuery<Box<2>>> batch(queries.data(),
                                                    c.batch_size);
    const auto pool = PoolFor(c.threads);
    QueryHistograms histograms;
    const ShardAnswer result = ParallelAnswerBatch<OrpKwIndex<2>, Box<2>>(
        index, batch, pool.get(), &histograms);
    ASSERT_EQ(result.rows.size(), c.batch_size)
        << "n=" << c.batch_size << " threads=" << c.threads;
    ASSERT_EQ(histograms.latency.count(), c.batch_size);
    ASSERT_EQ(histograms.work.count(), c.batch_size);
    for (size_t i = 0; i < c.batch_size; ++i) {
      EXPECT_EQ(result.rows[i],
                index.Query(batch[i].region, batch[i].keywords))
          << "n=" << c.batch_size << " threads=" << c.threads << " query "
          << i;
    }
  }
}

TEST(ParallelAnswerBatch, EmptyBatch) {
  Rng rng(8202);
  CorpusSpec spec;
  spec.num_objects = 64;
  spec.vocab_size = 30;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(64, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);

  const auto pool = PoolFor(4);
  QueryHistograms histograms;
  const ShardAnswer result = ParallelAnswerBatch<OrpKwIndex<2>, Box<2>>(
      index, {}, pool.get(), &histograms);
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(result.stats.nodes_visited, 0u);
  EXPECT_EQ(result.stats.results, 0u);
  EXPECT_EQ(result.budget_exhaustions, 0u);
  EXPECT_EQ(histograms.latency.count(), 0u);
  EXPECT_EQ(histograms.work.count(), 0u);
}

TEST(ParallelAnswerBatch, BatchSmallerThanThreadCount) {
  Rng rng(8203);
  CorpusSpec spec;
  spec.num_objects = 500;
  spec.vocab_size = 60;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(500, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> index(pts, &corpus, opt);

  std::vector<BatchQuery<Box<2>>> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(
        {GenerateBoxQuery(std::span<const Point<2>>(pts), 0.3, &rng),
         PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng)});
  }
  const auto pool = PoolFor(8);  // More threads than queries.
  const ShardAnswer result =
      ParallelAnswerBatch<OrpKwIndex<2>, Box<2>>(index, batch, pool.get());
  ASSERT_EQ(result.rows.size(), 3u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(result.rows[i], index.Query(batch[i].region, batch[i].keywords));
  }
}

TEST(ParallelAnswerBatch, WorksWithRrKwRectangles) {
  Rng rng(8204);
  CorpusSpec spec;
  spec.num_objects = 400;
  spec.vocab_size = 60;
  Corpus corpus = GenerateCorpus(spec, &rng);
  std::vector<Box<1>> rects;
  for (uint32_t i = 0; i < 400; ++i) {
    const double lo = rng.UniformDouble(0.0, 0.9);
    Box<1> r;
    r.lo[0] = lo;
    r.hi[0] = lo + rng.UniformDouble(0.0, 0.1);
    rects.push_back(r);
  }
  FrameworkOptions opt;
  opt.k = 2;
  RrKwIndex<1> index(rects, &corpus, opt);

  std::vector<BatchQuery<Box<1>>> batch;
  for (int i = 0; i < 16; ++i) {
    const double lo = rng.UniformDouble(0.0, 0.8);
    Box<1> q;
    q.lo[0] = lo;
    q.hi[0] = lo + rng.UniformDouble(0.05, 0.2);
    batch.push_back(
        {q, PickQueryKeywords(corpus, 2, KeywordPick::kFrequent, &rng)});
  }
  const auto pool = PoolFor(4);
  const ShardAnswer result =
      ParallelAnswerBatch<RrKwIndex<1>, Box<1>>(index, batch, pool.get());
  ASSERT_EQ(result.rows.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(result.rows[i], index.Query(batch[i].region, batch[i].keywords))
        << "query " << i;
  }
}

}  // namespace
}  // namespace kwsc
