// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Stress test for the internally locked MetricsRegistry (obs/metrics.h)
// under real concurrency: several driver threads split their own batches
// across private pools (ParallelAnswerBatch) and fold every batch into one
// shared registry, while others merge and snapshot it.
// Built for the tsan preset (it is in the tsan test filter), where any
// locking mistake in the Mutex/CondVar/registry retrofit is a hard report;
// under the plain build it still pins down the *exactness* contract —
// counter totals and the deterministic work histogram are identical to a
// sequential fold, no matter how the concurrent updates interleave.
//
// Everything is seeded and bounded: fixed Rng seeds, a small corpus, and a
// fixed number of batches per thread, so one run is a few hundred
// milliseconds even under tsan on one core.

#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/orp_kw.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "serve/shard_replica.h"
#include "test_util.h"
#include "text/corpus.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

constexpr int kDrivers = 4;
constexpr int kBatchesPerDriver = 4;
constexpr int kQueriesPerBatch = 12;

struct StressWorld {
  Corpus corpus;
  std::vector<Point<2>> points;
  std::unique_ptr<OrpKwIndex<2>> index;
  // One pre-generated batch sequence per driver, so the concurrent run and
  // the sequential reference fold see byte-identical workloads.
  std::vector<std::vector<std::vector<BatchQuery<Box<2>>>>> batches;
};

StressWorld BuildWorld() {
  StressWorld world;
  Rng rng(9301);
  CorpusSpec spec;
  spec.num_objects = 900;
  spec.vocab_size = 80;
  world.corpus = GenerateCorpus(spec, &rng);
  world.points = GeneratePoints<2>(900, PointDistribution::kClustered, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  world.index =
      std::make_unique<OrpKwIndex<2>>(world.points, &world.corpus, opt);
  world.batches.resize(kDrivers);
  for (int d = 0; d < kDrivers; ++d) {
    Rng driver_rng(9400 + d);
    for (int b = 0; b < kBatchesPerDriver; ++b) {
      std::vector<BatchQuery<Box<2>>> batch;
      for (int q = 0; q < kQueriesPerBatch; ++q) {
        batch.push_back(
            {GenerateBoxQuery(std::span<const Point<2>>(world.points),
                              driver_rng.UniformDouble(0.01, 0.3),
                              &driver_rng),
             PickQueryKeywords(world.corpus, 2, KeywordPick::kCooccurring,
                               &driver_rng)});
      }
      world.batches[d].push_back(std::move(batch));
    }
  }
  return world;
}

// Answers `batch` across `pool` and folds its counters and per-query
// histograms into `registry`.
void AnswerAndFold(const OrpKwIndex<2>& index,
                   const std::vector<BatchQuery<Box<2>>>& batch,
                   ThreadPool* pool, obs::MetricsRegistry* registry) {
  QueryHistograms histograms;
  const ShardAnswer answer = ParallelAnswerBatch<OrpKwIndex<2>, Box<2>>(
      index, batch, pool, &histograms);
  registry->AddCounter("batch.batches", 1);
  registry->AddCounter("batch.queries", answer.rows.size());
  registry->AddCounter("batch.ops_budget_exhausted",
                       answer.budget_exhaustions);
  registry->MergeHistogram("batch.query_latency_ns", histograms.latency);
  registry->MergeHistogram("batch.query_work_objects", histograms.work);
}

// The tentpole scenario: one registry shared by batch loops on different
// threads. Totals must come out exact — the commutative fold is the whole
// reason the registry may be shared — and the deterministic work histogram
// must equal the sequential reference bucket for bucket.
TEST(ConcurrencyStress, SharedRegistryAcrossConcurrentBatchesIsExact) {
  const StressWorld world = BuildWorld();

  // Sequential reference: same batches, one thread, its own registry.
  obs::MetricsRegistry reference;
  for (int d = 0; d < kDrivers; ++d) {
    for (const auto& batch : world.batches[d]) {
      AnswerAndFold(*world.index, batch, /*pool=*/nullptr, &reference);
    }
  }

  obs::MetricsRegistry shared;
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&world, &shared, d] {
      // Each driver splits its batches across its own 2-way pool, so the
      // shared registry folds answers whose slices ran on pool workers too.
      ThreadPool pool(1);
      for (const auto& batch : world.batches[d]) {
        AnswerAndFold(*world.index, batch, &pool, &shared);
      }
    });
  }
  for (std::thread& t : drivers) t.join();

  constexpr uint64_t kBatches = uint64_t{kDrivers} * kBatchesPerDriver;
  constexpr uint64_t kQueries = kBatches * kQueriesPerBatch;
  EXPECT_EQ(shared.CounterValue("batch.batches"), kBatches);
  EXPECT_EQ(shared.CounterValue("batch.queries"), kQueries);
  EXPECT_EQ(shared.CounterValue("batch.batches"),
            reference.CounterValue("batch.batches"));
  EXPECT_EQ(shared.CounterValue("batch.queries"),
            reference.CounterValue("batch.queries"));
  EXPECT_EQ(shared.CounterValue("batch.ops_budget_exhausted"),
            reference.CounterValue("batch.ops_budget_exhausted"));

  // Per-query work is deterministic, so the concurrent fold must reproduce
  // the sequential histogram exactly; latency values are wall time, so only
  // the sample count is pinned.
  const obs::Histogram work =
      shared.HistogramSnapshot("batch.query_work_objects");
  EXPECT_TRUE(work == reference.HistogramSnapshot("batch.query_work_objects"))
      << work.DebugString();
  EXPECT_EQ(shared.HistogramSnapshot("batch.query_latency_ns").count(),
            kQueries);
}

// Merge storm: every thread folds a known local registry into the shared
// one while readers snapshot it mid-flight. The end state is the exact sum;
// every intermediate snapshot is a consistent copy (the snapshot accessors
// copy under the lock, so a torn map would be a tsan report and a crash).
TEST(ConcurrencyStress, ConcurrentMergesAndSnapshotsStayConsistent) {
  constexpr int kMergers = 4;
  constexpr int kRounds = 25;
  obs::MetricsRegistry shared;
  std::vector<std::thread> threads;
  threads.reserve(kMergers + 1);
  for (int m = 0; m < kMergers; ++m) {
    threads.emplace_back([&shared, m] {
      for (int r = 0; r < kRounds; ++r) {
        obs::MetricsRegistry local;
        local.AddCounter("stress.ticks", static_cast<uint64_t>(m + 1));
        local.SetGauge("stress.last_merger", static_cast<double>(m));
        local.RecordHistogram("stress.values",
                              static_cast<uint64_t>(m * kRounds + r));
        shared.Merge(local);
      }
    });
  }
  threads.emplace_back([&shared] {
    for (int r = 0; r < kRounds * kMergers; ++r) {
      const auto counters = shared.counters();
      const auto it = counters.find("stress.ticks");
      if (it != counters.end()) {
        EXPECT_LE(it->second,
                  uint64_t{kRounds} * (kMergers * (kMergers + 1)) / 2);
      }
      (void)shared.histograms();
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(shared.CounterValue("stress.ticks"),
            uint64_t{kRounds} * (kMergers * (kMergers + 1)) / 2);
  EXPECT_EQ(shared.HistogramSnapshot("stress.values").count(),
            uint64_t{kRounds} * kMergers);
  const double last = shared.GaugeValue("stress.last_merger");
  EXPECT_GE(last, 0.0);
  EXPECT_LT(last, static_cast<double>(kMergers));
}

// Cross merges both ways at once: A.Merge(B) concurrent with B.Merge(A).
// Merge snapshots its source before taking its own lock, so this cannot
// deadlock (the two locks are never held together); the test completing at
// all is the assertion, plus monotonicity of what each side absorbed.
TEST(ConcurrencyStress, CrossMergeBothDirectionsDoesNotDeadlock) {
  constexpr int kRounds = 50;
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.AddCounter("seed", 1);
  b.AddCounter("seed", 1);
  std::thread forward([&a, &b] {
    for (int r = 0; r < kRounds; ++r) a.Merge(b);
  });
  std::thread backward([&a, &b] {
    for (int r = 0; r < kRounds; ++r) b.Merge(a);
  });
  forward.join();
  backward.join();
  EXPECT_GE(a.CounterValue("seed"), uint64_t{1} + kRounds);
  EXPECT_GE(b.CounterValue("seed"), uint64_t{1} + kRounds);
}

}  // namespace
}  // namespace kwsc
