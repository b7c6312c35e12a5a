// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Experiment T1.1 — Table 1, row "orthogonal range reporting with keywords,
// d <= 2": query time O(N^{1-1/k} (1 + OUT^{1/k})) with O(N) space, vs. the
// two naive baselines of Section 1.
//
// Three workloads isolate the three regimes:
//   W1 selective-box:      frequent keywords + tiny box. OUT ~ 0; the
//                          keywords-only baseline must walk its whole
//                          intersection, the index must stay ~ N^{1-1/k}.
//   W2 selective-keywords: co-occurring (rare) keywords + huge box. The
//                          structured-only baseline walks the box, the index
//                          stays near the materialized-list bound.
//   W3 selective-neither:  frequent keywords + large box. OUT is large and
//                          everyone pays OUT; the index must not lose by
//                          more than a constant.
// The fitted exponent of W1 against N is the headline number: the paper's
// shape is 1 - 1/k (0.5 for k = 2, 0.667 for k = 3).

#include <cstdio>
#include <memory>

#include "baseline/keywords_only.h"
#include "baseline/structured_only.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/orp_kw.h"
#include "serve/shard_replica.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

struct Workload {
  const char* name;
  KeywordPick pick;
  double selectivity;
  uint32_t frequent_pool;
};

/// `pool` splits the batch column's batches (nullptr = one thread).
void RunForK(int k, ThreadPool* pool, bench::JsonReport* report) {
  const Workload workloads[] = {
      {"W1-selective-box", KeywordPick::kFrequent, 0.0005, 4},
      {"W2-selective-keywords", KeywordPick::kCooccurring, 0.9, 16},
      {"W3-selective-neither", KeywordPick::kFrequent, 0.3, 4},
  };
  constexpr int kQueries = 32;

  for (const Workload& w : workloads) {
    std::printf(
        "\n-- k=%d %s --\n"
        "%10s %12s %14s %14s %14s %14s %10s\n",
        k, w.name, "N", "OUT(avg)", "index(us)", "batch(us)", "struct(us)",
        "kwonly(us)", "examined");
    std::vector<double> ns;
    std::vector<double> index_times;
    for (uint32_t n_objects : {4096u, 8192u, 16384u, 32768u, 65536u,
                               131072u}) {
      Rng rng(n_objects * 13 + k);
      CorpusSpec spec;
      spec.num_objects = n_objects;
      spec.vocab_size = std::max<uint32_t>(64, n_objects / 16);
      spec.zipf_skew = 1.0;
      Corpus corpus = GenerateCorpus(spec, &rng);
      auto pts =
          GeneratePoints<2>(n_objects, PointDistribution::kUniform, &rng);
      FrameworkOptions opt;
      opt.k = k;
      OrpKwIndex<2> index(pts, &corpus, opt);
      StructuredOnlyBaseline<2> structured(pts, &corpus);
      KeywordsOnlyBaseline<2> keywords(pts, &corpus);

      // Pre-generate a query batch shared by all contenders.
      std::vector<Box<2>> boxes;
      std::vector<std::vector<KeywordId>> kws;
      std::vector<BatchQuery<Box<2>>> batch;
      for (int i = 0; i < kQueries; ++i) {
        boxes.push_back(GenerateBoxQuery(std::span<const Point<2>>(pts),
                                         w.selectivity, &rng));
        kws.push_back(
            PickQueryKeywords(corpus, k, w.pick, &rng, w.frequent_pool));
        batch.push_back({boxes.back(), kws.back()});
      }
      // The same batch split across `pool`.
      const auto answer = [&](QueryHistograms* histograms) {
        return ParallelAnswerBatch<OrpKwIndex<2>, Box<2>>(index, batch, pool,
                                                          histograms);
      };

      uint64_t out_total = 0;
      uint64_t examined_total = 0;
      for (int i = 0; i < kQueries; ++i) {
        QueryStats stats;
        out_total += index.Query(boxes[i], kws[i], &stats).size();
        examined_total += stats.ObjectsExamined();
      }

      const double t_index = bench::MedianMicros([&] {
        for (int i = 0; i < kQueries; ++i) index.Query(boxes[i], kws[i]);
      }) / kQueries;
      const double t_struct = bench::MedianMicros([&] {
        for (int i = 0; i < kQueries; ++i) {
          structured.QueryBox(boxes[i], kws[i]);
        }
      }) / kQueries;
      const double t_kw = bench::MedianMicros([&] {
        for (int i = 0; i < kQueries; ++i) keywords.QueryBox(boxes[i], kws[i]);
      }) / kQueries;
      const double t_batch =
          bench::MedianMicros([&] { answer(nullptr); }) / kQueries;

      const double n_weight = static_cast<double>(corpus.total_weight());
      const double out_avg = static_cast<double>(out_total) / kQueries;
      const double examined_avg =
          static_cast<double>(examined_total) / kQueries;
      std::printf("%10.0f %12.1f %14.2f %14.2f %14.2f %14.2f %10.1f\n",
                  n_weight, out_avg, t_index, t_batch, t_struct, t_kw,
                  examined_avg);
      bench::PrintCsv("T1.1",
                      {{"k", double(k)},
                       {"workload", double(&w - workloads)},
                       {"N", n_weight},
                       {"OUT", out_avg},
                       {"index_us", t_index},
                       {"batch_us", t_batch},
                       {"structured_us", t_struct},
                       {"keywords_us", t_kw},
                       {"examined", examined_avg}},
                      report);
      if (n_objects == 131072u) {
        // Largest N only: per-query latency + work histograms per workload,
        // so the JSON record carries tails (p99), not just the medians the
        // table shows.
        QueryHistograms probe;
        answer(&probe);
        const std::string suffix = "_k" + std::to_string(k) + "_w" +
                                   std::to_string(int(&w - workloads));
        report->AddHistogram("query_latency_ns" + suffix, probe.latency,
                             "ns");
        report->AddHistogram("query_work_objects" + suffix, probe.work,
                             "objects");
      }
      ns.push_back(n_weight);
      // Exponent fit uses *work* (objects examined), which is deterministic,
      // rather than wall-clock, which has per-query overhead at small N.
      index_times.push_back(std::max(examined_avg, 1.0));
    }
    if (w.pick == KeywordPick::kFrequent && w.selectivity < 0.01) {
      bench::PrintExponent("T1.1 W1 work vs N, k=" + std::to_string(k),
                           bench::FitLogLogSlope(ns, index_times),
                           1.0 - 1.0 / k, report);
    }
  }
}

}  // namespace
}  // namespace kwsc

int main() {
  kwsc::bench::PrintHeader(
      "T1.1 ORP-KW d=2 (Theorem 1)",
      "time ~ N^{1-1/k} (1 + OUT^{1/k}), space O(N); beats both naive "
      "baselines when either predicate is selective");
  kwsc::bench::JsonReport report("orp_kw");
  // The batch column runs at hardware concurrency; the caller runs one slice
  // itself, so T threads need T - 1 workers.
  const int threads = kwsc::ResolveNumThreads(0);
  const auto pool =
      threads > 1 ? std::make_unique<kwsc::ThreadPool>(threads - 1) : nullptr;
  kwsc::RunForK(2, pool.get(), &report);
  kwsc::RunForK(3, pool.get(), &report);
  kwsc::bench::EmitJson(&report);
  return 0;
}
