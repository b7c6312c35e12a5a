// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Experiment B — construction cost. The paper, like most PODS indexing
// work, does not analyze preprocessing; a library user needs the numbers.
// Build time and index size vs. N for every major index, with fitted
// exponents: near-linear slopes mean the per-level keyword counting and
// tuple enumeration behave as the design intends (DESIGN.md substitution 2
// bounds construction by sum_e C(|e.Doc|, k) per level).

#include <cstdio>
#include <cstdlib>

#include "audit/audit.h"
#include "audit/index_auditor.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/dim_reduction.h"
#include "core/orp_kw.h"
#include "core/sp_kw_box.h"
#include "core/sp_kw_hs.h"
#include "serve/shard_replica.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

/// With KWSC_AUDIT on (compile definition or environment), every index this
/// benchmark builds is audited before it is discarded — construction sizes
/// here exceed anything the unit tests build, so this is where invariant
/// drift at scale would surface. The audit runs inside the timed section:
/// KWSC_AUDIT is a correctness mode, not a measurement mode, and the
/// reported timings say so implicitly (do not mix audited and plain runs).
template <typename Index>
void MaybeAudit(const char* name, const Index& index) {
  if (!audit::AuditEnabled()) return;
  const audit::AuditReport report = audit::AuditIndex(index);
  if (!report.ok()) {
    std::fprintf(stderr, "AUDIT FAILED [%s]:\n%s\n", name,
                 report.ToString().c_str());
    std::exit(1);
  }
}

template <typename BuildFn>
void Sweep(const char* name, double index_id, bench::JsonReport* report,
           BuildFn&& build) {
  std::printf("\n-- %s --\n", name);
  std::printf("%10s %14s %14s\n", "N", "build(ms)", "bytes/N");
  std::vector<double> ns;
  std::vector<double> times;
  for (uint32_t n_objects : {4096u, 8192u, 16384u, 32768u, 65536u}) {
    Rng rng(n_objects * 5 + 1);
    CorpusSpec spec;
    spec.num_objects = n_objects;
    spec.vocab_size = std::max<uint32_t>(64, n_objects / 16);
    Corpus corpus = GenerateCorpus(spec, &rng);
    const double n = static_cast<double>(corpus.total_weight());
    // RSS sampled before AND after the build: the point-in-time delta is
    // what this index costs, not the process high-water mark.
    const bench::RssDeltaProbe rss;
    WallTimer timer;
    const size_t bytes = build(corpus, &rng);
    const double ms = timer.ElapsedMillis();
    const double rss_delta = static_cast<double>(rss.DeltaBytes());
    std::printf("%10.0f %14.2f %14.1f\n", n, ms, bytes / n);
    bench::PrintCsv("B",
                    {{"index", index_id},
                     {"N", n},
                     {"build_ms", ms},
                     {"bytes_per_N", bytes / n},
                     {"rss_delta_bytes", rss_delta}},
                    report);
    ns.push_back(n);
    times.push_back(ms);
  }
  bench::PrintExponent(std::string("B build time [") + name + "]",
                       bench::FitLogLogSlope(ns, times),
                       1.0,  // Near-linear (polylog factors expected).
                       report);
  // Build wall time at the largest N, as a named gauge the perf trajectory
  // can diff without fishing through the points array.
  report->SetGauge("build_wall_ms_idx" + std::to_string(int(index_id)),
                   times.back());
}

/// A small fixed query batch against the Theorem-1 index: bench_build's
/// JSON carries query latency quantiles too, so a construction-affecting
/// regression that also disturbs the query path shows up in one record.
void QueryLatencyProbe(const FrameworkOptions& base_opt,
                       bench::JsonReport* report) {
  constexpr uint32_t kObjects = 16384;
  constexpr int kQueries = 256;
  Rng rng(kObjects * 5 + 1);
  CorpusSpec spec;
  spec.num_objects = kObjects;
  spec.vocab_size = std::max<uint32_t>(64, kObjects / 16);
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(kObjects, PointDistribution::kUniform, &rng);
  OrpKwIndex<2> index(pts, &corpus, base_opt);
  std::vector<BatchQuery<Box<2>>> batch;
  for (int i = 0; i < kQueries; ++i) {
    batch.push_back({GenerateBoxQuery(std::span<const Point<2>>(pts),
                                      i % 2 == 0 ? 0.001 : 0.1, &rng),
                     PickQueryKeywords(corpus, 2,
                                       i % 2 == 0 ? KeywordPick::kFrequent
                                                  : KeywordPick::kCooccurring,
                                       &rng)});
  }
  QueryHistograms histograms;
  const ShardAnswer result =
      AnswerBatch<OrpKwIndex<2>, Box<2>>(index, batch, &histograms);
  const obs::Histogram& latency = histograms.latency;
  std::printf("\n-- query latency probe (OrpKwIndex<2>, %d queries) --\n",
              kQueries);
  std::printf("p50=%.1fus p90=%.1fus p99=%.1fus max=%.1fus\n",
              latency.P50() / 1e3, latency.P90() / 1e3, latency.P99() / 1e3,
              latency.max() / 1e3);
  report->AddHistogram("query_latency_ns", latency, "ns");
  report->AddHistogram("query_work_objects", histograms.work, "objects");
  obs::AddQueryStatsCounters(result.stats, "probe_stats",
                             report->mutable_registry());
}

}  // namespace
}  // namespace kwsc

int main() {
  using namespace kwsc;
  bench::PrintHeader(
      "B construction cost (all indexes)",
      "build scales near-linearly (N polylog N); preprocessing is outside "
      "the paper's analysis but inside a user's budget");
  FrameworkOptions opt;
  opt.k = 2;
  bench::JsonReport report("build");

  Sweep("OrpKwIndex<2> (Theorem 1)", 0, &report,
        [&](const Corpus& corpus, Rng* rng) {
          auto pts = GeneratePoints<2>(corpus.num_objects(),
                                       PointDistribution::kUniform, rng);
          OrpKwIndex<2> index(pts, &corpus, opt);
          MaybeAudit("OrpKwIndex<2>", index);
          return index.MemoryBytes();
        });
  Sweep("SpKwHsIndex (partition tree d=2)", 1, &report,
        [&](const Corpus& corpus, Rng* rng) {
          auto pts = GeneratePoints<2>(corpus.num_objects(),
                                       PointDistribution::kUniform, rng);
          SpKwHsIndex index(pts, &corpus, opt);
          return index.MemoryBytes();
        });
  Sweep("SpKwBoxIndex<3>", 2, &report, [&](const Corpus& corpus, Rng* rng) {
    auto pts = GeneratePoints<3>(corpus.num_objects(),
                                 PointDistribution::kUniform, rng);
    SpKwBoxIndex<3> index(pts, &corpus, opt);
    MaybeAudit("SpKwBoxIndex<3>", index);
    return index.MemoryBytes();
  });
  Sweep("DimRedOrpKwIndex<3> (Theorem 2)", 3, &report,
        [&](const Corpus& corpus, Rng* rng) {
          auto pts = GeneratePoints<3>(corpus.num_objects(),
                                       PointDistribution::kUniform, rng);
          DimRedOrpKwIndex<3> index(pts, &corpus, opt);
          MaybeAudit("DimRedOrpKwIndex<3>", index);
          return index.MemoryBytes();
        });
  QueryLatencyProbe(opt, &report);
  bench::EmitJson(&report);
  return 0;
}
