// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// One shared-nothing shard replica (DESIGN.md §6b), plus the three pieces
// every replica shares: the ShardAnswer wire shape, per-query budgets, and
// the batch loop.
//
// A replica is the process-simulated unit of the serving architecture: it
// owns a private copy of its slice of the dataset (points + Corpus) and a
// private index built over that slice — nothing is shared with the
// coordinator or with sibling replicas, so a replica could be lifted
// verbatim into its own process; the only coupling is the message boundary
// RunBatch models.
//
// Local ids are dense 0..n_s-1 in ascending global-id order (the plan's
// member lists are ascending), so translating a sorted local result to
// global ids keeps it sorted — the property the merge protocols in
// serve/merge.h rely on. ShardAnswer::SortToGlobal is that step, for the
// static replicas here and the dynamic ones in serve/dynamic_shard_replica.h
// alike.
//
// Per-shard ops budgets: the coordinator caps each query's work on each
// shard with a fresh OpsBudget (the paper's footnote-4 budgeted-termination
// primitive, here playing the scatter-gather role of a per-shard work cap).
// BudgetedIndexView adapts any index with the uniform
// Query(region, keywords, stats, budget) entry point into the 3-argument
// Query(region, keywords, stats) shape, injecting the budget per query.
// AnswerBatch is the one batch loop in the library: both replica kinds run
// it, and ParallelAnswerBatch, which splits one batch across a thread pool
// outside serving, runs it once per slice. Serving gets its parallelism from
// the shard fan-out instead, never from threads in a replica.

#ifndef KWSC_SERVE_SHARD_REPLICA_H_
#define KWSC_SERVE_SHARD_REPLICA_H_

#include <algorithm>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/ops_budget.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/framework.h"
#include "obs/histogram.h"
#include "serve/shard_router.h"
#include "text/corpus.h"
#include "text/document.h"

namespace kwsc {

/// What a replica sends back for one batch: one sorted global-id row per
/// query plus the shard's aggregate stats. wall_micros is the shard-local
/// execution wall — on a real deployment, the time this shard's process
/// was busy.
struct ShardAnswer {
  std::vector<std::vector<ObjectId>> rows;
  QueryStats stats;
  uint64_t budget_exhaustions = 0;
  double wall_micros = 0.0;

  /// Puts local rows into wire form. Local emission order is
  /// index-specific, so each row is canonicalized (sorted ascending) at the
  /// shard, then rewritten through the ascending local -> global map, which
  /// keeps it sorted — the canonical order DESIGN.md §6d's determinism
  /// contract is stated in.
  void SortToGlobal(std::span<const ObjectId> to_global) {
    for (std::vector<ObjectId>& row : rows) {
      std::sort(row.begin(), row.end());
      for (ObjectId& id : row) id = to_global[id];
    }
  }
};

/// Adapts Index::Query(region, keywords, stats, budget) to the 3-argument
/// entry point AnswerBatch calls, giving every query a fresh budget of
/// `per_query_ops` (0 = unlimited, no budget object at all).
template <typename Index, typename Region>
class BudgetedIndexView {
 public:
  BudgetedIndexView() = default;
  BudgetedIndexView(const Index* index, uint64_t per_query_ops)
      : index_(index), per_query_ops_(per_query_ops) {}

  std::vector<ObjectId> Query(const Region& q,
                              std::span<const KeywordId> keywords,
                              QueryStats* stats = nullptr) const {
    if (per_query_ops_ == 0) return index_->Query(q, keywords, stats);
    OpsBudget budget(per_query_ops_);
    return index_->Query(q, keywords, stats, &budget);
  }

 private:
  const Index* index_ = nullptr;
  uint64_t per_query_ops_ = 0;
};

/// Per-query observations a batch loop records on request: each query's
/// wall latency in nanoseconds and its work (QueryStats::ObjectsExamined).
/// The work histogram is deterministic for a given batch.
struct QueryHistograms {
  obs::Histogram latency;
  obs::Histogram work;
};

/// Answers `batch` through `view`: each query gets a fresh QueryStats, so an
/// exhausted budget counts once per query, folded in batch order. Rows stay
/// in local ids; the caller maps them and sets wall_micros. `histograms`,
/// when non-null, gains one latency and one work sample per query; serving
/// passes none, so its loop reads no clock.
template <typename View, typename Region>
ShardAnswer AnswerBatch(const View& view,
                        std::span<const BatchQuery<Region>> batch,
                        QueryHistograms* histograms = nullptr) {
  ShardAnswer answer;
  answer.rows.reserve(batch.size());
  for (const BatchQuery<Region>& q : batch) {
    QueryStats stats;
    if (histograms == nullptr) {
      answer.rows.push_back(view.Query(q.region, q.keywords, &stats));
    } else {
      const WallTimer timer;
      answer.rows.push_back(view.Query(q.region, q.keywords, &stats));
      histograms->latency.Record(static_cast<uint64_t>(timer.ElapsedNanos()));
      histograms->work.Record(stats.ObjectsExamined());
    }
    if (stats.budget_exhausted) ++answer.budget_exhaustions;
    MergeQueryStats(stats, &answer.stats);
  }
  return answer;
}

/// AnswerBatch split across `pool` (nullptr = the calling thread only): the
/// batch is cut into min(pool->parallelism(), n) contiguous slices, slice 0
/// runs on the caller, and the slice answers fold in slice order. Indexes
/// are immutable, so the slices share `view` without locks, and the outcome
/// (rows in index emission order, stats, budget count, work histogram) is
/// the one a single AnswerBatch call gives at every pool size.
template <typename View, typename Region>
ShardAnswer ParallelAnswerBatch(const View& view,
                                std::span<const BatchQuery<Region>> batch,
                                ThreadPool* pool,
                                QueryHistograms* histograms = nullptr) {
  const size_t n = batch.size();
  const size_t slices =
      pool == nullptr ? 1 : std::min<size_t>(pool->parallelism(), n);
  if (slices <= 1) return AnswerBatch(view, batch, histograms);
  std::vector<ShardAnswer> answers(slices);
  std::vector<QueryHistograms> slice_histograms(
      histograms != nullptr ? slices : 0);
  // Slice s owns [s*n/slices, (s+1)*n/slices) and writes only answers[s]
  // and slice_histograms[s].
  const auto run_slice = [&](size_t s) {
    const size_t begin = s * n / slices;
    answers[s] = AnswerBatch(
        view, batch.subspan(begin, (s + 1) * n / slices - begin),
        histograms != nullptr ? &slice_histograms[s] : nullptr);
  };
  {
    TaskGroup group(pool);
    for (size_t s = 1; s < slices; ++s) {
      group.Run([&run_slice, s] { run_slice(s); });
    }
    run_slice(0);
  }
  ShardAnswer out = std::move(answers[0]);
  out.rows.reserve(n);
  for (size_t s = 1; s < slices; ++s) {
    std::move(answers[s].rows.begin(), answers[s].rows.end(),
              std::back_inserter(out.rows));
    MergeQueryStats(answers[s].stats, &out.stats);
    out.budget_exhaustions += answers[s].budget_exhaustions;
  }
  if (histograms != nullptr) {
    for (const QueryHistograms& h : slice_histograms) {
      histograms->latency.Merge(h.latency);
      histograms->work.Merge(h.work);
    }
  }
  return out;
}

template <typename Index, typename Region = typename Index::BoxType>
class ShardReplica {
 public:
  using PointType = typename Index::PointType;

  /// Copies the member slice of (points, corpus) and builds the private
  /// index. `members` must be ascending global ids.
  ShardReplica(std::span<const ObjectId> members,
               std::span<const PointType> points, const Corpus& corpus,
               const FrameworkOptions& options, uint64_t per_query_ops) {
    to_global_.assign(members.begin(), members.end());
    std::vector<Document> docs;
    docs.reserve(members.size());
    points_.reserve(members.size());
    for (ObjectId e : members) {
      KWSC_CHECK(e < points.size());
      docs.push_back(corpus.doc(e));
      points_.push_back(points[e]);
    }
    corpus_ = Corpus(std::move(docs));
    index_ = std::make_unique<Index>(std::span<const PointType>(points_),
                                     &corpus_, options);
    view_ = BudgetedIndexView<Index, Region>(index_.get(), per_query_ops);
  }

  size_t num_objects() const { return to_global_.size(); }
  uint64_t weight() const { return corpus_.total_weight(); }
  const Index& index() const { return *index_; }

  /// Answers the batch over the private index; rows leave in wire form.
  ShardAnswer RunBatch(std::span<const BatchQuery<Region>> batch) const {
    WallTimer timer;
    ShardAnswer answer = AnswerBatch(view_, batch);
    answer.SortToGlobal(to_global_);
    answer.wall_micros = timer.ElapsedMicros();
    return answer;
  }

 private:
  std::vector<ObjectId> to_global_;  // Local id -> global id, ascending.
  std::vector<PointType> points_;
  Corpus corpus_;
  std::unique_ptr<Index> index_;
  BudgetedIndexView<Index, Region> view_;
};

}  // namespace kwsc

#endif  // KWSC_SERVE_SHARD_REPLICA_H_
