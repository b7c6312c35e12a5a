// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The scatter-gather path (DESIGN.md §6) and the static Coordinator.
//
// Every Table 1 problem is decomposable: the answer over disjoint shards is
// the union of the per-shard answers. ScatterGather is the one place that
// uses it. It owns S replicas of any type modelling ScatterReplica — a
// RunBatch(batch) that answers the whole batch over the replica's slice as
// one ShardAnswer of sorted global-id rows (serve/shard_replica.h) — and
// Run() fans a batch out to every replica, gathers the answers in shard
// order, and merges them with serve/merge.h: naive full gather for
// reporting queries, the threshold-selection protocol (or naive gather +
// truncate) for top-t. The two coordinators differ only in where their
// replicas come from: Coordinator below builds static ShardReplicas from a
// ShardPlan; DynamicCoordinator (serve/dynamic_shard_replica.h) routes
// updates to DynamicShardReplicas.
//
// Process simulation: replicas share no mutable state with the coordinator
// or each other, and the only data crossing the replica boundary is what
// the merge protocols price in bytes. The fan-out runs replicas on a
// private pool when parallel_fanout is set, or strictly sequentially
// otherwise — the results are identical either way, because each answer
// lands in its own slot and the gather folds them in shard order.
// Sequential mode is what the scaling bench uses to measure clean per-shard
// walls on machines with fewer cores than shards.
//
// Determinism contract (DESIGN.md §6d): coordinator rows are in canonical
// ascending-id order and — with unlimited shard budgets — byte-identical to
// the unsharded engine's rows for the same batch after the same
// canonicalization (sort; truncate to t). Per-shard ops budgets trade that
// exactness for bounded per-shard work, the same trade footnote 4 prices
// for a single index.
//
// Observability: the optional registry accumulates serve.* counters —
// batches/queries, per-shard fan-out, bytes shipped (actual vs. naive),
// selection protocol rounds, budget exhaustions, per-shard candidate counts
// (the skew signal the keyword strategy is benchmarked on), and, for the
// dynamic coordinator, updates — plus the serve.num_shards gauge. Both
// coordinators therefore export the same query-side names.

#ifndef KWSC_SERVE_COORDINATOR_H_
#define KWSC_SERVE_COORDINATOR_H_

#include <concepts>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/framework.h"
#include "obs/metrics.h"
#include "serve/merge.h"
#include "serve/shard_replica.h"
#include "serve/shard_router.h"
#include "text/corpus.h"

namespace kwsc {

/// Serving-side knobs. Partitioning (strategy, shard count) lives in the
/// ShardPlan; these control how the coordinator drives the replicas.
struct ServeOptions {
  /// Ignored by both coordinators: a replica answers its batch with one
  /// plain loop, and batch parallelism comes from the shard fan-out. Kept
  /// so callers that still set it compile.
  int threads_per_shard = 1;
  /// Per-query, per-shard ops budget; 0 = unlimited (exact results).
  uint64_t per_shard_query_ops = 0;
  /// 0 = full reporting; t >= 1 = return only the t smallest ids.
  uint64_t top_t = 0;
  /// For top-t: threshold-selection merge vs. naive gather + truncate.
  bool selection_merge = true;
  /// Fan shards out on a pool (one task per replica) vs. run sequentially.
  bool parallel_fanout = true;
};

/// What ScatterGather needs of a replica: a const RunBatch, since answering
/// a batch changes no replica state.
template <typename R, typename Region>
concept ScatterReplica =
    requires(const R& replica, std::span<const BatchQuery<Region>> batch) {
      { replica.RunBatch(batch) } -> std::same_as<ShardAnswer>;
    };

template <typename ReplicaType, typename Region>
  requires ScatterReplica<ReplicaType, Region>
class ScatterGather {
 public:
  using Replica = ReplicaType;

  struct Result {
    /// One row per query, ascending global ids, truncated to top_t when
    /// set — the canonical form of the unsharded answer.
    std::vector<std::vector<ObjectId>> rows;
    /// Aggregate stats folded over shards in shard order.
    QueryStats stats;
    uint64_t budget_exhaustions = 0;
    /// Wire-cost model for this batch's merge (see serve/merge.h).
    MergeByteCounters bytes;
    double wall_micros = 0.0;
    /// Shard-local execution walls — max() models the scatter phase of a
    /// real S-process deployment, independent of how many cores this host
    /// happens to timeslice the simulation onto.
    std::vector<double> shard_wall_micros;
    double merge_micros = 0.0;
  };

  size_t num_shards() const { return replicas_.size(); }
  const Replica& replica(size_t s) const { return *replicas_[s]; }

  Result Run(std::span<const BatchQuery<Region>> batch) {
    Result out;
    out.rows.resize(batch.size());
    WallTimer timer;
    const size_t num_shards = replicas_.size();
    // Scatter: every shard runs the whole batch over its slice. Answers
    // land in disjoint slots; shard 0 runs on the calling thread. Without a
    // pool the loop calls the replicas directly: a pool-less TaskGroup would
    // run the same tasks inline, but it costs a std::function per shard on
    // every single-query batch.
    std::vector<ShardAnswer> answers(num_shards);
    if (pool_ != nullptr) {
      TaskGroup group(pool_.get());
      for (size_t s = 1; s < num_shards; ++s) {
        group.Run([this, batch, &answers, s] {
          answers[s] = replicas_[s]->RunBatch(batch);
        });
      }
      answers[0] = replicas_[0]->RunBatch(batch);
    } else {
      for (size_t s = 0; s < num_shards; ++s) {
        answers[s] = replicas_[s]->RunBatch(batch);
      }
    }
    const double scatter_end_us = timer.ElapsedMicros();
    // Gather: fold shard answers in shard order (the determinism contract).
    std::vector<uint64_t> shard_candidates(num_shards, 0);
    out.shard_wall_micros.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      MergeQueryStats(answers[s].stats, &out.stats);
      out.budget_exhaustions += answers[s].budget_exhaustions;
      out.shard_wall_micros.push_back(answers[s].wall_micros);
      for (const auto& row : answers[s].rows) {
        shard_candidates[s] += row.size();
      }
    }
    // Merge, one query at a time over its S disjoint sorted rows.
    std::vector<const std::vector<ObjectId>*> shard_rows(num_shards);
    for (size_t i = 0; i < batch.size(); ++i) {
      for (size_t s = 0; s < num_shards; ++s) {
        shard_rows[s] = &answers[s].rows[i];
      }
      if (options_.top_t > 0 && options_.selection_merge) {
        out.rows[i] = SelectTopT(shard_rows, options_.top_t, &out.bytes);
        continue;
      }
      // Full gather. For full reporting the answer is the whole candidate
      // set, so there is nothing for selection to save — both protocols
      // ship it all.
      const uint64_t naive = NaiveShipBytes(shard_rows);
      out.bytes.naive += naive;
      out.bytes.selection += naive;
      out.rows[i] = MergeAllRows(shard_rows);
      if (options_.top_t > 0 && out.rows[i].size() > options_.top_t) {
        out.rows[i].resize(options_.top_t);
      }
    }
    out.merge_micros = timer.ElapsedMicros() - scatter_end_us;
    out.wall_micros = timer.ElapsedMicros();
    if (registry_ != nullptr) {
      registry_->AddCounter("serve.batches", 1);
      registry_->AddCounter("serve.queries", batch.size());
      registry_->AddCounter("serve.shard_fanout", batch.size() * num_shards);
      registry_->AddCounter("serve.bytes_shipped", out.bytes.selection);
      registry_->AddCounter("serve.bytes_naive", out.bytes.naive);
      registry_->AddCounter("serve.merge_rounds", out.bytes.selection_rounds);
      registry_->AddCounter("serve.budget_exhausted", out.budget_exhaustions);
      for (size_t s = 0; s < num_shards; ++s) {
        registry_->AddCounter("serve.shard" + std::to_string(s) +
                                  ".candidates",
                              shard_candidates[s]);
      }
    }
    return out;
  }

 protected:
  /// Takes ownership of the (non-empty) replica set; one pool worker per
  /// shard beyond the first when the fan-out is parallel.
  ScatterGather(std::vector<std::unique_ptr<Replica>> replicas,
                const ServeOptions& options, obs::MetricsRegistry* registry)
      : options_(options),
        registry_(registry),
        replicas_(std::move(replicas)) {
    KWSC_CHECK(!replicas_.empty());
    if (options_.parallel_fanout && replicas_.size() > 1) {
      pool_ = std::make_unique<ThreadPool>(
          static_cast<int>(replicas_.size()) - 1);
    }
    if (registry_ != nullptr) {
      registry_->SetGauge("serve.num_shards",
                          static_cast<double>(replicas_.size()));
    }
  }

  Replica& mutable_replica(size_t s) { return *replicas_[s]; }

  /// serve.updates, for coordinators whose replicas take updates.
  void CountUpdates(uint64_t n) {
    if (registry_ != nullptr) registry_->AddCounter("serve.updates", n);
  }

 private:
  ServeOptions options_;
  obs::MetricsRegistry* registry_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<ThreadPool> pool_;
};

/// ScatterGather over S static ShardReplicas built from one ShardPlan.
template <typename Index, typename Region = typename Index::BoxType>
class Coordinator : public ScatterGather<ShardReplica<Index, Region>, Region> {
  using Base = ScatterGather<ShardReplica<Index, Region>, Region>;

 public:
  using PointType = typename Index::PointType;
  using Replica = typename Base::Replica;

  /// Builds one replica per plan shard over private slices of
  /// (points, corpus). The inputs are only read during construction.
  Coordinator(const ShardPlan& plan, std::span<const PointType> points,
              const Corpus& corpus, const FrameworkOptions& index_options,
              const ServeOptions& options,
              obs::MetricsRegistry* registry = nullptr)
      : Base(BuildReplicas(plan, points, corpus, index_options, options),
             options, registry) {}

 private:
  static std::vector<std::unique_ptr<Replica>> BuildReplicas(
      const ShardPlan& plan, std::span<const PointType> points,
      const Corpus& corpus, const FrameworkOptions& index_options,
      const ServeOptions& options) {
    KWSC_CHECK(plan.members.size() == plan.num_shards);
    KWSC_CHECK(points.size() == corpus.num_objects());
    std::vector<std::unique_ptr<Replica>> replicas;
    for (const std::vector<ObjectId>& members : plan.members) {
      replicas.push_back(std::make_unique<Replica>(
          std::span<const ObjectId>(members), points, corpus, index_options,
          options.per_shard_query_ops));
    }
    return replicas;
  }
};

}  // namespace kwsc

#endif  // KWSC_SERVE_COORDINATOR_H_
