// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for the generic batch-dynamic layer (core/dynamic_index.h) across
// three families: ORP-KW (points/boxes), SP-KW-Box (points/halfspace
// conjunctions), and RR-KW (rectangles/rectangles). The hard invariants:
// batched insert/delete sequences answer exactly like a freshly built
// static index over the live object set, the multi-level auditor is clean
// at every checkpoint, and SaveFlat after quiescence is byte-identical to a
// from-scratch build. Plus: checkpoint round-trips, registry-once memory
// accounting through insert→delete→reinsert cycles, background merges
// with concurrent-consistency spot checks, and the one-carry absorption of
// an insert backlog built up behind a busy merge worker.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/dynamic_index.h"
#include "core/orp_kw.h"
#include "core/rr_kw.h"
#include "core/sp_kw_box.h"
#include "geom/halfspace.h"
#include "test_util.h"

namespace kwsc {
namespace {

using testing::ExpectAuditClean;
using testing::FlatBytes;
using testing::Sorted;

Document RandomDoc(Rng& rng) {
  std::vector<KeywordId> kws;
  const int len = 2 + static_cast<int>(rng.NextBounded(4));
  while (static_cast<int>(kws.size()) < len) {
    KeywordId w = static_cast<KeywordId>(rng.NextBounded(30));
    if (std::find(kws.begin(), kws.end(), w) == kws.end()) kws.push_back(w);
  }
  return Document(std::move(kws));
}

std::vector<KeywordId> RandomQueryKeywords(Rng& rng) {
  return {static_cast<KeywordId>(rng.NextBounded(15)),
          static_cast<KeywordId>(15 + rng.NextBounded(15))};
}

// ---- Per-family generators. ----

struct OrpFamilyCase {
  using Family = OrpKwIndex<2>;
  static Point<2> MakeGeom(Rng& rng) {
    return Point<2>{{rng.NextDouble(), rng.NextDouble()}};
  }
  static Box<2> MakeRegion(Rng& rng) {
    Box<2> q;
    for (int dim = 0; dim < 2; ++dim) {
      const double a = rng.NextDouble();
      const double b = rng.NextDouble();
      q.lo[dim] = std::min(a, b);
      q.hi[dim] = std::max(a, b);
    }
    return q;
  }
};

struct SpFamilyCase {
  using Family = SpKwBoxIndex<2>;
  static Point<2> MakeGeom(Rng& rng) {
    return Point<2>{{rng.NextDouble(), rng.NextDouble()}};
  }
  static ConvexQuery<2> MakeRegion(Rng& rng) {
    ConvexQuery<2> q;
    for (int i = 0; i < 3; ++i) {
      Halfspace<2> h;
      h.coeffs = {rng.NextDouble() * 2 - 1, rng.NextDouble() * 2 - 1};
      h.rhs = rng.NextDouble() * 1.2 - 0.2;
      q.constraints.push_back(h);
    }
    return q;
  }
};

struct RrFamilyCase {
  using Family = RrKwIndex<1>;
  static Box<1> MakeGeom(Rng& rng) {
    Box<1> r;
    r.lo[0] = rng.NextDouble();
    r.hi[0] = r.lo[0] + rng.NextDouble() * 0.1;
    return r;
  }
  static Box<1> MakeRegion(Rng& rng) {
    Box<1> q;
    const double a = rng.NextDouble();
    const double b = rng.NextDouble();
    q.lo[0] = std::min(a, b);
    q.hi[0] = std::max(a, b);
    return q;
  }
};

template <typename Case>
class DynamicIndexTest : public ::testing::Test {};

using FamilyCases =
    ::testing::Types<OrpFamilyCase, SpFamilyCase, RrFamilyCase>;
TYPED_TEST_SUITE(DynamicIndexTest, FamilyCases);

// Batched inserts and tombstone deletes, checked at every round against a
// freshly built static index over the live object set: identical answers,
// clean multi-level audits, and (after quiescence) byte-identical SaveFlat.
TYPED_TEST(DynamicIndexTest, BatchedUpdatesMatchFreshStaticBuild) {
  using Case = TypeParam;
  using Family = typename Case::Family;
  using Geom = typename Family::DynamicGeomType;
  Rng rng(977);
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<Family> dynamic(opt, /*buffer_capacity=*/16);

  std::vector<Geom> geoms;
  std::vector<Document> docs;
  std::vector<bool> live;
  for (int round = 0; round < 10; ++round) {
    const size_t batch = 1 + rng.NextBounded(40);
    std::vector<Geom> batch_geoms;
    std::vector<Document> batch_docs;
    for (size_t i = 0; i < batch; ++i) {
      batch_geoms.push_back(Case::MakeGeom(rng));
      batch_docs.push_back(RandomDoc(rng));
      geoms.push_back(batch_geoms.back());
      docs.push_back(batch_docs.back());
      live.push_back(true);
    }
    const ObjectId first = dynamic.InsertBatch(batch_geoms, batch_docs);
    EXPECT_EQ(first, static_cast<ObjectId>(geoms.size() - batch));

    if (round > 0) {
      std::vector<ObjectId> doomed;
      for (ObjectId id = 0; id < live.size(); ++id) {
        if (live[id] && rng.NextBounded(5) == 0) doomed.push_back(id);
      }
      EXPECT_EQ(dynamic.DeleteBatch(doomed), doomed.size());
      for (ObjectId id : doomed) live[id] = false;
    }

    ExpectAuditClean(dynamic);
    EXPECT_EQ(dynamic.num_objects(), geoms.size());
    EXPECT_EQ(dynamic.live_objects(),
              static_cast<size_t>(
                  std::count(live.begin(), live.end(), true)));

    // Oracle: a fresh static index over the live objects, ids translated
    // back to global insertion order.
    std::vector<Geom> live_geoms;
    std::vector<Document> live_docs;
    std::vector<ObjectId> live_ids;
    for (ObjectId id = 0; id < live.size(); ++id) {
      if (!live[id]) continue;
      live_geoms.push_back(geoms[id]);
      live_docs.push_back(docs[id]);
      live_ids.push_back(id);
    }
    const Corpus corpus(live_docs);
    const Family fresh(live_geoms, &corpus, opt);
    for (int qi = 0; qi < 6; ++qi) {
      const auto region = Case::MakeRegion(rng);
      const std::vector<KeywordId> kws = RandomQueryKeywords(rng);
      std::vector<ObjectId> want;
      for (ObjectId local : fresh.Query(region, kws)) {
        want.push_back(live_ids[local]);
      }
      std::sort(want.begin(), want.end());
      EXPECT_EQ(Sorted(dynamic.Query(region, kws)), want)
          << "round " << round << " query " << qi;
    }
  }

  // SaveFlat after quiescence == from-scratch build over the live set.
  dynamic.WaitQuiescent();
  const auto compact = dynamic.Compact();
  std::vector<Geom> live_geoms;
  std::vector<Document> live_docs;
  std::vector<ObjectId> live_ids;
  for (ObjectId id = 0; id < live.size(); ++id) {
    if (!live[id]) continue;
    live_geoms.push_back(geoms[id]);
    live_docs.push_back(docs[id]);
    live_ids.push_back(id);
  }
  EXPECT_EQ(compact.ids, live_ids);
  const Corpus corpus(live_docs);
  const Family scratch(live_geoms, &corpus, opt);
  EXPECT_EQ(FlatBytes(*compact.index), FlatBytes(scratch));
}

// The "KWDY" checkpoint round-trips: a loaded checkpoint answers like the
// original, audits clean, and re-saves byte-identically.
TYPED_TEST(DynamicIndexTest, CheckpointRoundTripsByteIdentically) {
  using Case = TypeParam;
  using Family = typename Case::Family;
  Rng rng(1789);
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<Family> dynamic(opt, /*buffer_capacity=*/8);
  for (int i = 0; i < 83; ++i) {
    const ObjectId id = dynamic.Insert(Case::MakeGeom(rng), RandomDoc(rng));
    if (i % 7 == 3) {
      EXPECT_TRUE(dynamic.Delete(id));
    }
  }

  std::ostringstream out;
  dynamic.SaveCheckpoint(&out);
  std::istringstream in(out.str());
  const auto loaded = DynamicIndex<Family>::LoadCheckpoint(&in);
  ASSERT_NE(loaded, nullptr);
  ExpectAuditClean(*loaded);
  EXPECT_EQ(loaded->num_objects(), dynamic.num_objects());
  EXPECT_EQ(loaded->live_objects(), dynamic.live_objects());
  EXPECT_EQ(loaded->ActiveLevels(), dynamic.ActiveLevels());
  for (int qi = 0; qi < 8; ++qi) {
    const auto region = Case::MakeRegion(rng);
    const std::vector<KeywordId> kws = RandomQueryKeywords(rng);
    EXPECT_EQ(Sorted(loaded->Query(region, kws)),
              Sorted(dynamic.Query(region, kws)));
  }
  std::ostringstream again;
  loaded->SaveCheckpoint(&again);
  EXPECT_EQ(out.str(), again.str());
}

// Delete semantics: tombstoning is idempotent, ids are never reused, and
// deleted objects vanish from answers immediately — before any carry
// physically drops them.
TEST(DynamicIndexDeletes, TombstonesFilterImmediately) {
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/4);
  const ObjectId a = dynamic.Insert({{0.2, 0.2}}, Document{1, 2});
  const ObjectId b = dynamic.Insert({{0.8, 0.8}}, Document{1, 2});
  const std::vector<KeywordId> kws = {1, 2};
  const Box<2> everywhere{{{0, 0}}, {{1, 1}}};
  EXPECT_EQ(Sorted(dynamic.Query(everywhere, kws)),
            (std::vector<ObjectId>{a, b}));
  EXPECT_TRUE(dynamic.Delete(a));
  EXPECT_FALSE(dynamic.Delete(a));  // Idempotent: already tombstoned.
  EXPECT_EQ(dynamic.Query(everywhere, kws), (std::vector<ObjectId>{b}));
  EXPECT_EQ(dynamic.live_objects(), 1u);
  EXPECT_EQ(dynamic.num_objects(), 2u);
  const ObjectId c = dynamic.Insert({{0.5, 0.5}}, Document{1, 2});
  EXPECT_EQ(c, 2u);  // Ids are never reused after Delete.
  ExpectAuditClean(dynamic);
}

// Registry-once accounting through insert→delete→reinsert cycles: a
// tombstoned id's document stays charged exactly once (the registry retains
// it; ids are never reused), and a reinsert of the same content charges
// exactly one more copy — never zero, never two.
TEST(DynamicIndexMemory, RegistryOnceAccountingSurvivesDeleteReinsertCycles) {
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/8);
  Rng rng(641);
  for (int i = 0; i < 8; ++i) {  // Fill to exactly one carry: empty buffer.
    dynamic.Insert({{rng.NextDouble(), rng.NextDouble()}},
                   Document{static_cast<KeywordId>(i), 100});
  }
  std::vector<KeywordId> big(10000);
  std::iota(big.begin(), big.end(), 0);
  const Document big_doc(big);
  const size_t doc_bytes = big.size() * sizeof(KeywordId);

  size_t base = dynamic.MemoryBytes();
  for (int cycle = 0; cycle < 3; ++cycle) {
    const ObjectId id = dynamic.Insert({{0.5, 0.5}}, big_doc);
    const size_t after_insert = dynamic.MemoryBytes();
    EXPECT_GE(after_insert - base, doc_bytes) << "cycle " << cycle;
    EXPECT_LT(after_insert - base, doc_bytes + doc_bytes / 2)
        << "cycle " << cycle;

    EXPECT_TRUE(dynamic.Delete(id));
    const size_t after_delete = dynamic.MemoryBytes();
    // The tombstoned registry entry is retained and charged exactly once:
    // deleting neither frees it nor double-counts it.
    EXPECT_GE(after_delete - base, doc_bytes) << "cycle " << cycle;
    EXPECT_LT(after_delete - base, doc_bytes + doc_bytes / 2)
        << "cycle " << cycle;
    base = after_delete;
  }
  ExpectAuditClean(dynamic);
}

// A carry that gathers tombstoned members drops them from the level but
// keeps them in the registry: queries stay correct and audits stay clean
// across the physical reclamation.
TEST(DynamicIndexDeletes, CarryDropsTombstonedMembers) {
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/4);
  Rng rng(733);
  std::vector<bool> live;
  for (int i = 0; i < 40; ++i) {
    const ObjectId id = dynamic.Insert(
        {{rng.NextDouble(), rng.NextDouble()}},
        Document{static_cast<KeywordId>(i % 5),
                 static_cast<KeywordId>(5 + i % 3)});
    live.push_back(true);
    if (i % 3 == 1) {
      EXPECT_TRUE(dynamic.Delete(id));
      live[id] = false;
    }
    ExpectAuditClean(dynamic);
  }
  // Tombstoned members gathered by carries were dropped; the level set now
  // holds fewer members than were ever inserted, but every live id answers.
  const Box<2> everywhere{{{0, 0}}, {{1, 1}}};
  const std::vector<KeywordId> kws = {0, 5};
  std::vector<ObjectId> want;
  for (ObjectId id = 0; id < live.size(); ++id) {
    if (live[id] && id % 5 == 0 && (5 + id % 3) == 5) want.push_back(id);
  }
  EXPECT_EQ(Sorted(dynamic.Query(everywhere, kws)), want);
  EXPECT_EQ(dynamic.num_objects(), 40u);
  EXPECT_LT(dynamic.live_objects(), 40u);
}

// Background merges: with a merge pool, a single writer's inserts/deletes
// publish immediately (queries between operations always see the full
// object set) while carries rebuild levels off-thread. At quiescence the
// audits and the compacted byte-identity hold exactly as in the
// synchronous mode.
TEST(DynamicIndexConcurrent, BackgroundMergesKeepAnswersExact) {
  ThreadPool pool(3);
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/32, &pool);
  Rng rng(1313);
  std::vector<Point<2>> points;
  std::vector<Document> docs;
  std::vector<bool> live;
  for (int step = 0; step < 1200; ++step) {
    Point<2> p{{rng.NextDouble(), rng.NextDouble()}};
    Document doc = RandomDoc(rng);
    points.push_back(p);
    docs.push_back(doc);
    live.push_back(true);
    dynamic.Insert(p, std::move(doc));
    if (step % 11 == 5) {
      const ObjectId victim = static_cast<ObjectId>(rng.NextBounded(live.size()));
      if (live[victim]) {
        EXPECT_TRUE(dynamic.Delete(victim));
        live[victim] = false;
      }
    }
    if (step % 101 != 0) continue;
    // The snapshot published by the Insert above already includes every
    // object: merges change structure, never membership.
    const Box<2> q = OrpFamilyCase::MakeRegion(rng);
    const std::vector<KeywordId> kws = RandomQueryKeywords(rng);
    std::vector<ObjectId> want;
    for (ObjectId e = 0; e < points.size(); ++e) {
      if (live[e] && q.Contains(points[e]) &&
          docs[e].ContainsAll(kws.data(), kws.size())) {
        want.push_back(e);
      }
    }
    EXPECT_EQ(Sorted(dynamic.Query(q, kws)), want) << "step " << step;
    ExpectAuditClean(dynamic);  // Audits are safe mid-merge.
  }
  dynamic.WaitQuiescent();
  EXPECT_FALSE(dynamic.MergeInFlight());
  ExpectAuditClean(dynamic);

  const auto compact = dynamic.Compact();
  std::vector<Point<2>> live_points;
  std::vector<Document> live_docs;
  for (ObjectId id = 0; id < live.size(); ++id) {
    if (!live[id]) continue;
    live_points.push_back(points[id]);
    live_docs.push_back(docs[id]);
  }
  const Corpus corpus(live_docs);
  const OrpKwIndex<2> scratch(live_points, &corpus, opt);
  EXPECT_EQ(FlatBytes(*compact.index), FlatBytes(scratch));
}

// Holds a pool worker inside Hold() until Release(), so work queued behind
// it waits for as long as the test wants.
class WorkerLatch {
 public:
  void Hold() KWSC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    held_ = true;
    cv_.NotifyAll();
    while (!released_) cv_.Wait(&mu_);
  }

  void WaitHeld() KWSC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (!held_) cv_.Wait(&mu_);
  }

  void Release() KWSC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    released_ = true;
    cv_.NotifyAll();
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool held_ KWSC_GUARDED_BY(mu_) = false;
  bool released_ KWSC_GUARDED_BY(mu_) = false;
};

// A merge worker that falls behind, made deterministic: the pool's only
// worker is latched, so the first carry (the first 16 objects, planned at
// the 16th insert) queues behind the latch while the other 104 inserts — and
// `doomed`'s deletes — pile up in the buffer. Once released, the next carry
// takes the whole backlog plus slot 0 in one rebuild into slot 3 (capacity
// 128), instead of five more capacity-sized carries that would leave slots
// 0/1/2 = 16/32/64 with 8 buffered.
void ExpectBacklogAbsorbedByOneCarry(const std::vector<ObjectId>& doomed) {
  constexpr size_t kBuffer = 16;
  constexpr size_t kObjects = 120;
  ThreadPool pool(1);
  WorkerLatch latch;
  TaskGroup holder(&pool);
  holder.Run([&latch] { latch.Hold(); });
  latch.WaitHeld();

  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, kBuffer, &pool);
  Rng rng(4242);
  std::vector<Point<2>> points;
  std::vector<Document> docs;
  for (size_t i = 0; i < kObjects; ++i) {
    points.push_back(Point<2>{{rng.NextDouble(), rng.NextDouble()}});
    docs.push_back(RandomDoc(rng));
    dynamic.Insert(points.back(), docs.back());
  }
  EXPECT_TRUE(dynamic.MergeInFlight());
  EXPECT_EQ(dynamic.DeleteBatch(doomed), doomed.size());
  std::vector<bool> live(kObjects, true);
  for (ObjectId id : doomed) live[id] = false;
  latch.Release();
  dynamic.WaitQuiescent();
  holder.Wait();

  const size_t live_count = kObjects - doomed.size();
  const auto view = dynamic.DebugAuditView();
  EXPECT_TRUE(view.buffer_ids.empty());
  ASSERT_EQ(view.levels.size(), 4u);
  for (size_t slot = 0; slot < 3; ++slot) {
    EXPECT_EQ(view.levels[slot], nullptr) << "slot " << slot;
  }
  ASSERT_NE(view.levels[3], nullptr);
  EXPECT_EQ(view.levels[3]->id_map.size(), live_count);
  const auto counters = dynamic.carry_counters();
  EXPECT_EQ(counters.carries, 2u);
  EXPECT_EQ(counters.objects_rebuilt, kBuffer + live_count);

  const audit::AuditReport report = audit::AuditIndex(dynamic);
  EXPECT_TRUE(report.ok()) << report.ToString();

  for (int qi = 0; qi < 12; ++qi) {
    const Box<2> q = OrpFamilyCase::MakeRegion(rng);
    const std::vector<KeywordId> kws = RandomQueryKeywords(rng);
    std::vector<ObjectId> want;
    for (ObjectId e = 0; e < kObjects; ++e) {
      if (live[e] && q.Contains(points[e]) &&
          docs[e].ContainsAll(kws.data(), kws.size())) {
        want.push_back(e);
      }
    }
    EXPECT_EQ(Sorted(dynamic.Query(q, kws)), want) << "query " << qi;
  }

  const auto compact = dynamic.Compact();
  std::vector<Point<2>> live_points;
  std::vector<Document> live_docs;
  for (ObjectId id = 0; id < kObjects; ++id) {
    if (!live[id]) continue;
    live_points.push_back(points[id]);
    live_docs.push_back(docs[id]);
  }
  const Corpus corpus(live_docs);
  const OrpKwIndex<2> scratch(live_points, &corpus, opt);
  EXPECT_EQ(FlatBytes(*compact.index), FlatBytes(scratch));
}

TEST(DynamicIndexConcurrent, BacklogIsAbsorbedByOneCarry) {
  ExpectBacklogAbsorbedByOneCarry({});
}

// Deletes while the worker is latched: ids 3 and 9 sit in the queued first
// carry (built with them, dropped by the second), the rest in the backlog.
TEST(DynamicIndexConcurrent, BacklogCarryDropsTombstones) {
  ExpectBacklogAbsorbedByOneCarry({3, 9, 50, 77, 119});
}

// A checkpoint whose buffer names an id past the registry is rejected at
// load, before any snapshot reads the registry at that id.
TEST(DynamicIndexCheckpointDeath, OutOfRangeBufferIdAborts) {
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/8);
  Rng rng(97);
  for (int i = 0; i < 5; ++i) {
    dynamic.Insert({{rng.NextDouble(), rng.NextDouble()}}, RandomDoc(rng));
  }
  std::ostringstream out;
  dynamic.SaveCheckpoint(&out);
  std::string bytes = out.str();
  // No carry has run, so the stream ends with the buffer id list, whose last
  // entry is id 4.
  ObjectId last = 0;
  std::memcpy(&last, bytes.data() + bytes.size() - sizeof(last), sizeof(last));
  ASSERT_EQ(last, 4u);
  const ObjectId bogus = 0x7ffffff0;
  std::memcpy(bytes.data() + bytes.size() - sizeof(bogus), &bogus,
              sizeof(bogus));
  std::istringstream in(bytes);
  EXPECT_DEATH(DynamicIndex<OrpKwIndex<2>>::LoadCheckpoint(&in),
               "buffer id 2147483632 out of range");
}

// Saves `dynamic`, overwrites the ObjectId that sits `from_end` bytes before
// the end of the stream (after checking it reads `want`), and returns the
// patched bytes.
std::string PatchCheckpointId(const DynamicIndex<OrpKwIndex<2>>& dynamic,
                              size_t from_end, ObjectId want, ObjectId patch) {
  std::ostringstream out;
  dynamic.SaveCheckpoint(&out);
  std::string bytes = out.str();
  char* at = bytes.data() + bytes.size() - from_end;
  ObjectId found = 0;
  std::memcpy(&found, at, sizeof(found));
  EXPECT_EQ(found, want);
  std::memcpy(at, &patch, sizeof(patch));
  return bytes;
}

// A buffer that repeats an id a level also holds would silently displace
// the id it overwrote; the loader rejects it.
TEST(DynamicIndexCheckpointDeath, BufferIdRepeatedInLevelAborts) {
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/4);
  Rng rng(98);
  for (int i = 0; i < 5; ++i) {
    dynamic.Insert({{rng.NextDouble(), rng.NextDouble()}}, RandomDoc(rng));
  }
  // Ids 0-3 sit in slot 0 and id 4 in the buffer, so the stream ends with
  // the buffer list [4], then slot 0: a presence byte and the u64-prefixed
  // id map [0, 1, 2, 3].
  ASSERT_EQ(dynamic.num_levels(), 1u);
  const std::string bytes = PatchCheckpointId(
      dynamic, 1 + 8 + 4 * sizeof(ObjectId) + sizeof(ObjectId), 4, 0);
  std::istringstream in(bytes);
  EXPECT_DEATH(DynamicIndex<OrpKwIndex<2>>::LoadCheckpoint(&in),
               "checkpoint stores id 0 more than once");
}

// A tombstoned id a carry dropped may be stored nowhere; a live one may not.
TEST(DynamicIndexCheckpointDeath, LiveIdStoredNowhereAborts) {
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/4);
  Rng rng(99);
  for (int i = 0; i < 4; ++i) {
    dynamic.Insert({{rng.NextDouble(), rng.NextDouble()}}, RandomDoc(rng));
  }
  ASSERT_TRUE(dynamic.Delete(1));
  for (int i = 0; i < 5; ++i) {
    dynamic.Insert({{rng.NextDouble(), rng.NextDouble()}}, RandomDoc(rng));
  }
  // The second carry dropped id 1: slot 1 holds the 7 other ids of 0-7 and
  // id 8 is buffered. The stream ends with the buffer list [8], slot 0's
  // absent byte, then slot 1's presence byte and 7-id map. Renaming the
  // buffered 8 to the dead 1 leaves live id 8 stored nowhere.
  ASSERT_EQ(dynamic.num_levels(), 2u);
  const std::string bytes = PatchCheckpointId(
      dynamic, 1 + 1 + 8 + 7 * sizeof(ObjectId) + sizeof(ObjectId), 8, 1);
  std::istringstream in(bytes);
  EXPECT_DEATH(DynamicIndex<OrpKwIndex<2>>::LoadCheckpoint(&in),
               "checkpoint stores live id 8 nowhere");
}

// A repeated tombstone would over-subtract the live count.
TEST(DynamicIndexCheckpointDeath, RepeatedDeadIdAborts) {
  FrameworkOptions opt;
  opt.k = 2;
  DynamicIndex<OrpKwIndex<2>> dynamic(opt, /*buffer_capacity=*/8);
  Rng rng(100);
  for (int i = 0; i < 5; ++i) {
    dynamic.Insert({{rng.NextDouble(), rng.NextDouble()}}, RandomDoc(rng));
  }
  ASSERT_TRUE(dynamic.Delete(1));
  ASSERT_TRUE(dynamic.Delete(2));
  // No carry has run: the stream ends with dead ids [1, 2], then the
  // u64-prefixed buffer list [0..4].
  const std::string bytes = PatchCheckpointId(
      dynamic, 5 * sizeof(ObjectId) + 8 + sizeof(ObjectId), 2, 1);
  std::istringstream in(bytes);
  EXPECT_DEATH(DynamicIndex<OrpKwIndex<2>>::LoadCheckpoint(&in),
               "checkpoint lists dead id 1 twice");
}

}  // namespace
}  // namespace kwsc
