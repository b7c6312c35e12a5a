// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Golden-format tests: the committed byte streams under tests/golden/ are
// the ground truth for the v2 flat format of the persisted families, the
// corpus and the batch-dynamic checkpoint, and the committed v1 index
// streams are the fixtures of the v1 -> v2 converter (tools/flat_convert).
// Properties checked:
//
//   1. Regeneration — building the golden workload today and saving it
//      produces the committed bytes exactly. Any divergence means the
//      serialization code changed the format (deliberately or not); the
//      FORMATS.lock drift gate will demand the version bump, this test
//      demands the golden refresh (tests/golden_util.h says how).
//   2. Conversion — every v1 fixture converts, by rebuild, to the bytes of
//      its committed v2 counterpart; a wrong corpus, dimensionality,
//      version or magic is rejected.
//   3. Health — every committed v2 file loads, and the loaded index passes
//      its deep structural audit, so the goldens keep exercising the real
//      validation paths, not just framing.

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "audit/index_auditor.h"
#include "common/flat_arena.h"
#include "core/dynamic_index.h"
#include "flat_convert/v1_reader.h"
#include "golden_util.h"
#include "test_util.h"

namespace kwsc {
namespace {

#ifndef KWSC_SOURCE_DIR
#error "golden_format_test requires the KWSC_SOURCE_DIR compile definition"
#endif

std::string GoldenPath(const std::string& name) {
  return std::string(KWSC_SOURCE_DIR) + "/tests/golden/" + name;
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(GoldenPath(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name
                         << "; regenerate: build/tests/make_golden "
                            "tests/golden";
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

TEST(GoldenFormat, RegenerationIsByteIdentical) {
  for (const golden::GoldenFile& file : golden::RenderAll()) {
    const std::string committed = ReadGolden(file.name);
    ASSERT_FALSE(file.bytes.empty()) << file.name;
    EXPECT_EQ(committed.size(), file.bytes.size()) << file.name;
    EXPECT_TRUE(committed == file.bytes)
        << file.name
        << ": serialization output drifted from the committed golden; if "
           "the format change is deliberate, bump the version constant "
           "(src/core/format_versions.h), regenerate FORMATS.lock and the "
           "goldens (tests/golden_util.h header comment), and commit all "
           "three together";
  }
}

TEST(GoldenFormat, CorpusV1LoadsAndMatches) {
  std::istringstream in(ReadGolden("corpus_v1.bin"));
  const Corpus loaded = Corpus::Load(&in);
  const Corpus built = golden::MakeCorpus();
  ASSERT_EQ(loaded.num_objects(), built.num_objects());
  EXPECT_EQ(loaded.vocab_size(), built.vocab_size());
  for (ObjectId e = 0; e < built.num_objects(); ++e) {
    for (KeywordId w = 0; w < built.vocab_size(); ++w) {
      EXPECT_EQ(loaded.Contains(e, w), built.Contains(e, w));
    }
  }
}

void ExpectAuditReportClean(const audit::AuditReport& report) {
  EXPECT_TRUE(report.ok()) << report.ToString();
}

/// Converts a v1 fixture over `corpus`; returns false with `*error` set when
/// the converter rejects it.
bool ConvertV1(const std::string& v1_bytes, const Corpus& corpus,
               std::string* flat_bytes, std::string* error) {
  std::istringstream in(v1_bytes);
  std::ostringstream out;
  const bool ok = flat_convert::ConvertV1ToFlat(&in, corpus, &out, error);
  *flat_bytes = out.str();
  return ok;
}

TEST(GoldenFormat, V1FixturesConvertToCommittedV2) {
  const Corpus corpus = golden::MakeCorpus();
  for (const golden::V1Fixture& fixture : golden::V1Fixtures()) {
    std::string converted;
    std::string error;
    ASSERT_TRUE(ConvertV1(ReadGolden(fixture.v1_name), corpus, &converted,
                          &error))
        << fixture.v1_name << ": " << error;
    EXPECT_TRUE(converted == ReadGolden(fixture.v2_name))
        << fixture.v1_name << " does not convert to " << fixture.v2_name;
  }
}

TEST(GoldenFormat, OrpKwV2LoadsAuditClean) {
  const Corpus corpus = golden::MakeCorpus();
  const auto file = MmapFile::Open(GoldenPath("orp_kw_v2.bin"));
  ASSERT_NE(file, nullptr);
  ExpectAuditReportClean(audit::AuditFlatFile<OrpKwIndex<2>>(*file));
  const OrpKwIndex<2> loaded = OrpKwIndex<2>::LoadFlat(file, &corpus);
  ExpectAuditReportClean(audit::AuditIndex(loaded));
}

TEST(GoldenFormat, SpKwBoxV2LoadsAuditClean) {
  const Corpus corpus = golden::MakeCorpus();
  const auto file = MmapFile::Open(GoldenPath("sp_kw_box_v2.bin"));
  ASSERT_NE(file, nullptr);
  ExpectAuditReportClean(audit::AuditFlatFile<SpKwBoxIndex<2>>(*file));
  const SpKwBoxIndex<2> loaded = SpKwBoxIndex<2>::LoadFlat(file, &corpus);
  ExpectAuditReportClean(audit::AuditIndex(loaded));
}

TEST(GoldenFormat, LinfNnV2LoadsAuditClean) {
  const Corpus corpus = golden::MakeCorpus();
  const auto file = MmapFile::Open(GoldenPath("linf_nn_v2.bin"));
  ASSERT_NE(file, nullptr);
  ExpectAuditReportClean(audit::AuditFlatFile<LinfNnIndex<2>>(*file));
  const LinfNnIndex<2> loaded = LinfNnIndex<2>::LoadFlat(file, &corpus);
  ExpectAuditReportClean(audit::AuditIndex(audit::AuditAccess::Engine(loaded)));
  const LinfNnIndex<2> built(golden::MakePoints(), &corpus,
                             golden::MakeOptions());
  const std::vector<KeywordId> kws = {0, 5};
  for (uint64_t t = 1; t <= 3; ++t) {
    EXPECT_EQ(loaded.Query(Point<2>{{3, 3}}, t, kws),
              built.Query(Point<2>{{3, 3}}, t, kws));
  }
}

// The converter checks the v1 header and the corpus fingerprint before it
// rebuilds anything; every mismatch is an error, not a wrong index.
TEST(GoldenFormat, ConverterRejectsWrongCorpus) {
  std::vector<Document> docs = golden::MakeDocuments();
  docs.pop_back();
  const Corpus fewer_objects(std::move(docs));
  docs = golden::MakeDocuments();
  docs[0] = Document{0, 1, 2};
  const Corpus heavier(std::move(docs));
  for (const golden::V1Fixture& fixture : golden::V1Fixtures()) {
    std::string converted;
    std::string error;
    EXPECT_FALSE(ConvertV1(ReadGolden(fixture.v1_name), fewer_objects,
                           &converted, &error));
    EXPECT_NE(error.find("object count mismatch"), std::string::npos)
        << fixture.v1_name << ": " << error;
    EXPECT_FALSE(
        ConvertV1(ReadGolden(fixture.v1_name), heavier, &converted, &error));
    EXPECT_NE(error.find("weight mismatch"), std::string::npos)
        << fixture.v1_name << ": " << error;
    EXPECT_TRUE(converted.empty()) << fixture.v1_name;
  }
}

/// The fixture with the 4-byte little-endian word at `offset` replaced.
std::string PatchWord(std::string bytes, size_t offset, uint32_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  return bytes;
}

TEST(GoldenFormat, ConverterRejectsWrongDimensionality) {
  const Corpus corpus = golden::MakeCorpus();
  // Header layout: 4-byte magic, u32 version at 4, u32 dim at 8. A dim the
  // converter supports for the family but the payload was not written at
  // is caught by the payload's own cross-checks; an unsupported one by the
  // dispatch.
  const struct {
    const char* name;
    uint32_t dim;
  } cases[] = {{"orp_kw_v1.bin", 1},    {"orp_kw_v1.bin", 7},
               {"sp_kw_box_v1.bin", 3}, {"sp_kw_box_v1.bin", 1},
               {"linf_nn_v1.bin", 1},   {"linf_nn_v1.bin", 3}};
  for (const auto& c : cases) {
    std::string converted;
    std::string error;
    EXPECT_FALSE(ConvertV1(PatchWord(ReadGolden(c.name), 8, c.dim), corpus,
                           &converted, &error))
        << c.name << " as d=" << c.dim;
    EXPECT_FALSE(error.empty()) << c.name << " as d=" << c.dim;
  }
}

TEST(GoldenFormat, ConverterRejectsWrongVersion) {
  const Corpus corpus = golden::MakeCorpus();
  for (const golden::V1Fixture& fixture : golden::V1Fixtures()) {
    std::string converted;
    std::string error;
    EXPECT_FALSE(ConvertV1(PatchWord(ReadGolden(fixture.v1_name), 4, 2),
                           corpus, &converted, &error));
    EXPECT_NE(error.find("unsupported"), std::string::npos)
        << fixture.v1_name << ": " << error;
  }
}

TEST(GoldenFormat, ConverterRejectsWrongMagic) {
  const Corpus corpus = golden::MakeCorpus();
  std::string converted;
  std::string error;
  std::string bytes = ReadGolden("orp_kw_v1.bin");
  bytes.replace(0, 4, "KWX1");
  EXPECT_FALSE(ConvertV1(bytes, corpus, &converted, &error));
  EXPECT_NE(error.find("not a v1 index stream"), std::string::npos) << error;
  // A v2 container and the other stream formats are not v1 index streams
  // either.
  for (const char* name :
       {"orp_kw_v2.bin", "corpus_v1.bin", "dynamic_checkpoint_v1.bin"}) {
    EXPECT_FALSE(ConvertV1(ReadGolden(name), corpus, &converted, &error))
        << name;
    EXPECT_NE(error.find("not a v1 index stream"), std::string::npos)
        << name << ": " << error;
  }
}

TEST(GoldenFormat, DynamicCheckpointV1LoadsAuditCleanAndMatchesReplay) {
  std::istringstream in(ReadGolden("dynamic_checkpoint_v1.bin"));
  const auto loaded = DynamicIndex<OrpKwIndex<2>>::LoadCheckpoint(&in);
  ASSERT_NE(loaded, nullptr);
  testing::ExpectAuditClean(*loaded);
  const auto replayed = golden::MakeDynamic();
  EXPECT_EQ(loaded->num_objects(), replayed->num_objects());
  EXPECT_EQ(loaded->live_objects(), replayed->live_objects());
  // Same behaviour, and re-saving reproduces the committed bytes (levels
  // are rebuilt deterministically on load).
  const Box<2> range{Point<2>{{0, 0}}, Point<2>{{7, 6}}};
  for (KeywordId w1 = 0; w1 < 6; ++w1) {
    for (KeywordId w2 = w1 + 1; w2 < 6; ++w2) {
      const std::vector<KeywordId> kws = {w1, w2};
      EXPECT_EQ(loaded->Query(range, kws), replayed->Query(range, kws))
          << w1 << "," << w2;
    }
  }
  std::ostringstream resaved;
  loaded->SaveCheckpoint(&resaved);
  EXPECT_EQ(resaved.str(), ReadGolden("dynamic_checkpoint_v1.bin"));
}

// The queries a fresh build answers, the golden-loaded indexes must answer
// identically — format stability is only worth locking if the decoded
// structure behaves the same.
TEST(GoldenFormat, GoldenLoadedQueriesMatchFreshBuild) {
  const Corpus corpus = golden::MakeCorpus();
  const auto pts = golden::MakePoints();
  const OrpKwIndex<2> built(pts, &corpus, golden::MakeOptions());
  const OrpKwIndex<2> loaded = OrpKwIndex<2>::LoadFlat(
      MmapFile::Open(GoldenPath("orp_kw_v2.bin")), &corpus);
  const Box<2> range{Point<2>{{0, 0}}, Point<2>{{7, 6}}};
  // Exactly k=2 keywords per query: every unordered vocabulary pair.
  for (KeywordId w1 = 0; w1 < 6; ++w1) {
    for (KeywordId w2 = w1 + 1; w2 < 6; ++w2) {
      const std::vector<KeywordId> kws = {w1, w2};
      EXPECT_EQ(built.Query(range, kws), loaded.Query(range, kws))
          << w1 << "," << w2;
    }
  }
}

}  // namespace
}  // namespace kwsc
