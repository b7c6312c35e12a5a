// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Round-trip tests for the binary stream archives and the corpus. Index
// persistence is the v2 flat container, covered by flat_layout_test and
// golden_format_test.

#include <gtest/gtest.h>

#include <sstream>

#include "common/random.h"
#include "common/serialize.h"
#include "text/corpus.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

TEST(Archive, PodAndVecRoundTrip) {
  std::stringstream stream;
  {
    OutputArchive ar(&stream);
    ar.Magic("TEST", 7);
    ar.Pod<uint32_t>(42);
    ar.Pod<double>(3.25);
    ar.Vec(std::vector<uint64_t>{1, 2, 3});
    ar.Vec(std::vector<uint16_t>{});
    ASSERT_TRUE(ar.ok());
  }
  InputArchive ar(&stream);
  EXPECT_EQ(ar.Magic("TEST"), 7u);
  EXPECT_EQ(ar.Pod<uint32_t>(), 42u);
  EXPECT_EQ(ar.Pod<double>(), 3.25);
  EXPECT_EQ(ar.Vec<uint64_t>(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_TRUE(ar.Vec<uint16_t>().empty());
}

TEST(ArchiveDeath, WrongMagicAborts) {
  std::stringstream stream;
  {
    OutputArchive ar(&stream);
    ar.Magic("AAAA", 1);
  }
  InputArchive ar(&stream);
  EXPECT_DEATH(ar.Magic("BBBB"), "magic mismatch");
}

TEST(ArchiveDeath, TruncatedInputAborts) {
  std::stringstream stream;
  {
    OutputArchive ar(&stream);
    ar.Pod<uint16_t>(1);
  }
  InputArchive ar(&stream);
  EXPECT_DEATH(ar.Pod<uint64_t>(), "truncated");
}

TEST(ArchiveDeath, VecLengthBeyondStreamAborts) {
  // A corrupt archive declaring a (plausible-looking) length far beyond the
  // bytes actually present must die in the remaining-bytes clamp, before
  // the allocation of size * sizeof(T).
  std::stringstream stream;
  {
    OutputArchive ar(&stream);
    ar.Pod<uint64_t>(uint64_t{1} << 30);  // claims 2^30 elements...
    ar.Pod<uint32_t>(7);                  // ...but only 4 bytes follow
  }
  InputArchive ar(&stream);
  EXPECT_DEATH(ar.Vec<uint64_t>(), "exceeds remaining archive bytes");
}

TEST(ArchiveDeath, VecLengthSlightlyBeyondStreamAborts) {
  // Off-by-one at the boundary: N elements declared, N-1 present.
  std::stringstream stream;
  {
    OutputArchive ar(&stream);
    ar.Pod<uint64_t>(4);
    ar.Pod<uint32_t>(1);
    ar.Pod<uint32_t>(2);
    ar.Pod<uint32_t>(3);
  }
  InputArchive ar(&stream);
  EXPECT_DEATH(ar.Vec<uint32_t>(), "exceeds remaining archive bytes");
}

TEST(Archive, BufferedWriterMatchesUnbufferedByteForByte) {
  // The coalescing buffer is a pure transport optimization: the byte stream
  // must equal one produced by writing each value straight to the stream.
  std::stringstream buffered;
  std::stringstream raw;
  std::vector<uint64_t> big(20000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = i * 2654435761u;
  {
    OutputArchive ar(&buffered);
    ar.Magic("TEST", 3);
    for (uint32_t i = 0; i < 5000; ++i) ar.Pod<uint32_t>(i);  // Many tiny Pods.
    ar.Vec(big);  // One payload far beyond the flush threshold.
    ar.Pod<uint8_t>(0xAB);
  }
  {
    raw.write("TEST", 4);
    const uint32_t version = 3;
    raw.write(reinterpret_cast<const char*>(&version), sizeof(version));
    for (uint32_t i = 0; i < 5000; ++i) {
      raw.write(reinterpret_cast<const char*>(&i), sizeof(i));
    }
    const uint64_t count = big.size();
    raw.write(reinterpret_cast<const char*>(&count), sizeof(count));
    raw.write(reinterpret_cast<const char*>(big.data()),
              static_cast<std::streamsize>(big.size() * sizeof(uint64_t)));
    const uint8_t tail = 0xAB;
    raw.write(reinterpret_cast<const char*>(&tail), sizeof(tail));
  }
  EXPECT_EQ(buffered.str(), raw.str());
}

TEST(Archive, FlushOrdersBufferedBytesBeforeRawStreamWrites) {
  // The nested-save hazard: a live archive plus a direct stream write must
  // produce bytes in program order once Flush() is called in between. This
  // is the contract LinfNnIndex::Save (archive header, then engine save to
  // the same stream) depends on.
  std::stringstream stream;
  {
    OutputArchive ar(&stream);
    ar.Pod<uint32_t>(0x11111111);
    ar.Flush();
    const uint32_t nested = 0x22222222;
    stream.write(reinterpret_cast<const char*>(&nested), sizeof(nested));
    ar.Pod<uint32_t>(0x33333333);
  }
  InputArchive in(&stream);
  EXPECT_EQ(in.Pod<uint32_t>(), 0x11111111u);
  EXPECT_EQ(in.Pod<uint32_t>(), 0x22222222u);
  EXPECT_EQ(in.Pod<uint32_t>(), 0x33333333u);
}

TEST(Archive, VecLengthExactlyAtStreamEndReads) {
  std::stringstream stream;
  {
    OutputArchive ar(&stream);
    ar.Vec(std::vector<uint32_t>{1, 2, 3});
  }
  InputArchive ar(&stream);
  EXPECT_EQ(ar.Vec<uint32_t>(), (std::vector<uint32_t>{1, 2, 3}));
}

TEST(CorpusSerialize, RoundTripPreservesEverything) {
  Rng rng(171);
  CorpusSpec spec;
  spec.num_objects = 300;
  spec.vocab_size = 50;
  Corpus original = GenerateCorpus(spec, &rng);
  std::stringstream stream;
  original.Save(&stream);
  Corpus loaded = Corpus::Load(&stream);
  ASSERT_EQ(loaded.num_objects(), original.num_objects());
  EXPECT_EQ(loaded.total_weight(), original.total_weight());
  EXPECT_EQ(loaded.vocab_size(), original.vocab_size());
  for (ObjectId e = 0; e < original.num_objects(); ++e) {
    EXPECT_EQ(loaded.doc(e), original.doc(e));
  }
}

}  // namespace
}  // namespace kwsc
