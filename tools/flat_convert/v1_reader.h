// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Reader for the retired v1 stream-format index files ("KWO1" ORP-KW,
// "KWS1" SP-KW-Box, "KWN1" L∞-NN; version 1), converting them to the v2
// flat container by rebuilding.
//
// The Section 3 construction is a deterministic function of the points, the
// documents and the build options (weight-balanced cuts, id-broken rank
// space), so a v1 file's points and options fully determine its tree. The
// reader therefore parses only the v1 header, the options and the points,
// checks them against the corpus the file was written over, builds the
// index through its public constructor and writes SaveFlat. The rebuilt
// container is byte-identical to SaveFlat of the index the v1 file held
// (tests/golden: every *_v1.bin converts to its *_v2.bin).
//
// v1 layouts, as far as the reader goes (PODs little-endian; Vec = uint64
// length + elements):
//   KWO1: magic, u32 version, u32 dim, PersistedFrameworkOptions,
//         u64 num_objects, u64 total_weight, u64 num_points,
//         dim x { Vec<double> sorted_coords, Vec<int64> ranks },
//         Vec<Point<dim, int64>> rank_points, nodes...
//   KWS1: magic, u32 version, u32 dim, PersistedFrameworkOptions,
//         u64 num_objects, u64 total_weight, Vec<Point<dim>> points,
//         u64 num_nodes, Box<dim> root cell, ...
//   KWN1: magic, u32 version, u32 dim, Vec<Point<dim>> points,
//         dim x Vec<double> sorted_coords, then a whole KWO1 stream (the
//         wrapped engine).
// Header, family, dimensionality and corpus mismatches come back as errors;
// a truncated or corrupt payload aborts through InputArchive's checks.

#ifndef KWSC_TOOLS_FLAT_CONVERT_V1_READER_H_
#define KWSC_TOOLS_FLAT_CONVERT_V1_READER_H_

#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/flat_arena.h"
#include "common/serialize.h"
#include "core/framework.h"
#include "core/nn_linf.h"
#include "core/orp_kw.h"
#include "core/sp_kw_box.h"
#include "geom/box.h"
#include "geom/point.h"
#include "text/corpus.h"

namespace kwsc {
namespace flat_convert {

/// The only version the v1 index streams were ever written at.
inline constexpr uint32_t kV1Version = 1;

namespace internal {

inline bool Fail(std::string* error, const std::string& message) {
  *error = message;
  return false;
}

struct V1Header {
  std::string magic;
  uint32_t version = 0;
  uint32_t dim = 0;
};

inline V1Header ReadHeader(InputArchive* ar) {
  V1Header header;
  const auto magic = ar->Pod<std::array<char, 4>>();
  header.magic.assign(magic.begin(), magic.end());
  header.version = ar->Pod<uint32_t>();
  header.dim = ar->Pod<uint32_t>();
  return header;
}

/// The options and corpus fingerprint every v1 family root carries.
inline bool ReadOptionsAndCorpusCheck(InputArchive* ar, const Corpus& corpus,
                                      FrameworkOptions* options,
                                      std::string* error) {
  *options = LoadFrameworkOptions(ar);
  if (ar->Pod<uint64_t>() != corpus.num_objects()) {
    return Fail(error, "corpus object count mismatch");
  }
  if (ar->Pod<uint64_t>() != corpus.total_weight()) {
    return Fail(error, "corpus weight mismatch");
  }
  return true;
}

/// KWO1 body after the header. The points come back from the rank tables,
/// point[id][d] = sorted_coords[d][ranks[d][id]]; the stored rank points
/// that follow must agree with the tables, which also catches a header whose
/// dim field does not match the payload.
template <int D>
bool ReadOrpKwBody(InputArchive* ar, const Corpus& corpus,
                   FrameworkOptions* options, std::vector<Point<D>>* points,
                   std::string* error) {
  if (!ReadOptionsAndCorpusCheck(ar, corpus, options, error)) return false;
  const uint64_t n = ar->Pod<uint64_t>();
  if (n != corpus.num_objects()) {
    return Fail(error, "rank-space size differs from the corpus");
  }
  points->assign(n, Point<D>());
  std::array<std::vector<int64_t>, D> ranks;
  for (int d = 0; d < D; ++d) {
    const std::vector<double> sorted = ar->Vec<double>();
    ranks[d] = ar->Vec<int64_t>();
    if (sorted.size() != n || ranks[d].size() != n) {
      return Fail(error, "rank table size differs from the corpus");
    }
    for (uint64_t id = 0; id < n; ++id) {
      const int64_t rank = ranks[d][id];
      if (rank < 0 || static_cast<uint64_t>(rank) >= n) {
        return Fail(error, "rank out of range");
      }
      (*points)[id][d] = sorted[static_cast<size_t>(rank)];
    }
  }
  const std::vector<Point<D, int64_t>> rank_points =
      ar->Vec<Point<D, int64_t>>();
  bool consistent = rank_points.size() == n;
  for (uint64_t id = 0; consistent && id < n; ++id) {
    for (int d = 0; d < D; ++d) {
      if (rank_points[id][d] != ranks[d][id]) consistent = false;
    }
  }
  if (!consistent) {
    return Fail(error, "rank points disagree with the rank tables (wrong "
                       "dimensionality?)");
  }
  return true;
}

/// KWS1 body after the header: options, corpus check, points; the tree that
/// follows must be non-empty exactly when the corpus is, and open with a
/// d-dimensional whole-space root cell.
template <int D>
bool ReadSpKwBoxBody(InputArchive* ar, const Corpus& corpus,
                     FrameworkOptions* options, std::vector<Point<D>>* points,
                     std::string* error) {
  if (!ReadOptionsAndCorpusCheck(ar, corpus, options, error)) return false;
  *points = ar->Vec<Point<D>>();
  if (points->size() != corpus.num_objects()) {
    return Fail(error, "point count differs from the corpus");
  }
  const uint64_t num_nodes = ar->Pod<uint64_t>();
  if ((num_nodes > 0) != !points->empty() ||
      (num_nodes > 0 && !(ar->Pod<Box<D>>() == Box<D>::Everything()))) {
    return Fail(error, "tree does not open with a whole-space root cell "
                       "(wrong dimensionality?)");
  }
  return true;
}

/// KWN1 body after the header: the wrapper's points, then the wrapped
/// engine's KWO1 stream, whose rank tables must reproduce the same points.
template <int D>
bool ReadLinfNnBody(InputArchive* ar, const Corpus& corpus,
                    FrameworkOptions* options, std::vector<Point<D>>* points,
                    std::string* error) {
  *points = ar->Vec<Point<D>>();
  // The per-dimension candidate-radius arrays are rebuilt; their lengths
  // are read field by field so a mislabeled dim fails here, not as an
  // implausible allocation.
  for (int d = 0; d < D; ++d) {
    if (ar->Pod<uint64_t>() != points->size()) {
      return Fail(error, "candidate-radius array size differs from the "
                         "point count (wrong dimensionality?)");
    }
    for (size_t i = 0; i < points->size(); ++i) ar->Pod<double>();
  }
  const V1Header engine = ReadHeader(ar);
  if (engine.magic != "KWO1" || engine.version != kV1Version ||
      engine.dim != static_cast<uint32_t>(D)) {
    return Fail(error, "wrapped engine is not a KWO1 v1 stream of the same "
                       "dimensionality");
  }
  std::vector<Point<D>> engine_points;
  if (!ReadOrpKwBody<D>(ar, corpus, options, &engine_points, error)) {
    return false;
  }
  if (*points != engine_points) {
    return Fail(error, "wrapper points disagree with the engine's");
  }
  return true;
}

/// Reads the family body, rebuilds `Index` from its points and options, and
/// writes the SaveFlat container once the family's flat validator accepts
/// it.
template <typename Index, typename ReadBody>
bool Rebuild(InputArchive* ar, const Corpus& corpus, ReadBody read_body,
             std::ostream* out, std::string* error) {
  FrameworkOptions options;
  std::vector<typename Index::PointType> points;
  if (!read_body(ar, corpus, &options, &points, error)) return false;
  const Index index(points, &corpus, options);
  std::ostringstream flat;
  index.SaveFlat(&flat);
  const std::string bytes = flat.str();
  std::string problem;
  const FlatErrorSink sink = [&problem](const std::string& message) {
    if (problem.empty()) problem = message;
  };
  if (!Index::ValidateFlat(*MmapFile::FromBytes(bytes), /*offset=*/0,
                           Index::kFlatFamilyTag, sink)) {
    return Fail(error, "rebuilt container failed validation: " + problem);
  }
  out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out->good() || Fail(error, "cannot write the flat container");
}

}  // namespace internal

/// Converts one v1 index stream written over `corpus` to the v2 flat
/// container of the same index, written to `out`. Supported: KWO1 d=1,2;
/// KWS1 d=2,3; KWN1 d=1,2 (the persisted instantiations). Returns false
/// with a message in `*error` on a wrong magic, version, dimensionality or
/// corpus; nothing is written then.
inline bool ConvertV1ToFlat(std::istream* in, const Corpus& corpus,
                            std::ostream* out, std::string* error) {
  using internal::ReadLinfNnBody;
  using internal::ReadOrpKwBody;
  using internal::ReadSpKwBoxBody;
  using internal::Rebuild;
  InputArchive ar(in);
  const internal::V1Header header = internal::ReadHeader(&ar);
  if (header.magic != "KWO1" && header.magic != "KWS1" &&
      header.magic != "KWN1") {
    return internal::Fail(error, "not a v1 index stream (magic '" +
                                     header.magic + "')");
  }
  if (header.version != kV1Version) {
    return internal::Fail(error, "unsupported " + header.magic +
                                     " version " +
                                     std::to_string(header.version));
  }
  const uint32_t dim = header.dim;
  if (header.magic == "KWO1" && dim == 1) {
    return Rebuild<OrpKwIndex<1>>(&ar, corpus, ReadOrpKwBody<1>, out, error);
  }
  if (header.magic == "KWO1" && dim == 2) {
    return Rebuild<OrpKwIndex<2>>(&ar, corpus, ReadOrpKwBody<2>, out, error);
  }
  if (header.magic == "KWS1" && dim == 2) {
    return Rebuild<SpKwBoxIndex<2>>(&ar, corpus, ReadSpKwBoxBody<2>, out,
                                    error);
  }
  if (header.magic == "KWS1" && dim == 3) {
    return Rebuild<SpKwBoxIndex<3>>(&ar, corpus, ReadSpKwBoxBody<3>, out,
                                    error);
  }
  if (header.magic == "KWN1" && dim == 1) {
    return Rebuild<LinfNnIndex<1>>(&ar, corpus, ReadLinfNnBody<1>, out, error);
  }
  if (header.magic == "KWN1" && dim == 2) {
    return Rebuild<LinfNnIndex<2>>(&ar, corpus, ReadLinfNnBody<2>, out, error);
  }
  return internal::Fail(error, "unsupported dimensionality " +
                                   std::to_string(dim) + " for " +
                                   header.magic);
}

}  // namespace flat_convert
}  // namespace kwsc

#endif  // KWSC_TOOLS_FLAT_CONVERT_V1_READER_H_
