// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Negative-compilation case (tests/CMakeLists.txt, "Negative compilation"):
// this TU MUST NOT compile. A LoadFlat that returns nothing (void) instead
// of the loaded index cannot hand the caller a reloaded index;
// FlatPersistable rejects it.

#include <memory>
#include <ostream>

#include "common/flat_arena.h"
#include "core/contracts.h"

namespace {

struct WrongLoadReturn {
  static constexpr uint32_t kFlatFamilyTag =
      kwsc::FlatFamilyTag('T', 'E', 'S', 'T');
  void SaveFlat(std::ostream* out) const;
  static void LoadFlat(std::shared_ptr<const kwsc::MmapFile> file,
                       const kwsc::Corpus* corpus);  // must return the index
};

static_assert(kwsc::FlatPersistable<WrongLoadReturn>);

}  // namespace
