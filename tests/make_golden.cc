// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Writes the rendered golden format files (tests/golden_util.h) into the
// directory given as argv[1]; the v1 index fixtures are never rewritten.
// Run once per deliberate format change, commit the output together with
// the version bump and the regenerated FORMATS.lock:
//
//   cmake --build build --target make_golden
//   build/tests/make_golden tests/golden

#include <cstdio>
#include <fstream>
#include <string>

#include "golden_util.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_golden <output-dir>\n");
    return 2;
  }
  const std::string dir = argv[1];
  for (const kwsc::golden::GoldenFile& file : kwsc::golden::RenderAll()) {
    const std::string path = dir + "/" + file.name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(file.bytes.data(),
              static_cast<std::streamsize>(file.bytes.size()));
    if (!out.good()) {
      std::fprintf(stderr, "make_golden: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("make_golden: wrote %s (%zu bytes)\n", path.c_str(),
                file.bytes.size());
  }
  return 0;
}
