// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// flat_convert: convert a v1 stream-format index file to the v2 flat
// container (DESIGN.md, "On-disk layout v2") by rebuilding it from the
// points and options the v1 file stores (v1_reader.h).
//
//   $ flat_convert <corpus-file> <v1-index-file> <v2-output-file>
//
// The corpus file is the Corpus::Save stream the index was built over. The
// output is written only after the rebuilt container passes the family's
// flat validator; any mismatch exits non-zero with a message.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "flat_convert/v1_reader.h"
#include "text/corpus.h"

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: %s <corpus-file> <v1-index-file> <v2-output-file>\n",
                 argv[0]);
    return 2;
  }
  std::ifstream corpus_in(argv[1], std::ios::binary);
  std::ifstream index_in(argv[2], std::ios::binary);
  if (!corpus_in || !index_in) {
    std::fprintf(stderr, "flat_convert: cannot read %s\n",
                 corpus_in ? argv[2] : argv[1]);
    return 1;
  }
  const kwsc::Corpus corpus = kwsc::Corpus::Load(&corpus_in);
  std::ostringstream flat;
  std::string error;
  if (!kwsc::flat_convert::ConvertV1ToFlat(&index_in, corpus, &flat, &error)) {
    std::fprintf(stderr, "flat_convert: %s: %s\n", argv[2], error.c_str());
    return 1;
  }
  std::ofstream out(argv[3], std::ios::binary | std::ios::trunc);
  out << flat.str();
  if (!out.good()) {
    std::fprintf(stderr, "flat_convert: cannot write %s\n", argv[3]);
    return 1;
  }
  std::printf("flat_convert: %s -> %s (%zu bytes)\n", argv[2], argv[3],
              flat.str().size());
  return 0;
}
