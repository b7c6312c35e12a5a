// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// End-to-end benchmark of the kwsc library: one closed-loop client (it waits
// for each answer before sending the next, as a library embedded in a request
// thread does) drives one workload through the public surfaces of core/,
// common/flat_arena, serve/ and core/dynamic_index. Every answer is checked,
// outside the timed call, against an independent oracle (the inverted index's
// posting intersection plus a region filter over the objects live at that
// point of the stream).
//
// Workloads (see README.md for why each exists):
//   read_flat     build OrpKwIndex<2>, SaveFlat, mmap LoadFlat, query the
//                 flat-loaded index one query at a time.
//   serve_topt    space-partitioned S=4 static Coordinator, sequential
//                 fan-out, top-10 selection merge, single-query batches.
//   mixed_update  DynamicCoordinator S=2 with a background merge worker,
//                 ingesting 2^17 objects in rounds of one ApplyUpdates (64
//                 inserts + 8 deletes) and 4 queries.
//
// Usage:
//   kwsc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --out <dir> --tmp <dir>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics and writes a Chrome trace-event JSON file
// to <out>. The last stdout line is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
// Every generated input derives from --seed and exists before timing starts.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_arena.h"
#include "common/memory.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/framework.h"
#include "core/orp_kw.h"
#include "geom/rank_space.h"
#include "serve/coordinator.h"
#include "serve/dynamic_shard_replica.h"
#include "serve/shard_router.h"
#include "text/corpus.h"
#include "text/inverted_index.h"
#include "workload/generator.h"

#ifndef KWSC_PERFBENCH_BUILD_TYPE
#define KWSC_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace kwsc {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Index = OrpKwIndex<2>;
using Region = Box<2>;
using ServeCoordinator = Coordinator<Index>;
using MixedCoordinator = DynamicCoordinator<Index>;
using Update = MixedCoordinator::Update;

// ---------------------------------------------------------------- settings

constexpr uint32_t kStaticObjects = 1u << 18;   // read_flat, serve_topt.
constexpr uint32_t kDynamicObjects = 1u << 17;  // mixed_update.
constexpr size_t kQueryPool = 16384;            // Distinct queries per run.
constexpr int kSetupReps = 5;                   // setup_s is their median.
constexpr int kLoadReps = 15;                   // flat.*_ms medians.
constexpr size_t kFlatProbeQueries = 512;       // Built vs loaded, per index.
constexpr uint32_t kServeShards = 4;
constexpr uint64_t kServeTopT = 10;
constexpr uint32_t kMixedShards = 2;
constexpr size_t kMixedBufferCapacity = 1024;
constexpr uint32_t kRoundInserts = 64;
constexpr uint32_t kRoundDeletes = 8;
constexpr int kRoundQueries = 4;
constexpr double kSelectivities[] = {0.001, 0.01, 0.1};

// Metric tables: every run prints every metric of its table (BENCHMARK.json
// lists the same names; run.py checks they agree). A per-layer metric of a
// layer the workload never calls reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"build_s", "s"},
    {"bytes_per_posting", "B"},
    {"query_qps", "1/s"},
    {"query_p50_us", "us"},
    {"query_p99_us", "us"},
    {"stream_ops_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
    {"ok_ops_frac", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"geom.rank_space_s", "s"},
    {"core.build_1t_s", "s"},
    {"core.build_parallel_speedup", "ratio"},
    {"core.build.nodes", "count"},
    {"core.build.depth", "count"},
    {"core.build.memory_bytes", "B"},
    {"flat.save_s", "s"},
    {"flat.file_bytes", "B"},
    {"flat.open_ms", "ms"},
    {"flat.validate_ms", "ms"},
    {"flat.load_ms", "ms"},
    {"flat.query_p50_ratio_vs_built", "ratio"},
    {"core.query.nodes_visited", "count"},
    {"core.query.covered_nodes", "count"},
    {"core.query.crossing_nodes", "count"},
    {"core.query.pivot_checks", "count"},
    {"core.query.list_scanned", "count"},
    {"core.query.tuple_pruned", "count"},
    {"core.query.geom_pruned", "count"},
    {"core.query.results", "count"},
    {"core.query.covered_work", "count"},
    {"core.query.crossing_work", "count"},
    {"core.query.examined_per_result", "ratio"},
    {"core.query.busy_s", "s"},
    {"core.query.frequent_p50_us", "us"},
    {"core.query.cooccurring_p50_us", "us"},
    {"baseline.keywords_only_us", "us"},
    {"serve.plan_s", "s"},
    {"serve.replica_build_s", "s"},
    {"serve.scatter_us", "us"},
    {"serve.shard_wall_max_us", "us"},
    {"serve.shard_wall_sum_us", "us"},
    {"serve.fanout_overhead_us", "us"},
    {"serve.shard_imbalance", "ratio"},
    {"serve.merge_us", "us"},
    {"serve.bytes_shipped", "B"},
    {"serve.bytes_naive", "B"},
    {"serve.merge_rounds", "count"},
    {"dynamic.apply_busy_s", "s"},
    {"dynamic.update_p50_us", "us"},
    {"dynamic.update_p99_us", "us"},
    {"dynamic.merge_inflight_frac", "ratio"},
    {"dynamic.drain_ms", "ms"},
    {"dynamic.active_levels", "count"},
    {"dynamic.memory_bytes", "B"},
    {"dynamic.query.pivot_checks", "count"},
    {"dynamic.query.examined_per_result", "ratio"},
    {"dynamic.live_objects", "count"},
    {"failed_ops_frac", "ratio"},
    {"host.steal_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

// ------------------------------------------------------------ small helpers

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Exact order statistic of raw samples: the nearest-rank p-quantile
/// (the smallest sample with at least p of all samples at or below it).
double Quantile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t index =
      static_cast<size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}
double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}
double SafeRatio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// CPUs this process may run on (what `nproc` prints).
int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Threads alive in this process right now.
int LiveThreads() {
  int count = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++count;
  }
  return count;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The facts a result is only comparable under: baselines from another
/// machine, build or flush policy are never compared with this one.
std::string EnvJson(int nproc) {
  std::ostringstream os;
  os << "{\"nproc\": " << nproc << ", \"cpu_model\": "
     << JsonString(CpuModel())
     << ", \"build_type\": " << JsonString(KWSC_PERFBENCH_BUILD_TYPE)
     << ", \"flush_policy\": \"page cache, no fsync\"}";
  return os.str();
}

// ------------------------------------------------------------------ tracing

/// In-memory span recorder, written once at exit as Chrome trace-event JSON
/// (opens offline in Perfetto or chrome://tracing). Spans nest
/// pipeline -> phase -> op; each carries its own id, its parent's id, and
/// the id of the request (op) it belongs to. Off: every call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }
  uint64_t NewId() { return on_ ? ++next_id_ : 0; }

  void Record(const char* name, const char* cat, Clock::time_point start,
              Clock::time_point end, uint64_t id, uint64_t parent,
              uint64_t request = 0) {
    if (!on_) return;
    events_.push_back({name, cat, Micros(start - origin_),
                       Micros(end - start), id, parent, request});
  }

  bool Write(const std::string& path, const std::string& env_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": %s,\n"
                    "\"traceEvents\": [\n",
                 env_json.c_str());
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu, "
                   "\"request\": %llu}}%s\n",
                   e.name, e.cat, e.ts_us, e.dur_us,
                   static_cast<unsigned long long>(e.id),
                   static_cast<unsigned long long>(e.parent),
                   static_cast<unsigned long long>(e.request),
                   i + 1 < events_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Event {
    const char* name;
    const char* cat;
    double ts_us;
    double dur_us;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
  };

  bool on_;
  Clock::time_point origin_;
  uint64_t next_id_ = 0;
  std::vector<Event> events_;
};

/// A phase or step span closed at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* cat,
             uint64_t parent)
      : tracer_(tracer), name_(name), cat_(cat), parent_(parent),
        id_(tracer->NewId()), start_(Clock::now()) {}
  ~ScopedSpan() {
    tracer_->Record(name_, cat_, start_, Clock::now(), id_, parent_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  const char* cat_;
  uint64_t parent_;
  uint64_t id_;
  Clock::time_point start_;
};

/// Times `fn` and returns its wall in seconds.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return Seconds(Clock::now() - start);
}

/// Hypervisor steal time so far, in ticks of 1/USER_HZ s summed over all
/// CPUs: time the host ran something else while a CPU of this machine
/// wanted to run. It is the one slowdown the program cannot cause.
uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};  // user nice system idle iowait irq softirq steal
  in >> cpu;
  for (uint64_t& f : fields) in >> f;
  return fields[7];
}

/// Wall seconds and hypervisor steal share of one pass of a stream.
class RepeatTimer {
 public:
  RepeatTimer() : start_(Clock::now()), steal_(StealTicks()) {}
  double seconds() const { return Seconds(Clock::now() - start_); }
  double steal_share() const {
    static const double ticks_per_s = double(Nproc()) * sysconf(_SC_CLK_TCK);
    return SafeRatio(double(StealTicks() - steal_), seconds() * ticks_per_s);
  }

 private:
  Clock::time_point start_;
  uint64_t steal_;
};

/// The fastest of repeated timings of one step. Other tenants of the host
/// slow a repeat down and never speed one up (see LoopSamples), so the
/// fastest repeat is the steadiest estimate of what the code costs.
double Fastest(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::min_element(samples.begin(), samples.end());
}

// ------------------------------------------------------------------ results

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Add(const std::string& name, double value) { values_[name] += value; }

  void AddStats(const std::string& prefix, const QueryStats& s) {
    Add(prefix + "nodes_visited", double(s.nodes_visited));
    Add(prefix + "covered_nodes", double(s.covered_nodes));
    Add(prefix + "crossing_nodes", double(s.crossing_nodes));
    Add(prefix + "pivot_checks", double(s.pivot_checks));
    Add(prefix + "list_scanned", double(s.list_scanned));
    Add(prefix + "tuple_pruned", double(s.tuple_pruned));
    Add(prefix + "geom_pruned", double(s.geom_pruned));
    Add(prefix + "results", double(s.results));
    Add(prefix + "covered_work", double(s.covered_work));
    Add(prefix + "crossing_work", double(s.crossing_work));
  }

  double Get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  /// `metrics` object of the result line, one entry per spec, in order.
  std::string MetricsJson(std::span<const MetricSpec> specs) const {
    std::string out = "{";
    for (size_t i = 0; i < specs.size(); ++i) {
      out += (i ? ", " : "") + JsonString(specs[i].name) + ": {\"value\": " +
             JsonNumber(Get(specs[i].name)) + ", \"unit\": " +
             JsonString(specs[i].unit) + "}";
    }
    return out + "}";
  }

  void PrintTable(std::span<const MetricSpec> specs) const {
    for (const MetricSpec& m : specs) {
      std::printf("  %-36s %18.6g %s\n", m.name, Get(m.name), m.unit);
    }
  }

 private:
  std::map<std::string, double> values_;
};

/// Per-run op accounting: everything attempted, everything that errored or
/// answered differently from the oracle.
struct Accounting {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// ----------------------------------------------------------------- inputs

struct Dataset {
  Corpus corpus;
  std::vector<Point<2>> points;
};

struct Query {
  Region box;
  std::vector<KeywordId> keywords;
  bool frequent = false;
};

/// Clustered 2-D points, vocabulary N/16, Zipf(1.0) documents.
Dataset GenerateDataset(uint32_t num_objects, Rng* rng) {
  CorpusSpec spec;
  spec.num_objects = num_objects;
  spec.vocab_size = std::max<uint32_t>(64, num_objects / 16);
  spec.zipf_skew = 1.0;
  Dataset data;
  data.corpus = GenerateCorpus(spec, rng);
  data.points =
      GeneratePoints<2>(num_objects, PointDistribution::kClustered, rng);
  return data;
}

/// Selectivity uniform over {0.001, 0.01, 0.1}; keywords frequent with
/// probability `frequent_share`, else co-occurring in one object's document.
/// Boxes center on a point among the first `centers` objects.
Query GenerateQuery(const Dataset& data, size_t centers, double frequent_share,
                    Rng* rng) {
  Query q;
  const double selectivity = kSelectivities[rng->NextBounded(3)];
  q.frequent = rng->NextDouble() < frequent_share;
  q.box = GenerateBoxQuery(
      std::span<const Point<2>>(data.points).first(centers), selectivity, rng);
  q.keywords = PickQueryKeywords(
      data.corpus, 2,
      q.frequent ? KeywordPick::kFrequent : KeywordPick::kCooccurring, rng);
  return q;
}

std::vector<Query> GenerateQueryPool(const Dataset& data, size_t count,
                                     double frequent_share, Rng* rng) {
  std::vector<Query> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pool.push_back(
        GenerateQuery(data, data.points.size(), frequent_share, rng));
  }
  return pool;
}

// ----------------------------------------------------------------- oracle

/// The independent answer: posting-list intersection over the inverted index
/// plus a region filter, restricted to the objects `live` admits. Times
/// every call (the keywords-only baseline the index is measured against).
class Oracle {
 public:
  explicit Oracle(const Dataset* data) : data_(data), inverted_(data->corpus) {}

  template <typename Live>
  std::vector<ObjectId> Answer(const Query& q, Live&& live) {
    const auto start = Clock::now();
    std::vector<ObjectId> out;
    for (ObjectId e : inverted_.Intersect(q.keywords)) {
      if (live(e) && q.box.Contains(data_->points[e])) out.push_back(e);
    }
    micros_.push_back(Micros(Clock::now() - start));
    return out;
  }
  std::vector<ObjectId> Answer(const Query& q) {
    return Answer(q, [](ObjectId) { return true; });
  }

  const std::vector<double>& micros() const { return micros_; }

 private:
  const Dataset* data_;
  InvertedIndex inverted_;
  std::vector<double> micros_;
};

/// Keeps every answer of a run for the oracle, compactly: per query slot the
/// first answer and how many later answers repeated it exactly, plus every
/// answer that differed from its slot's first. CountFailures then compares
/// each recorded answer, repeats included, with the oracle.
class AnswerChecker {
 public:
  explicit AnswerChecker(size_t slots)
      : first_(slots), seen_(slots, 0), repeats_(slots, 0) {}

  void Record(size_t slot, std::vector<ObjectId> row) {
    if (!seen_[slot]) {
      first_[slot] = std::move(row);
      seen_[slot] = 1;
    } else if (row == first_[slot]) {
      ++repeats_[slot];
    } else {
      divergent_.emplace_back(slot, std::move(row));
    }
  }

  /// Answers recorded so far.
  uint64_t recorded() const {
    uint64_t n = divergent_.size();
    for (size_t s = 0; s < seen_.size(); ++s) n += seen_[s] + repeats_[s];
    return n;
  }

  /// Number of recorded answers that differ from `expected(slot)`.
  template <typename Expected>
  uint64_t CountFailures(Expected&& expected) const {
    std::vector<std::vector<ObjectId>> truth(first_.size());
    uint64_t failures = 0;
    for (size_t s = 0; s < first_.size(); ++s) {
      if (!seen_[s]) continue;
      truth[s] = expected(s);
      if (first_[s] != truth[s]) failures += 1 + repeats_[s];
    }
    for (const auto& [slot, row] : divergent_) {
      if (row != truth[slot]) ++failures;
    }
    return failures;
  }

 private:
  std::vector<std::vector<ObjectId>> first_;
  std::vector<uint8_t> seen_;
  std::vector<uint64_t> repeats_;
  std::vector<std::pair<size_t, std::vector<ObjectId>>> divergent_;
};

std::vector<ObjectId> Sorted(std::vector<ObjectId> row) {
  std::sort(row.begin(), row.end());
  return row;
}

std::vector<ObjectId> TopT(std::vector<ObjectId> row, uint64_t t) {
  if (row.size() > t) row.resize(t);
  return row;
}

// ------------------------------------------------------------ closed loop

/// Raw samples of one closed-loop stream, split into passes. A pass sends
/// the whole query pool, or replays the whole update stream, once, so every
/// op slot (a query of the pool, an update call of the stream, the final
/// drain) runs once per pass on the same input. Pass 0 warms the process
/// up: its answers are checked and peak_rss_mb is read at its end, but its
/// timings are not used.
///
/// The gated figures are computed from each slot's best wall over the timed
/// passes. The machine shares its host with other tenants, whose cache and
/// memory traffic slows stretches of a run down by up to 2x, for seconds to
/// minutes, with no steal time to show for it, and never speeds an op up:
/// on a 4-vCPU VM, the passes of one read_flat run ranged from 23k to 49k
/// queries/s, and whole 20 s runs from 32k to 45k. Each slot repeats across
/// the run, so its best wall is the op's cost with the least interference,
/// and a slower program raises it as much as any other wall.
class LoopSamples {
 public:
  /// The stream runs at least kMinPasses passes and `seconds`.
  static constexpr size_t kMinPasses = 6;

  /// A stream of `query_slots` queries and `other_slots` other timed steps
  /// per pass.
  explicit LoopSamples(size_t query_slots, size_t other_slots = 0)
      : best_query_us_(query_slots, kNever),
        best_other_us_(other_slots, kNever) {}

  void BeginPass() { pass_ = RepeatTimer(); }

  void AddQuery(size_t slot, double us, bool frequent) {
    latency_us_.push_back(us);
    frequent_.push_back(frequent ? 1 : 0);
    if (timed()) best_query_us_[slot] = std::min(best_query_us_[slot], us);
  }

  void AddOther(size_t slot, double us) {
    if (timed()) best_other_us_[slot] = std::min(best_other_us_[slot], us);
  }

  /// Closes the pass that sent `ops` calls (queries and update calls).
  void EndPass(uint64_t ops) {
    if (!timed()) {
      first_timed_ = latency_us_.size();
      peak_rss_mb_ = double(PeakRssBytes()) / (1024.0 * 1024.0);
    } else {
      wall_s_ += pass_.seconds();
      stolen_s_ += pass_.steal_share() * pass_.seconds();
    }
    ops_per_pass_ = ops;
    ++passes_;
  }

  /// True when the stream, `elapsed_s` old, has measured enough.
  bool Enough(double elapsed_s, double seconds) const {
    return passes_ >= kMinPasses && elapsed_s >= seconds;
  }

  /// Query calls answered, in all passes.
  size_t queries() const { return latency_us_.size(); }

  /// query_qps, query_p50_us and query_p99_us over the queries' best walls;
  /// stream_ops_per_s, one pass's ops over the sum of every slot's best
  /// wall; peak_rss_mb; the per-class medians and busy time of the raw
  /// timed samples; and the share of the timed passes' CPU time the host
  /// stole.
  void ReportTo(Report* report) const {
    std::vector<double> best;
    double query_us = 0, other_us = 0;
    for (double us : best_query_us_) {
      if (us == kNever) continue;  // Failed in every timed pass.
      best.push_back(us);
      query_us += us;
    }
    for (double us : best_other_us_) other_us += us == kNever ? 0 : us;
    report->Set("query_qps", SafeRatio(double(best.size()), query_us / 1e6));
    report->Set("query_p50_us", Quantile(best, 0.50));
    report->Set("query_p99_us", Quantile(best, 0.99));
    report->Set("stream_ops_per_s", SafeRatio(double(ops_per_pass_),
                                              (query_us + other_us) / 1e6));
    report->Set("peak_rss_mb", peak_rss_mb_);
    report->Set("host.steal_frac", SafeRatio(stolen_s_, wall_s_));

    double busy_us = 0;
    std::vector<double> frequent, cooccurring;
    for (size_t i = first_timed_; i < latency_us_.size(); ++i) {
      busy_us += latency_us_[i];
      (frequent_[i] ? frequent : cooccurring).push_back(latency_us_[i]);
    }
    report->Set("core.query.busy_s", busy_us / 1e6);
    report->Set("core.query.frequent_p50_us", Median(std::move(frequent)));
    report->Set("core.query.cooccurring_p50_us",
                Median(std::move(cooccurring)));
  }

  uint64_t errors = 0;

 private:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  bool timed() const { return passes_ > 0; }

  std::vector<double> latency_us_;  // Every answered query call, in order.
  std::vector<uint8_t> frequent_;   // Parallel to latency_us_.
  std::vector<double> best_query_us_, best_other_us_;  // Per slot.
  RepeatTimer pass_;
  size_t passes_ = 0;
  size_t first_timed_ = 0;  // Index of the first timed sample.
  uint64_t ops_per_pass_ = 0;
  double wall_s_ = 0, stolen_s_ = 0;  // Over the timed passes.
  double peak_rss_mb_ = 0;
};

/// Repeats of a build step spread over a stream, for build_s. The host's
/// slow stretches last seconds to minutes (see LoopSamples), so repeats run
/// back to back all land in the same one; between two passes of the stream,
/// one more repeat runs whenever the repeats so far took less than
/// kStreamShare of the stream's wall. Fastest() over these and the set-up's
/// repeats then samples the same stretch of time as the stream's slots.
class InterleavedRepeats {
 public:
  static constexpr double kStreamShare = 0.25;

  /// `repeat()` runs the step once and returns its wall in seconds.
  explicit InterleavedRepeats(std::function<double()> repeat)
      : repeat_(std::move(repeat)) {}

  void MaybeRun(double stream_elapsed_s) {
    if (spent_s_ >= kStreamShare * stream_elapsed_s) return;
    samples_.push_back(repeat_());
    spent_s_ += samples_.back();
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::function<double()> repeat_;
  std::vector<double> samples_;
  double spent_s_ = 0;
};

/// One closed-loop client over a query pool: sends the pool in order, waits
/// for each answer, and repeats whole passes until `out->Enough()`; between
/// passes it gives `builds` its turn.
/// `call(slot)` is the only timed work; `consume(slot, first_pass, answer,
/// start, op_id)` runs after the clock stops.
template <typename Call, typename Consume>
void RunClosedLoop(const std::vector<Query>& pool, double seconds,
                   Tracer* tracer, uint64_t phase, LoopSamples* out,
                   InterleavedRepeats* builds, Call&& call,
                   Consume&& consume) {
  const auto begin = Clock::now();
  for (size_t pass = 0; !out->Enough(Seconds(Clock::now() - begin), seconds);
       ++pass) {
    out->BeginPass();
    for (size_t slot = 0; slot < pool.size(); ++slot) {
      const uint64_t op_id = tracer->NewId();
      const auto start = Clock::now();
      std::optional<decltype(call(slot))> answer;
      try {
        answer.emplace(call(slot));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "query %zu failed: %s\n", slot, e.what());
      }
      const auto end = Clock::now();
      if (!answer) {
        ++out->errors;
        continue;
      }
      out->AddQuery(slot, Micros(end - start), pool[slot].frequent);
      tracer->Record("query", "op", start, end, op_id, phase, op_id);
      consume(slot, pass == 0, std::move(*answer), start, op_id);
    }
    out->EndPass(pool.size());
    builds->MaybeRun(Seconds(Clock::now() - begin));
  }
}

/// A scatter-gather Result's serve.* samples and derived child spans.
struct ServeSamples {
  std::vector<double> scatter_us, shard_max_us, shard_sum_us, overhead_us,
      merge_us;
  double sum_shard_max = 0, sum_shard_mean = 0;

  template <typename Result>
  void Add(const Result& r, Tracer* tracer, Clock::time_point start,
           uint64_t op_id) {
    double max_us = 0, sum_us = 0;
    for (double w : r.shard_wall_micros) {
      max_us = std::max(max_us, w);
      sum_us += w;
    }
    const double scatter = r.wall_micros - r.merge_micros;
    scatter_us.push_back(scatter);
    shard_max_us.push_back(max_us);
    shard_sum_us.push_back(sum_us);
    overhead_us.push_back(scatter - max_us);
    merge_us.push_back(r.merge_micros);
    sum_shard_max += max_us;
    sum_shard_mean +=
        sum_us / double(std::max<size_t>(1, r.shard_wall_micros.size()));
    if (tracer->on()) {
      // The coordinator's own timer starts right after the call begins, so
      // these child spans sit inside the op span.
      const auto us = [](double v) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::micro>(v));
      };
      tracer->Record("serve.scatter", "layer", start, start + us(scatter),
                     tracer->NewId(), op_id, op_id);
      tracer->Record("serve.merge", "layer", start + us(scatter),
                     start + us(r.wall_micros), tracer->NewId(), op_id, op_id);
    }
  }

  void ReportTo(Report* report) const {
    report->Set("serve.scatter_us", Median(scatter_us));
    report->Set("serve.shard_wall_max_us", Median(shard_max_us));
    report->Set("serve.shard_wall_sum_us", Median(shard_sum_us));
    report->Set("serve.fanout_overhead_us", Median(overhead_us));
    report->Set("serve.merge_us", Median(merge_us));
    report->Set("serve.shard_imbalance",
                SafeRatio(sum_shard_max, sum_shard_mean));
  }
};

void ReportBytes(const MergeByteCounters& bytes, Report* report) {
  report->Add("serve.bytes_shipped", double(bytes.selection));
  report->Add("serve.bytes_naive", double(bytes.naive));
  report->Add("serve.merge_rounds", double(bytes.selection_rounds));
}

// ------------------------------------------------------------ persistence

/// The flat files of a set of built indexes, one per index.
struct SavedIndexes {
  std::vector<std::string> paths;
  std::vector<const Corpus*> corpora;
  double save_s = 0;
  double file_bytes = 0;
};

SavedIndexes SaveIndexes(const std::vector<const Index*>& built,
                         const std::string& dir) {
  SavedIndexes saved;
  for (size_t i = 0; i < built.size(); ++i) {
    const std::string path = dir + "/index" + std::to_string(i) + ".flat";
    saved.save_s += TimeSeconds([&] {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      built[i]->SaveFlat(&out);
    });
    saved.paths.push_back(path);
    saved.corpora.push_back(&built[i]->corpus());
    saved.file_bytes += double(std::filesystem::file_size(path));
  }
  return saved;
}

/// Repeated mmap loads of every saved file; the last round's indexes stay.
struct LoadedIndexes {
  std::vector<double> open_ms, parse_ms;  // One sample per round.
  std::vector<std::unique_ptr<Index>> indexes;
};

LoadedIndexes LoadIndexes(const SavedIndexes& saved, int rounds) {
  LoadedIndexes loaded;
  for (int round = 0; round < rounds; ++round) {
    loaded.indexes.clear();
    double open_ms = 0, parse_ms = 0;
    for (size_t i = 0; i < saved.paths.size(); ++i) {
      auto start = Clock::now();
      const auto file = MmapFile::Open(saved.paths[i]);
      const auto opened = Clock::now();
      if (file == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", saved.paths[i].c_str());
        std::exit(1);
      }
      loaded.indexes.push_back(std::make_unique<Index>(
          Index::LoadFlat(file, saved.corpora[i])));
      open_ms += Micros(opened - start) / 1e3;
      parse_ms += Micros(Clock::now() - opened) / 1e3;
    }
    loaded.open_ms.push_back(open_ms);
    loaded.parse_ms.push_back(parse_ms);
  }
  return loaded;
}

/// Median wall of a full ValidateFlat pass over every saved file; a file
/// that fails validation counts as a failed op.
double ValidateIndexes(const SavedIndexes& saved, int rounds,
                       Accounting* acct) {
  std::vector<double> ms;
  for (int round = 0; round < rounds; ++round) {
    double total = 0;
    for (const std::string& path : saved.paths) {
      const auto file = MmapFile::Open(path);
      bool ok = file != nullptr;
      const auto start = Clock::now();
      if (ok) {
        ok = Index::ValidateFlat(*file, 0, Index::kFlatFamilyTag,
                                 [](const std::string& msg) {
                                   std::fprintf(stderr, "flat: %s\n",
                                                msg.c_str());
                                 });
      }
      total += Micros(Clock::now() - start) / 1e3;
      ++acct->attempted;
      if (!ok) ++acct->failed;
    }
    ms.push_back(total);
  }
  return Median(std::move(ms));
}

/// Runs the same probe queries on each built index and its flat-loaded copy,
/// alternating which goes first; differing answers are failed ops. Returns
/// p50(loaded) / p50(built).
double CompareBuiltVsLoaded(const std::vector<const Index*>& built,
                            const LoadedIndexes& loaded,
                            const std::vector<Query>& pool,
                            Accounting* acct) {
  std::vector<double> built_us, loaded_us;
  const size_t probes = std::min(kFlatProbeQueries, pool.size());
  for (size_t i = 0; i < built.size(); ++i) {
    for (size_t p = 0; p < probes; ++p) {
      const Query& q = pool[p];
      std::vector<ObjectId> rows[2];
      for (int side = 0; side < 2; ++side) {
        const bool use_loaded = (side + p) % 2 == 1;
        const Index& index = use_loaded ? *loaded.indexes[i] : *built[i];
        const auto start = Clock::now();
        std::vector<ObjectId> row = index.Query(q.box, q.keywords);
        (use_loaded ? loaded_us : built_us)
            .push_back(Micros(Clock::now() - start));
        rows[use_loaded ? 1 : 0] = Sorted(std::move(row));
      }
      ++acct->attempted;
      if (rows[0] != rows[1]) ++acct->failed;
    }
  }
  return SafeRatio(Median(std::move(loaded_us)), Median(std::move(built_us)));
}

/// Reloads the flat files of `built` (bytes_per_posting and the flat.*
/// layer metrics) and checks the loaded copies answer like the built
/// ones. Returns the last round's loaded indexes.
LoadedIndexes PersistStage(const std::vector<const Index*>& built,
                           const SavedIndexes& saved,
                           const std::vector<Query>& pool, bool trace,
                           Report* report, Accounting* acct) {
  LoadIndexes(saved, 1);  // Warm-up: the first map of a fresh file is slower.
  LoadedIndexes loaded = LoadIndexes(saved, kLoadReps);
  double postings = 0;
  for (const Index* index : built) postings += double(index->total_weight());
  report->Set("bytes_per_posting", SafeRatio(saved.file_bytes, postings));
  report->Set("flat.save_s", saved.save_s);
  report->Set("flat.file_bytes", saved.file_bytes);
  report->Set("flat.open_ms", Median(loaded.open_ms));
  report->Set("flat.load_ms", Median(loaded.parse_ms));
  if (trace) {
    report->Set("flat.validate_ms", ValidateIndexes(saved, kLoadReps, acct));
  }
  report->Set("flat.query_p50_ratio_vs_built",
              CompareBuiltVsLoaded(built, loaded, pool, acct));
  return loaded;
}

// ------------------------------------------------------- traced-only probes

/// Replays of the build layers on the workload's full point set: the
/// RankSpace<2> constructor and OrpKwIndex<2> builds on 1 and nproc threads.
void BuildProbes(const Dataset& data, int nproc, Report* report) {
  std::vector<double> rank_s;
  for (int rep = 0; rep < 3; ++rep) {
    rank_s.push_back(TimeSeconds([&] {
      const RankSpace<2> rank{std::span<const Point<2>>(data.points)};
      if (rank.MemoryBytes() == 0) std::abort();
    }));
  }
  report->Set("geom.rank_space_s", Median(std::move(rank_s)));
  FrameworkOptions opt;
  opt.k = 2;
  opt.num_threads = 1;
  const double one_thread_s = TimeSeconds(
      [&] { const Index index(data.points, &data.corpus, opt); });
  opt.num_threads = nproc;
  std::unique_ptr<Index> parallel;
  const double parallel_s = TimeSeconds([&] {
    parallel = std::make_unique<Index>(data.points, &data.corpus, opt);
  });
  report->Set("core.build_1t_s", one_thread_s);
  report->Set("core.build_parallel_speedup",
              SafeRatio(one_thread_s, parallel_s));
  report->Set("core.build.nodes", double(parallel->num_nodes()));
  report->Set("core.build.depth", double(parallel->Depth()));
  report->Set("core.build.memory_bytes", double(parallel->MemoryBytes()));
}

/// trace.overhead_frac: each query of one pool pass runs once untraced and
/// once recording its op span (alternating order); the traced total over
/// the untraced total, minus one.
template <typename Call>
double TraceOverhead(size_t queries, Tracer* tracer, uint64_t phase,
                     Call&& call) {
  double plain_us = 0, traced_us = 0;
  for (size_t slot = 0; slot < queries; ++slot) {
    for (int side = 0; side < 2; ++side) {
      const bool traced = (side + slot) % 2 == 1;
      const auto start = Clock::now();
      if (traced) {
        const uint64_t op_id = tracer->NewId();
        call(slot);
        tracer->Record("query.overhead_probe", "op", start, Clock::now(),
                       op_id, phase, op_id);
        traced_us += Micros(Clock::now() - start);
      } else {
        call(slot);
        plain_us += Micros(Clock::now() - start);
      }
    }
  }
  return SafeRatio(traced_us - plain_us, plain_us);
}

// --------------------------------------------------------------- workloads

struct RunContext {
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string tmp_dir;
  int nproc = 1;
  Tracer* tracer = nullptr;
  uint64_t pipeline = 0;
  Report* report = nullptr;
  Accounting* acct = nullptr;
};

/// Caller + pool threads must fit the machine: checks the planned count and
/// the live count at the start of the timed stream.
bool CheckThreads(const RunContext& ctx, int planned, const char* when) {
  const int live = LiveThreads();
  if (planned > ctx.nproc || live > ctx.nproc) {
    std::fprintf(stderr,
                 "%s: %d planned / %d live threads exceed nproc=%d\n", when,
                 planned, live, ctx.nproc);
    return false;
  }
  return true;
}

/// Build options of every index here: k = 2, on `threads` threads.
FrameworkOptions IndexOptions(int threads) {
  FrameworkOptions opt;
  opt.k = 2;
  opt.num_threads = threads;
  return opt;
}

void ReportGenerate(const std::vector<double>& generate_s,
                    const std::vector<double>& setup_s, Report* report) {
  report->Set("workload.generate_s", Median(generate_s));
  report->Set("setup_s", Median(setup_s));
}

/// read_flat: build, SaveFlat, mmap LoadFlat, then closed-loop queries on
/// the flat-loaded index.
bool RunReadFlat(const RunContext& ctx) {
  Report& report = *ctx.report;
  Tracer& tracer = *ctx.tracer;
  if (!CheckThreads(ctx, ctx.nproc, "build")) return false;
  std::unique_ptr<Dataset> data;
  std::vector<Query> pool;
  std::unique_ptr<Index> built;
  SavedIndexes saved;
  LoadedIndexes loaded;
  std::vector<double> setup_s, generate_s, build_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    loaded = {};  // Unmaps the file this round overwrites.
    built.reset();
    data.reset();
    ScopedSpan setup(&tracer, "setup", "phase", ctx.pipeline);
    const auto setup_start = Clock::now();
    double generate = 0, build = 0;
    {
      ScopedSpan step(&tracer, "generate", "step", setup.id());
      Rng rng(ctx.seed);
      data = std::make_unique<Dataset>(GenerateDataset(kStaticObjects, &rng));
      pool = GenerateQueryPool(*data, kQueryPool, 0.25, &rng);
      generate = Seconds(Clock::now() - setup_start);
    }
    {
      ScopedSpan step(&tracer, "build", "step", setup.id());
      build = TimeSeconds([&] {
        built = std::make_unique<Index>(data->points, &data->corpus,
                                        IndexOptions(ctx.nproc));
      });
    }
    {
      ScopedSpan step(&tracer, "save_load", "step", setup.id());
      saved = SaveIndexes({built.get()}, ctx.tmp_dir);
      loaded = LoadIndexes(saved, 1);
    }
    setup_s.push_back(Seconds(Clock::now() - setup_start));
    generate_s.push_back(generate);
    build_s.push_back(build);
  }
  ReportGenerate(generate_s, setup_s, &report);
  {
    ScopedSpan phase(&tracer, "persist", "phase", ctx.pipeline);
    loaded = {};
    loaded = PersistStage({built.get()}, saved, pool, ctx.trace, &report,
                          ctx.acct);
  }
  const Index& served = *loaded.indexes[0];

  if (!CheckThreads(ctx, 1, "stream")) return false;
  AnswerChecker checker(pool.size());
  QueryStats first_pass;
  LoopSamples loop(pool.size());
  {
    ScopedSpan phase(&tracer, "stream", "phase", ctx.pipeline);
    InterleavedRepeats builds([&] {
      ScopedSpan step(&tracer, "build", "step", phase.id());
      return TimeSeconds([&] {
        const Index index(data->points, &data->corpus,
                          IndexOptions(ctx.nproc));
      });
    });
    QueryStats scratch;
    RunClosedLoop(
        pool, ctx.seconds, &tracer, phase.id(), &loop, &builds,
        [&](size_t slot) {
          scratch = QueryStats();
          return served.Query(pool[slot].box, pool[slot].keywords, &scratch);
        },
        [&](size_t slot, bool first, std::vector<ObjectId> row,
            Clock::time_point, uint64_t) {
          if (first) MergeQueryStats(scratch, &first_pass);
          checker.Record(slot, Sorted(std::move(row)));
        });
    build_s.insert(build_s.end(), builds.samples().begin(),
                   builds.samples().end());
  }
  report.Set("build_s", Fastest(build_s));
  loop.ReportTo(&report);
  report.AddStats("core.query.", first_pass);
  report.Set("core.query.examined_per_result",
             SafeRatio(double(first_pass.ObjectsExamined()),
                       double(first_pass.results)));

  {
    ScopedSpan phase(&tracer, "check", "phase", ctx.pipeline);
    Oracle oracle(data.get());
    ctx.acct->attempted += checker.recorded() + loop.errors;
    ctx.acct->failed += loop.errors + checker.CountFailures([&](size_t slot) {
                          return oracle.Answer(pool[slot]);
                        });
    report.Set("baseline.keywords_only_us", Median(oracle.micros()));
  }
  if (ctx.trace) {
    ScopedSpan phase(&tracer, "layer_probes", "phase", ctx.pipeline);
    report.Set("trace.overhead_frac",
               TraceOverhead(pool.size(), &tracer, phase.id(), [&](size_t s) {
                 return served.Query(pool[s].box, pool[s].keywords).size();
               }));
    BuildProbes(*data, ctx.nproc, &report);
  }
  return true;
}

/// serve_topt: ShardRouter space plan over S=4, static Coordinator with
/// sequential fan-out, top-10 selection merge, single-query batches.
///
/// The fan-out is sequential (the caller runs the shards in turn), as in
/// bench_shard's model measurement: with a pool, every single-query batch
/// waits for three worker wake-ups, and on a shared virtual machine their
/// latency follows the hypervisor's scheduling, not the code (the same
/// binary measured 4k to 14k queries/s from run to run).
bool RunServeTopT(const RunContext& ctx) {
  Report& report = *ctx.report;
  Tracer& tracer = *ctx.tracer;
  if (!CheckThreads(ctx, ctx.nproc, "setup")) return false;  // Builds.
  std::unique_ptr<Dataset> data;
  std::vector<Query> pool;
  std::unique_ptr<ServeCoordinator> coordinator;
  std::vector<double> setup_s, generate_s, plan_s, build_s;
  ServeOptions serve;
  serve.threads_per_shard = 1;
  serve.top_t = kServeTopT;
  serve.selection_merge = true;
  serve.parallel_fanout = false;
  ShardPlan plan;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    coordinator.reset();
    data.reset();
    ScopedSpan setup(&tracer, "setup", "phase", ctx.pipeline);
    const auto setup_start = Clock::now();
    double generate = 0, planning = 0, build = 0;
    {
      ScopedSpan step(&tracer, "generate", "step", setup.id());
      Rng rng(ctx.seed);
      data = std::make_unique<Dataset>(GenerateDataset(kStaticObjects, &rng));
      pool = GenerateQueryPool(*data, kQueryPool, 0.5, &rng);
      generate = Seconds(Clock::now() - setup_start);
    }
    {
      ScopedSpan step(&tracer, "plan", "step", setup.id());
      planning = TimeSeconds([&] {
        std::vector<double> axis_keys;
        axis_keys.reserve(data->points.size());
        for (const auto& p : data->points) axis_keys.push_back(p[0]);
        plan = ShardRouter(ShardStrategy::kSpacePartitioned, kServeShards)
                   .Plan(data->corpus, axis_keys);
      });
    }
    {
      ScopedSpan step(&tracer, "replica_build", "step", setup.id());
      build = TimeSeconds([&] {
        coordinator = std::make_unique<ServeCoordinator>(
            plan, data->points, data->corpus, IndexOptions(ctx.nproc), serve);
      });
    }
    setup_s.push_back(Seconds(Clock::now() - setup_start));
    generate_s.push_back(generate);
    plan_s.push_back(planning);
    build_s.push_back(build);
  }
  ReportGenerate(generate_s, setup_s, &report);
  report.Set("serve.plan_s", Median(plan_s));
  report.Set("serve.replica_build_s", Median(build_s));
  {
    ScopedSpan phase(&tracer, "persist", "phase", ctx.pipeline);
    std::vector<const Index*> replicas;
    for (size_t s = 0; s < coordinator->num_shards(); ++s) {
      replicas.push_back(&coordinator->replica(s).index());
    }
    PersistStage(replicas, SaveIndexes(replicas, ctx.tmp_dir), pool, ctx.trace,
                 &report, ctx.acct);
  }

  std::vector<BatchQuery<Region>> batches;
  batches.reserve(pool.size());
  for (const Query& q : pool) batches.push_back({q.box, q.keywords});
  if (!CheckThreads(ctx, 1, "stream")) return false;
  AnswerChecker checker(pool.size());
  QueryStats first_pass;
  MergeByteCounters first_bytes;
  ServeSamples serve_samples;
  LoopSamples loop(pool.size());
  {
    ScopedSpan phase(&tracer, "stream", "phase", ctx.pipeline);
    InterleavedRepeats builds([&] {
      ScopedSpan step(&tracer, "replica_build", "step", phase.id());
      return TimeSeconds([&] {
        const ServeCoordinator replicas(plan, data->points, data->corpus,
                                        IndexOptions(ctx.nproc), serve);
      });
    });
    RunClosedLoop(
        pool, ctx.seconds, &tracer, phase.id(), &loop, &builds,
        [&](size_t slot) {
          return coordinator->Run(
              std::span<const BatchQuery<Region>>(&batches[slot], 1));
        },
        [&](size_t slot, bool first, ServeCoordinator::Result result,
            Clock::time_point start, uint64_t op_id) {
          if (first) {
            MergeQueryStats(result.stats, &first_pass);
            first_bytes.naive += result.bytes.naive;
            first_bytes.selection += result.bytes.selection;
            first_bytes.selection_rounds += result.bytes.selection_rounds;
          }
          serve_samples.Add(result, &tracer, start, op_id);
          checker.Record(slot, std::move(result.rows[0]));
        });
    build_s.insert(build_s.end(), builds.samples().begin(),
                   builds.samples().end());
  }
  report.Set("build_s", Fastest(build_s));
  loop.ReportTo(&report);
  report.AddStats("core.query.", first_pass);
  report.Set("core.query.examined_per_result",
             SafeRatio(double(first_pass.ObjectsExamined()),
                       double(first_pass.results)));
  serve_samples.ReportTo(&report);
  ReportBytes(first_bytes, &report);


  {
    ScopedSpan phase(&tracer, "check", "phase", ctx.pipeline);
    Oracle oracle(data.get());
    ctx.acct->attempted += checker.recorded() + loop.errors;
    ctx.acct->failed += loop.errors + checker.CountFailures([&](size_t slot) {
                          return TopT(oracle.Answer(pool[slot]), kServeTopT);
                        });
    report.Set("baseline.keywords_only_us", Median(oracle.micros()));
  }
  if (ctx.trace) {
    ScopedSpan phase(&tracer, "layer_probes", "phase", ctx.pipeline);
    report.Set("trace.overhead_frac",
               TraceOverhead(pool.size(), &tracer, phase.id(), [&](size_t s) {
                 return coordinator
                     ->Run(std::span<const BatchQuery<Region>>(&batches[s], 1))
                     .rows.size();
               }));
    BuildProbes(*data, ctx.nproc, &report);
  }
  return true;
}

/// The pre-generated mixed stream: per round one update call (inserts of the
/// next ids, then deletes of ids live before the round) and its queries.
struct MixedStream {
  Dataset data;  // Object i is the i-th insert (global id i).
  std::vector<std::vector<Update>> rounds;
  std::vector<Query> queries;  // kRoundQueries per round, in order.
  std::vector<uint32_t> delete_round;  // Per object; UINT32_MAX = never.
  size_t expected_live = 0;
};

MixedStream GenerateMixedStream(uint64_t seed) {
  Rng rng(seed);
  MixedStream s;
  s.data = GenerateDataset(kDynamicObjects, &rng);
  const uint32_t num_rounds = kDynamicObjects / kRoundInserts;
  s.delete_round.assign(kDynamicObjects, UINT32_MAX);
  std::vector<ObjectId> live;
  for (uint32_t r = 0; r < num_rounds; ++r) {
    std::vector<Update> round;
    const ObjectId begin = r * kRoundInserts;
    for (ObjectId e = begin; e < begin + kRoundInserts; ++e) {
      Update u;
      u.kind = Update::Kind::kInsert;
      u.geom = s.data.points[e];
      u.doc = s.data.corpus.doc(e);
      round.push_back(std::move(u));
    }
    for (uint32_t d = 0; d < kRoundDeletes && !live.empty(); ++d) {
      const size_t pick = rng.NextBounded(live.size());
      Update u;
      u.kind = Update::Kind::kDelete;
      u.global_id = live[pick];
      s.delete_round[live[pick]] = r;
      live[pick] = live.back();
      live.pop_back();
      round.push_back(std::move(u));
    }
    for (ObjectId e = begin; e < begin + kRoundInserts; ++e) live.push_back(e);
    s.rounds.push_back(std::move(round));
    for (int q = 0; q < kRoundQueries; ++q) {
      s.queries.push_back(
          GenerateQuery(s.data, begin + kRoundInserts, 0.25, &rng));
    }
  }
  s.expected_live = live.size();
  return s;
}

/// mixed_update: DynamicCoordinator S=2 (sequential fan-out) with a 1-thread
/// merge pool ingests the stream (one ApplyUpdates + 4 single-query Runs per
/// round), passes repeated on a fresh coordinator until LoopSamples::Enough(),
/// each ended by the drain and, interleaved, a timed Compact() of every shard;
/// then a flat persist of the compacted indexes.
bool RunMixedUpdate(const RunContext& ctx) {
  Report& report = *ctx.report;
  Tracer& tracer = *ctx.tracer;
  const FrameworkOptions opt = IndexOptions(1);
  // Sequential fan-out, for the reason RunServeTopT gives; the carries still
  // run beside the queries on the merge worker.
  ServeOptions serve;
  serve.parallel_fanout = false;
  const int planned = 2;  // Caller + one merge worker.
  if (!CheckThreads(ctx, planned, "setup")) return false;

  std::unique_ptr<MixedStream> stream;
  std::unique_ptr<ThreadPool> merge_pool;
  std::unique_ptr<MixedCoordinator> coordinator;
  std::vector<double> setup_s, generate_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    coordinator.reset();
    merge_pool.reset();
    stream.reset();
    ScopedSpan setup(&tracer, "setup", "phase", ctx.pipeline);
    const auto setup_start = Clock::now();
    double generate = 0;
    {
      ScopedSpan step(&tracer, "generate", "step", setup.id());
      stream = std::make_unique<MixedStream>(GenerateMixedStream(ctx.seed));
      generate = Seconds(Clock::now() - setup_start);
    }
    merge_pool = std::make_unique<ThreadPool>(1);
    coordinator = std::make_unique<MixedCoordinator>(
        kMixedShards, opt, serve, kMixedBufferCapacity, merge_pool.get());
    setup_s.push_back(Seconds(Clock::now() - setup_start));
    generate_s.push_back(generate);
  }
  ReportGenerate(generate_s, setup_s, &report);
  const std::vector<Query>& queries = stream->queries;
  std::vector<BatchQuery<Region>> batches;
  for (const Query& q : queries) batches.push_back({q.box, q.keywords});
  const size_t num_rounds = stream->rounds.size();

  if (!CheckThreads(ctx, planned, "stream")) return false;
  AnswerChecker checker(queries.size());
  QueryStats first_pass;
  ServeSamples serve_samples;
  // Other slots: one per update call, then the drain.
  LoopSamples loop(queries.size(), num_rounds + 1);
  std::vector<double> update_us;
  std::vector<double> drain_ms;
  double apply_busy_s = 0;
  uint64_t merge_inflight = 0, live_checks_failed = 0;
  const auto any_merge = [&] {
    for (size_t s = 0; s < coordinator->num_shards(); ++s) {
      if (coordinator->replica(s).index().MergeInFlight()) return true;
    }
    return false;
  };
  uint64_t pass_phase = 0;  // Span id of the pass under way.
  InterleavedRepeats compacts([&] {
    ScopedSpan step(&tracer, "compact", "step", pass_phase);
    return TimeSeconds([&] {
      for (size_t s = 0; s < coordinator->num_shards(); ++s) {
        coordinator->replica(s).index().Compact();
      }
    });
  });
  const auto stream_begin = Clock::now();
  for (size_t pass = 0;
       !loop.Enough(Seconds(Clock::now() - stream_begin), ctx.seconds);
       ++pass) {
    if (pass > 0) {
      coordinator.reset();
      merge_pool = std::make_unique<ThreadPool>(1);
      coordinator = std::make_unique<MixedCoordinator>(
          kMixedShards, opt, serve, kMixedBufferCapacity, merge_pool.get());
    }
    std::vector<std::vector<Update>> rounds = stream->rounds;  // Consumed.
    ScopedSpan phase(&tracer, "stream", "phase", ctx.pipeline);
    pass_phase = phase.id();
    loop.BeginPass();
    for (size_t r = 0; r < num_rounds; ++r) {
      const uint64_t op_id = tracer.NewId();
      const auto start = Clock::now();
      coordinator->ApplyUpdates(rounds[r]);
      const auto end = Clock::now();
      tracer.Record("apply_updates", "op", start, end, op_id, phase.id(),
                    op_id);
      update_us.push_back(Micros(end - start));
      loop.AddOther(r, update_us.back());
      apply_busy_s += Seconds(end - start);
      for (int j = 0; j < kRoundQueries; ++j) {
        const size_t slot = r * kRoundQueries + j;
        const bool merging = any_merge();
        const uint64_t q_id = tracer.NewId();
        const auto q_start = Clock::now();
        MixedCoordinator::Result result = coordinator->Run(
            std::span<const BatchQuery<Region>>(&batches[slot], 1));
        const auto q_end = Clock::now();
        tracer.Record("query", "op", q_start, q_end, q_id, phase.id(), q_id);
        loop.AddQuery(slot, Micros(q_end - q_start), queries[slot].frequent);
        merge_inflight += merging ? 1 : 0;
        if (pass == 0) MergeQueryStats(result.stats, &first_pass);
        serve_samples.Add(result, &tracer, q_start, q_id);
        checker.Record(slot, std::move(result.rows[0]));
      }
    }
    {
      ScopedSpan drain(&tracer, "drain", "step", phase.id());
      drain_ms.push_back(
          TimeSeconds([&] { coordinator->WaitQuiescent(); }) * 1e3);
      loop.AddOther(num_rounds, drain_ms.back() * 1e3);
    }
    loop.EndPass(num_rounds * (1 + kRoundQueries));
    // Every update call is an attempted op; its effect is checked by the
    // answers of later queries and by the live count after the drain.
    ctx.acct->attempted += num_rounds + 1;
    if (coordinator->live_objects() != stream->expected_live) {
      ++live_checks_failed;
      std::fprintf(stderr, "live objects %zu, expected %zu\n",
                   coordinator->live_objects(), stream->expected_live);
    }
    compacts.MaybeRun(Seconds(Clock::now() - stream_begin));
  }
  report.Set("build_s", Fastest(compacts.samples()));
  ctx.acct->failed += live_checks_failed;
  loop.ReportTo(&report);
  report.AddStats("core.query.", first_pass);
  report.Set("core.query.examined_per_result",
             SafeRatio(double(first_pass.ObjectsExamined()),
                       double(first_pass.results)));
  serve_samples.ReportTo(&report);
  report.Set("dynamic.apply_busy_s", apply_busy_s);
  report.Set("dynamic.update_p50_us", Quantile(update_us, 0.50));
  report.Set("dynamic.update_p99_us", Quantile(update_us, 0.99));
  report.Set("dynamic.merge_inflight_frac",
             SafeRatio(double(merge_inflight), double(loop.queries())));
  report.Set("dynamic.drain_ms", Median(std::move(drain_ms)));
  report.Set("dynamic.query.pivot_checks", double(first_pass.pivot_checks));
  report.Set("dynamic.query.examined_per_result",
             SafeRatio(double(first_pass.ObjectsExamined()),
                       double(first_pass.results)));
  double levels = 0, memory = 0;
  for (size_t s = 0; s < coordinator->num_shards(); ++s) {
    levels += double(coordinator->replica(s).index().ActiveLevels());
    memory += double(coordinator->replica(s).index().MemoryBytes());
  }
  report.Set("dynamic.active_levels", levels);
  report.Set("dynamic.memory_bytes", memory);
  report.Set("dynamic.live_objects", double(coordinator->live_objects()));

  {
    // Persist the compacted indexes (the dynamic layer's static rebuild,
    // timed for build_s between the stream's passes).
    ScopedSpan phase(&tracer, "compact_persist", "phase", ctx.pipeline);
    std::vector<DynamicIndex<Index>::Compacted> compacted;
    for (size_t s = 0; s < coordinator->num_shards(); ++s) {
      compacted.push_back(coordinator->replica(s).index().Compact());
    }
    std::vector<const Index*> built;
    for (const auto& c : compacted) built.push_back(c.index.get());
    PersistStage(built, SaveIndexes(built, ctx.tmp_dir), queries, ctx.trace,
                 &report, ctx.acct);
  }

  {
    ScopedSpan phase(&tracer, "check", "phase", ctx.pipeline);
    Oracle oracle(&stream->data);
    ctx.acct->attempted += checker.recorded();
    ctx.acct->failed += checker.CountFailures([&](size_t slot) {
      const uint32_t round = uint32_t(slot / kRoundQueries);
      const ObjectId inserted = (round + 1) * kRoundInserts;
      return oracle.Answer(queries[slot], [&](ObjectId e) {
        return e < inserted && stream->delete_round[e] > round;
      });
    });
    report.Set("baseline.keywords_only_us", Median(oracle.micros()));
  }
  if (ctx.trace) {
    ScopedSpan phase(&tracer, "layer_probes", "phase", ctx.pipeline);
    report.Set("trace.overhead_frac",
               TraceOverhead(queries.size(), &tracer, phase.id(),
                             [&](size_t s) {
                               return coordinator
                                   ->Run(std::span<const BatchQuery<Region>>(
                                       &batches[s], 1))
                                   .rows.size();
                             }));
    BuildProbes(stream->data, ctx.nproc, &report);
  }
  return true;
}

// ---------------------------------------------------------------- self-test

/// Proves the checker fires: on a small index, every answer recorded as
/// returned must pass, and one planted wrong answer — as a first answer or
/// as a later repeat of a query — must count as exactly one failure.
bool CheckerSelfTest() {
  Rng rng(7);
  const Dataset data = GenerateDataset(2048, &rng);
  const std::vector<Query> pool = GenerateQueryPool(data, 64, 0.5, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  const Index index(data.points, &data.corpus, opt);
  Oracle oracle(&data);
  const auto truth = [&](size_t slot) { return oracle.Answer(pool[slot]); };
  std::vector<std::vector<ObjectId>> answers;
  size_t largest = 0;
  for (const Query& q : pool) {
    answers.push_back(Sorted(index.Query(q.box, q.keywords)));
    if (answers.back().size() > answers[largest].size()) {
      largest = answers.size() - 1;
    }
  }
  std::vector<ObjectId> wrong = answers[largest];
  if (wrong.empty()) {
    wrong.push_back(0);
  } else {
    wrong.pop_back();
  }

  AnswerChecker clean(pool.size()), planted_first(pool.size()),
      planted_repeat(pool.size());
  for (size_t s = 0; s < pool.size(); ++s) {
    clean.Record(s, answers[s]);
    clean.Record(s, answers[s]);
    planted_first.Record(s, s == largest ? wrong : answers[s]);
    planted_first.Record(s, answers[s]);
    planted_repeat.Record(s, answers[s]);
    planted_repeat.Record(s, s == largest ? wrong : answers[s]);
  }
  const uint64_t clean_failures = clean.CountFailures(truth);
  const uint64_t first_failures = planted_first.CountFailures(truth);
  const uint64_t repeat_failures = planted_repeat.CountFailures(truth);
  const bool ok = clean_failures == 0 && first_failures == 1 &&
                  repeat_failures == 1 && clean.recorded() == 2 * pool.size();
  std::printf("# checker self-test: clean=%llu planted_first=%llu "
              "planted_repeat=%llu -> %s\n",
              static_cast<unsigned long long>(clean_failures),
              static_cast<unsigned long long>(first_failures),
              static_cast<unsigned long long>(repeat_failures),
              ok ? "ok" : "FAILED");
  return ok;
}

// --------------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string tmp_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--tmp") {
      args->tmp_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->tmp_dir.empty() &&
         args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kwsc_perfbench --workload <read_flat|serve_topt|"
                 "mixed_update> --seed <n> --seconds <s> --trace <0|1> "
                 "--out <dir> --tmp <dir>\n");
    return 2;
  }
  const bool self_test_ok = CheckerSelfTest();

  const int nproc = Nproc();
  const std::string env = EnvJson(nproc);
  std::printf("# env %s\n", env.c_str());
  Tracer tracer(args.trace);
  Report report;
  Accounting acct;
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.trace = args.trace;
  ctx.tmp_dir = args.tmp_dir;
  ctx.nproc = nproc;
  ctx.tracer = &tracer;
  ctx.report = &report;
  ctx.acct = &acct;
  bool ran = false;
  {
    ScopedSpan pipeline(&tracer, args.workload.c_str(), "pipeline", 0);
    ctx.pipeline = pipeline.id();
    if (args.workload == "read_flat") {
      ran = RunReadFlat(ctx);
    } else if (args.workload == "serve_topt") {
      ran = RunServeTopT(ctx);
    } else if (args.workload == "mixed_update") {
      ran = RunMixedUpdate(ctx);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  }
  if (!ran) return 1;

  report.Set("failed_ops_frac",
             SafeRatio(double(acct.failed), double(acct.attempted)));
  report.Set("ok_ops_frac",
             1.0 - SafeRatio(double(acct.failed), double(acct.attempted)));
  const std::span<const MetricSpec> specs =
      args.trace ? std::span<const MetricSpec>(kPerLayer)
                 : std::span<const MetricSpec>(kEndToEnd);
  std::printf("# %s seed=%llu trace=%d: attempted=%llu failed=%llu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              int(args.trace), static_cast<unsigned long long>(acct.attempted),
              static_cast<unsigned long long>(acct.failed));
  report.PrintTable(specs);
  if (args.trace) {
    const std::string path = args.out_dir + "/trace_" + args.workload +
                             "_seed" + std::to_string(args.seed) + ".json";
    if (!tracer.Write(path, env)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("# trace %s\n", path.c_str());
  }
  const bool correct = self_test_ok && acct.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(acct.attempted),
              static_cast<unsigned long long>(acct.failed),
              report.MetricsJson(specs).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace kwsc

int main(int argc, char** argv) { return kwsc::perfbench::Main(argc, argv); }
