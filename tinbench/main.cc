// tinbench: the end-to-end benchmark of the tinprov library.
//
//   tinbench --workload bitcoin|prosper --seed N --seconds S --trace 0|1
//   tinbench --self-test
//
// Every run generates its input streams from --seed during set-up, in
// the shape the workload names, and puts them through three phases of
// the library's public API: offline replay, live serving with
// durability, and restart. It checks every answer against computations
// made apart from the program and prints one JSON object as its last
// line of standard output. --seconds sets the number of measured rounds
// (one pass of every phase over every stream), the same for every build.
// --trace 1 adds spans around every call into a layer, runs the
// per-layer probes, and prints the per-layer metrics instead of the
// end-to-end ones. See README.md.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/registry.h"
#include "checks.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "lazy/time_travel.h"
#include "obs/metrics.h"
#include "parallel/sharded_ingest.h"
#include "parallel/sharded_replay.h"
#include "policies/proportional_sparse.h"
#include "policies/tracker.h"
#include "serve/service.h"
#include "spans.h"
#include "storage/durable_log.h"
#include "storage/env.h"
#include "storage/recovery.h"
#include "stream/ingest.h"
#include "stream/interaction_stream.h"
#include "util/cpu.h"

namespace tinbench {
namespace {

namespace fs = std::filesystem;
using namespace tinprov;  // NOLINT: the benchmark drives this library

// Read at static initialisation, before main: set-up time counts from
// here.
const int64_t kProcessStartNs = NowNs();

// ---- Workload make-up (README.md lists these) -------------------------

// Every phase runs over the same kStreams independent streams generated
// from the seed, and every figure is a median over them: the generator
// makes an input whose pro-rata state is several times the usual one
// for about one seed in ten, and one such stream must not decide a
// run's figures.
constexpr size_t kStreams = 16;

// A workload is the shape of its input streams. Both put their streams
// through every phase, because every run reports every end-to-end
// metric; the shape decides where each layer's work goes.
struct Shape {
  const char* workload;
  DatasetKind kind;
  double scale;
  // Closed-loop query capacity of kQueryThreads callers on a drained
  // service of this shape: the median over five seeds of the traced
  // run's serve.{latest,history}_capacity_qps on the reference host
  // (README.md, "Query load").
  double latest_capacity_qps;
  double history_capacity_qps;
};
// Bitcoin shape: many vertices, Zipf 1.2 endpoints, log-normal
// quantities, short pro-rata lists. Prosper shape: fewer vertices,
// flatter skew, long pro-rata lists, so each Prop-sparse merge, epoch
// image and snapshot is larger.
const Shape kShapes[] = {
    {"bitcoin", DatasetKind::kBitcoin, 1.0, 103000.0, 912.0},
    {"prosper", DatasetKind::kProsper, 1.0, 104000.0, 844.0},
};
// The serve phase's open loop offers each query class this share of its
// closed-loop capacity, so the two query threads are busy about a tenth
// of the time: a light load, where latency is mostly service time and
// not queueing.
constexpr double kQueryShare = 0.05;
double LatestPerSecond(const Shape& shape) {
  return kQueryShare * shape.latest_capacity_qps;
}
double HistoryPerSecond(const Shape& shape) {
  return kQueryShare * shape.history_capacity_qps;
}
// Serve: Prop-sparse, durability on, history retained.
constexpr size_t kEpochInterval = 4096;
constexpr size_t kQueryThreads = 2;
constexpr size_t kTopK = 10;
constexpr size_t kRestartHistoryQueries = 48;
// Reference-rule comparison prefix.
constexpr size_t kReferencePrefix = 4000;
// --seconds / kRoundSeconds rounds are measured (at least kMinRounds),
// after one warm-up round that is checked but not measured: the first
// pass pays for page faults and allocator growth that later ones do not.
// A round takes about kRoundSeconds on the reference host. The count
// does not depend on how fast the build is, so a slower build makes the
// same passes and takes longer, unless a round would end past
// kStopAfterS from process start: the run then reports the rounds it
// has, so that a very slow build still shows which figure regressed.
constexpr double kRoundSeconds = 6.0;
constexpr int kMinRounds = 2;
constexpr double kStopAfterS = 120.0;
// Timed calls per per-layer probe that compares two settings.
constexpr int kProbeRepeats = 3;
// Every served latest answer whose index is a multiple of this is kept
// and compared with a fresh sequential replay; every historical answer
// is.
constexpr size_t kLatestCheckStride = 8;

constexpr double kMiB = 1024.0 * 1024.0;

// Relative to the checkout root, where run.py starts the binary.
const std::string kWorkDir = ".bench_run";  // durable directories
const std::string kOutDir = ".bench_out";   // span files

// ---- Small helpers ----------------------------------------------------

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "tinbench: %s\n", message.c_str());
  std::exit(2);
}

void MustOk(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Must(StatusOr<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return *std::move(result);
}

double Seconds(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Deterministic uniform stream for query plans.
class Uniform {
 public:
  explicit Uniform(uint64_t seed) : state_(seed) {}
  double Next() {
    state_ = Mix(state_);
    return static_cast<double>(state_ >> 11) * 0x1.0p-53;
  }
  size_t Below(size_t n) {
    return std::min(n - 1, static_cast<size_t>(Next() * static_cast<double>(n)));
  }

 private:
  uint64_t state_;
};

class Samples {
 public:
  void Add(double x) { values_.push_back(x); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double At(size_t i) const { return values_.at(i); }
  double Sum() const {
    double sum = 0.0;
    for (double x : values_) sum += x;
    return sum;
  }
  double Mean() const {
    return values_.empty() ? 0.0 : Sum() / static_cast<double>(size());
  }
  // Linear interpolation between closest ranks.
  double Quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
  }
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

size_t ThreadCount() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::min<size_t>(4, hardware == 0 ? 1 : hardware);
}

struct DirUsage {
  size_t snapshot_files = 0;
  uint64_t snapshot_bytes = 0;
  size_t segment_files = 0;
  uint64_t segment_bytes = 0;
};

DirUsage ListDurableDir(const std::string& dir) {
  DirUsage usage;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0) {
      ++usage.snapshot_files;
      usage.snapshot_bytes += entry.file_size();
    } else if (name.rfind("seg-", 0) == 0) {
      ++usage.segment_files;
      usage.segment_bytes += entry.file_size();
    }
  }
  return usage;
}

// ---- Run state --------------------------------------------------------

struct Options {
  std::string workload;
  const Shape* shape = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Input {
  GeneratorConfig config;
  Tin tin;
  Oracle oracle;
};

struct Run {
  Options options;
  size_t threads = 1;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  // Main-thread intervals that count as the workload's timed wall clock.
  std::vector<std::pair<int64_t, int64_t>> timed;
  // Per-layer metrics, name -> (value, unit).
  std::map<std::string, std::pair<double, const char*>> layer;

  void Layer(const std::string& name, double value, const char* unit) {
    layer[name] = {value, unit};
  }
  void Check(const std::string& what, const std::string& failure) {
    if (failure.empty()) return;
    check_failures.push_back(what + ": " + failure);
    std::fprintf(stderr, "tinbench: check failed: %s: %s\n", what.c_str(),
                 failure.c_str());
  }
  // Counts one operation; a failed status is counted, not fatal.
  bool Attempt(const Status& status, const char* what) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    std::fprintf(stderr, "tinbench: %s failed: %s\n", what,
                 status.ToString().c_str());
    return false;
  }
};

// A span that also adds its interval to the run's timed wall clock.
class TimedSection {
 public:
  explicit TimedSection(Run* run) : run_(run), begin_(NowNs()) {}
  ~TimedSection() { run_->timed.push_back({begin_, NowNs()}); }
  TimedSection(const TimedSection&) = delete;
  TimedSection& operator=(const TimedSection&) = delete;

 private:
  Run* run_;
  int64_t begin_;
};

// The run's kStreams streams: the preset's GeneratorConfig with the
// seed overridden by one derived from --seed and the stream's index.
std::vector<Input> MakeInputs(DatasetKind kind, double scale, uint64_t seed) {
  std::vector<Input> inputs(kStreams);
  for (size_t k = 0; k < kStreams; ++k) {
    Input& input = inputs[k];
    input.config = PresetConfig(kind, scale);
    input.config.seed = Mix(Mix(seed) ^ k);
    {
      Span span("Generate", "datagen");
      input.tin = Must(Generate(input.config), "generating input");
    }
    input.oracle = ComputeOracle(input.tin.interactions(),
                                 input.tin.num_vertices(),
                                 input.tin.num_interactions());
  }
  return inputs;
}

// Median over streams of a per-stream figure.
template <typename Fn>
double MedianOverStreams(Fn&& figure) {
  Samples values;
  for (size_t k = 0; k < kStreams; ++k) values.Add(figure(k));
  return values.Median();
}

// The best of measured rounds 1..rounds (round 0 is the warm-up) of a
// per-round figure: the lowest time or latency. The host shares its
// cores with other tenants, and their interference only ever makes a
// pass slower, so the best pass is the one a run can reproduce.
template <typename Fn>
double BestRound(int rounds, Fn&& figure) {
  double best = figure(1);
  for (int r = 2; r <= rounds; ++r) best = std::min(best, figure(r));
  return best;
}

// Fresh sequential Prop-sparse replay that can stop at any prefix: the
// reference every served, historical, recovered, caught-up and sharded
// answer is compared with.
class SequentialReference {
 public:
  explicit SequentialReference(const Tin& tin)
      : tin_(tin), tracker_(tin.num_vertices()) {}
  const Tracker& At(size_t prefix) {
    if (prefix < applied_) Die("sequential reference cannot rewind");
    for (; applied_ < prefix; ++applied_) {
      MustOk(tracker_.Process(tin_.interactions()[applied_]),
             "reference replay");
    }
    return tracker_;
  }

 private:
  const Tin& tin_;
  ProportionalSparseTracker tracker_;
  size_t applied_ = 0;
};

// Number of interactions with time <= t: the prefix a historical query
// at t resolves to.
size_t PrefixAt(const Tin& tin, Timestamp t) {
  const auto& log = tin.interactions();
  return static_cast<size_t>(
      std::upper_bound(log.begin(), log.end(), t,
                       [](Timestamp value, const Interaction& x) {
                         return value < x.t;
                       }) -
      log.begin());
}

// Vertices drawn with probability proportional to how often they
// receive: the destination of a uniformly chosen interaction.
VertexId ActiveVertex(const Tin& tin, Uniform* uniform) {
  return tin.interactions()[uniform->Below(tin.num_interactions())].dst;
}

std::unique_ptr<InteractionStream> StreamOf(const Tin& tin) {
  return std::make_unique<VectorStream>(tin.num_vertices(),
                                        tin.interactions());
}

TrackerSpec PropSparse() {
  TrackerSpec spec;
  spec.name = "Prop-sparse";
  spec.mode = TrackerMode::kStreaming;
  return spec;
}

// ---- Offline replay ---------------------------------------------------

const PolicyKind kOrderPolicies[] = {PolicyKind::kLifo, PolicyKind::kFifo,
                                     PolicyKind::kLrb, PolicyKind::kMrb};
const char* const kScalable[] = {"Selective", "Grouped", "Windowed",
                                 "Budget"};

struct ReplayStats {
  std::map<std::string, Samples> pass_s;  // per tracker name
  Samples parallel_s;
  Samples batch_us;
  double prop_peak_bytes = 0.0;
  int rounds = 0;
};

double TimedReplay(Tracker* tracker, const Tin& tin, const char* layer) {
  Span span("Tracker::Process", layer);
  const int64_t begin = NowNs();
  for (const Interaction& x : tin.interactions()) {
    MustOk(tracker->Process(x), "replay");
  }
  return Seconds(begin, NowNs());
}

void CheckTracker(Run* run, const Input& input, const std::string& name,
                  const Tracker& tracker);
void CheckOffline(Run* run, const Input& input, const Tracker& sequential,
                  const ShardedReplayResult& sharded, bool record_layer);

// One pass of every tracker over one stream. Each tracker is released as
// soon as its pass ends, so the process never holds more than one
// tracker's state (two in the first round, whose label-sharded result is
// compared with the kept Prop-sparse tracker). The first round is the
// warm-up: it is checked and not measured.
void ReplayRound(Run* run, const Input& input, ReplayStats* stats,
                 bool record_layer) {
  const Tin& tin = input.tin;
  const size_t n = tin.num_vertices();
  const bool check = stats->rounds++ == 0;
  std::optional<TimedSection> timed;
  if (!check) timed.emplace(run);
  std::unique_ptr<Tracker> kept_prop;
  auto release = [&](const std::string& name, std::unique_ptr<Tracker> tracker,
                     const char* layer) {
    ++run->attempted;
    if (check) CheckTracker(run, input, name, *tracker);
    if (check && name == "Prop-sparse") {
      kept_prop = std::move(tracker);
      return;
    }
    Span span("~Tracker", layer);
    tracker.reset();
  };

  const std::vector<PolicyKind> sequential = {
      PolicyKind::kNoProvenance, PolicyKind::kLifo, PolicyKind::kFifo,
      PolicyKind::kLrb, PolicyKind::kMrb};
  for (const PolicyKind kind : sequential) {
    std::unique_ptr<Tracker> tracker;
    {
      Span span("CreateTracker", "policies");
      tracker = CreateTracker(kind, n);
      tracker->ReserveHint(tin);
    }
    const std::string name(PolicyName(kind));
    stats->pass_s[name].Add(TimedReplay(tracker.get(), tin, "policies"));
    release(name, std::move(tracker), "policies");
  }

  // Prop-sparse through the stream layer's batch ingestor.
  {
    std::unique_ptr<Tracker> tracker;
    {
      Span span("CreateTracker", "policies");
      tracker = CreateTracker(PolicyKind::kProportionalSparse, n);
    }
    MaterializedStream stream(tin);
    StreamIngestor ingestor(tracker.get());
    bool finished = false;
    const int64_t begin = NowNs();
    while (!finished) {
      Span span("StreamIngestor::IngestBatch", "stream");
      const int64_t batch_begin = NowNs();
      MustOk(ingestor.IngestBatch(stream, &finished), "Prop-sparse ingest");
      stats->batch_us.Add(static_cast<double>(NowNs() - batch_begin) * 1e-3);
    }
    stats->pass_s["Prop-sparse"].Add(Seconds(begin, NowNs()));
    stats->prop_peak_bytes =
        static_cast<double>(ingestor.stats().tracker_peak_memory);
    release("Prop-sparse", std::move(tracker), "policies");
  }

  for (const char* name : kScalable) {
    TrackerSpec spec;
    spec.name = name;
    std::unique_ptr<Tracker> tracker;
    {
      Span span("TrackerRegistry::Create", "scalable");
      tracker = Must(TrackerRegistry::Global().Create(spec, tin),
                     "creating a scalable tracker");
      tracker->ReserveHint(tin);
    }
    stats->pass_s[name].Add(TimedReplay(tracker.get(), tin, "scalable"));
    release(name, std::move(tracker), "scalable");
  }

  ShardedSpec spec;
  {
    Span span("TrackerRegistry::Sharded", "parallel");
    spec = Must(TrackerRegistry::Global().Sharded(PropSparse(), tin),
                "sharded spec");
  }
  ParallelParams params;
  params.num_threads = run->threads;
  ShardedReplayEngine engine(tin, std::move(spec), params);
  std::optional<ShardedReplayResult> sharded;
  {
    Span span("ShardedReplayEngine::Replay", "parallel");
    const int64_t begin = NowNs();
    sharded = Must(engine.Replay(), "sharded replay");
    stats->parallel_s.Add(Seconds(begin, NowNs()));
    ++run->attempted;
  }
  if (check) CheckOffline(run, input, *kept_prop, *sharded, record_layer);
  Span span("~ShardedReplayResult", "parallel");
  sharded.reset();
}

void CheckTracker(Run* run, const Input& input, const std::string& name,
                  const Tracker& tracker) {
  const Oracle& oracle = input.oracle;
  const BufferFn provenance = [&tracker](VertexId v) {
    return tracker.Provenance(v);
  };
  run->Check(name + " balances", CheckBalances(oracle, [&tracker](VertexId v) {
               return tracker.BufferTotal(v);
             }));
  if (name == "NoProv") return;
  if (const auto* scalable =
          dynamic_cast<const SparseProportionalBase*>(&tracker);
      scalable != nullptr && name != "Prop-sparse") {
    run->Check(name + " residue conservation",
               CheckResidueConservation(oracle, provenance,
                                        scalable->AlphaResidue()));
    return;
  }
  run->Check(name + " per-origin conservation",
             CheckOriginConservation(oracle, provenance));
}

void CheckOffline(Run* run, const Input& input, const Tracker& sequential,
                  const ShardedReplayResult& sharded, bool record_layer) {
  const size_t n = input.tin.num_vertices();
  // Label-sharded replay against the sequential one, vertex by vertex.
  for (size_t v = 0; v < n; ++v) {
    const std::string failure =
        CheckIdentical(sequential.Provenance(static_cast<VertexId>(v)),
                       sharded.Provenance(static_cast<VertexId>(v)));
    if (!failure.empty()) {
      run->Check("label-sharded replay vertex " + std::to_string(v), failure);
      break;
    }
  }

  // The paper's rules, written out in checks.cc, on a short prefix.
  const size_t prefix = std::min(kReferencePrefix,
                                 input.tin.num_interactions());
  const struct {
    PolicyKind kind;
    ReferencePolicy::Rule rule;
  } rules[] = {
      {PolicyKind::kLifo, ReferencePolicy::Rule::kLifo},
      {PolicyKind::kFifo, ReferencePolicy::Rule::kFifo},
      {PolicyKind::kLrb, ReferencePolicy::Rule::kLrb},
      {PolicyKind::kMrb, ReferencePolicy::Rule::kMrb},
      {PolicyKind::kProportionalSparse, ReferencePolicy::Rule::kProRata},
  };
  for (const auto& rule : rules) {
    auto tracker = CreateTracker(rule.kind, n);
    ReferencePolicy reference(rule.rule, n);
    for (size_t i = 0; i < prefix; ++i) {
      MustOk(tracker->Process(input.tin.interactions()[i]), "prefix replay");
      reference.Process(input.tin.interactions()[i]);
    }
    const Tracker* t = tracker.get();
    run->Check(std::string(PolicyName(rule.kind)) + " against the reference rule",
               CheckAgainstReference(
                   reference, [t](VertexId v) { return t->Provenance(v); },
                   n));
  }

  if (!record_layer) return;
  // State figures of the Prop-sparse tracker (per-layer metrics).
  const auto* prop = dynamic_cast<const ProportionalSparseTracker*>(&sequential);
  size_t negative = 0;
  size_t dust = 0;
  for (size_t v = 0; v < n; ++v) {
    if (sequential.BufferTotal(static_cast<VertexId>(v)) < 0.0) ++negative;
    for (const ProvPair& entry :
         sequential.Provenance(static_cast<VertexId>(v)).entries) {
      if (entry.quantity < 0.0) ++negative;
      if (entry.quantity >= 0.0 && entry.quantity < 1e-9) ++dust;
    }
  }
  run->Layer("policies.prop_sparse.entries",
             static_cast<double>(prop->num_entries()), "count");
  run->Layer("policies.prop_sparse.avg_list_length", prop->AverageListLength(),
             "count");
  run->Layer("policies.prop_sparse.memory_bytes",
             static_cast<double>(prop->MemoryBytes()), "bytes");
  run->Layer("policies.negative_balances", static_cast<double>(negative),
             "count");
  run->Layer("policies.dust_entries", static_cast<double>(dust), "count");
}

// ---- Live serving -----------------------------------------------------

struct ServedAnswer {
  QueryRequest request;
  QueryResult result;
};

struct ServeStats {
  Samples ingest_s;
  std::vector<Samples> latest_us;   // per round
  std::vector<Samples> history_us;  // per round
  Samples lateness_ms;
  Samples history_replayed;
  std::vector<ServedAnswer> kept;  // compared with a sequential replay
  DirUsage usage;
  double epochs = 0.0;
  uint64_t next_request = 1;
  int rounds = 0;
};

// One collector per query class waits on that class's answers in
// submission order, so a slow historical query never delays the
// timestamp of a fast latest one.
class Collector {
 public:
  struct Pending {
    uint64_t id = 0;
    int64_t due_ns = 0;
    QueryRequest request;
    std::future<QueryResult> answer;
  };

  Collector(Run* run, Samples* latency_us, ServeStats* stats, bool keep_all,
            std::mutex* run_mutex)
      : run_(run),
        latency_us_(latency_us),
        stats_(stats),
        keep_all_(keep_all),
        run_mutex_(run_mutex),
        thread_([this] { Loop(); }) {}

  ~Collector() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closing_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(Pending pending) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(pending));
    }
    cv_.notify_one();
  }

 private:
  void Loop() {
    size_t seen = 0;
    for (;;) {
      Pending pending;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return closing_ || !queue_.empty(); });
        if (queue_.empty()) return;
        pending = std::move(queue_.front());
        queue_.pop_front();
      }
      QueryResult result = pending.answer.get();
      const int64_t answered = NowNs();
      SpanRecorder::Global().Add("ProvenanceService::Submit", "serve.request",
                                 pending.due_ns, answered, pending.id);
      std::lock_guard<std::mutex> lock(*run_mutex_);
      if (!run_->Attempt(result.status, "served query")) continue;
      latency_us_->Add(static_cast<double>(answered - pending.due_ns) * 1e-3);
      if (pending.request.kind == QueryKind::kProvenanceAt) {
        stats_->history_replayed.Add(
            static_cast<double>(result.replayed_interactions));
      }
      if (keep_all_ || seen % kLatestCheckStride == 0) {
        stats_->kept.push_back({pending.request, std::move(result)});
      }
      ++seen;
    }
  }

  Run* run_;
  Samples* latency_us_;
  ServeStats* stats_;
  bool keep_all_;
  std::mutex* run_mutex_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool closing_ = false;
  std::thread thread_;  // last: it runs Loop() over the members above
};

// Sleeps most of the way to `due_ns`, then spins for the last 100 us,
// so the generator's own timer slack does not show up as service
// latency.
void WaitUntil(int64_t due_ns) {
  const int64_t slack = 100'000;
  const int64_t now = NowNs();
  if (due_ns - now > slack) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - slack));
  }
  while (NowNs() < due_ns) {
  }
}

struct HistogramReading {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(const HistogramReading& after, const HistogramReading& before) {
    count += after.count - before.count;
    sum += after.sum - before.sum;
  }
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

HistogramReading ReadHistogram(const char* name) {
  const obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(name);
  return {histogram->Count(), histogram->Sum()};
}

void ServeRound(Run* run, const Input& input, ServeStats* stats) {
  const Tin& tin = input.tin;
  const std::string dir = kWorkDir + "/serve";
  fs::remove_all(dir);
  Uniform plan(Mix(input.config.seed) + stats->rounds++);
  std::unique_ptr<InteractionStream> stream = StreamOf(tin);
  const Timestamp first_t = tin.interactions().front().t;

  ServeOptions options;
  options.epoch_interval = kEpochInterval;
  options.num_query_threads = kQueryThreads;
  options.retain_history = true;
  options.durability.dir = dir;

  std::mutex run_mutex;
  std::unique_ptr<ProvenanceService> service;
  {
    TimedSection timed(run);
    {
      Span span("ProvenanceService::Create", "serve");
      service = Must(ProvenanceService::Create(PropSparse(), tin.Stats(),
                                               options),
                     "creating the durable service");
    }
    Samples lateness_ms;
    {
      Collector latest(run, &stats->latest_us.emplace_back(), stats, false,
                       &run_mutex);
      Collector history(run, &stats->history_us.emplace_back(), stats, true,
                        &run_mutex);
      const int64_t start = NowNs();
      {
        Span span("ProvenanceService::Start", "serve");
        MustOk(service->Start(std::move(stream)), "starting ingest");
      }
      // Open loop: requests are due on a fixed schedule whatever the
      // service does, and each is timed from its due time.
      std::thread generator([&] {
        const double latest_gap = 1e9 / LatestPerSecond(*run->options.shape);
        const double history_gap =
            1e9 / HistoryPerSecond(*run->options.shape);
        uint64_t latest_sent = 0;
        uint64_t history_sent = 0;
        while (!service->IngestDone()) {
          const int64_t latest_due =
              start + static_cast<int64_t>(latest_gap * latest_sent);
          const int64_t history_due =
              start + static_cast<int64_t>(history_gap * (history_sent + 0.5));
          const bool is_history = history_due < latest_due;
          const int64_t due = is_history ? history_due : latest_due;
          WaitUntil(due);
          QueryRequest request;
          request.v = ActiveVertex(tin, &plan);
          if (is_history) {
            ++history_sent;
            const Timestamp watermark = service->LatestEpoch().watermark;
            if (!(watermark > first_t)) continue;  // nothing published yet
            request.kind = QueryKind::kProvenanceAt;
            request.t = first_t + plan.Next() * (watermark - first_t);
          } else {
            request.kind = latest_sent % 2 == 0 ? QueryKind::kProvenance
                                                : QueryKind::kTopOrigins;
            request.k = kTopK;
            ++latest_sent;
          }
          Collector::Pending pending;
          pending.id = input.config.seed ^ stats->next_request++;
          pending.due_ns = due;
          pending.request = request;
          pending.answer = service->Submit(request);
          lateness_ms.Add(static_cast<double>(NowNs() - due) * 1e-6);
          (is_history ? history : latest).Push(std::move(pending));
        }
      });
      {
        Span span("ProvenanceService::WaitIngest", "serve");
        MustOk(service->WaitIngest(), "serve ingest");
      }
      stats->ingest_s.Add(Seconds(start, NowNs()));
      {
        std::lock_guard<std::mutex> lock(run_mutex);
        ++run->attempted;
      }
      generator.join();
    }  // collectors drain their queues here
    stats->lateness_ms.Append(lateness_ms);
    stats->epochs = static_cast<double>(service->LatestEpoch().seq);
    if (service->LatestEpoch().prefix != tin.num_interactions()) {
      run->Check("serve drain", "latest epoch does not cover the stream");
    }
  }
  stats->usage = ListDurableDir(dir);

  TimedSection timed(run);
  {
    Span span("~ProvenanceService", "serve");
    service.reset();
  }
  fs::remove_all(dir);
}

void CheckServed(Run* run, const Input& input, ServeStats* stats) {
  std::vector<ServedAnswer>& kept = stats->kept;
  auto prefix_of = [&input](const ServedAnswer& answer) {
    return answer.request.kind == QueryKind::kProvenanceAt
               ? PrefixAt(input.tin, answer.request.t)
               : answer.result.epoch.prefix;
  };
  std::stable_sort(kept.begin(), kept.end(),
                   [&](const ServedAnswer& a, const ServedAnswer& b) {
                     return prefix_of(a) < prefix_of(b);
                   });
  SequentialReference reference(input.tin);
  for (const ServedAnswer& answer : kept) {
    const Tracker& state = reference.At(prefix_of(answer));
    const Buffer expected = state.Provenance(answer.request.v);
    const char* what = "served latest answer";
    std::string failure;
    switch (answer.request.kind) {
      case QueryKind::kProvenance:
        failure = CheckIdentical(expected, answer.result.buffer);
        break;
      case QueryKind::kTopOrigins:
        failure = CheckTopOrigins(expected, answer.request.k,
                                  answer.result.buffer);
        break;
      case QueryKind::kProvenanceAt:
        what = "served historical answer";
        failure = CheckIdentical(expected, answer.result.buffer);
        break;
    }
    if (!failure.empty()) {
      run->Check(what, failure);
      break;
    }
  }
  kept.clear();
  kept.shrink_to_fit();
}

// ---- Restart ----------------------------------------------------------

struct RestartStats {
  Samples recovery_s;
  Samples create_s;
  std::vector<Samples> history_us;  // per round
  Samples catchup_s;
  std::vector<ServedAnswer> kept;
  std::vector<std::pair<VertexId, Buffer>> final_answers;
  int rounds = 0;
};

std::string RestartDir(size_t k) {
  return kWorkDir + "/restart-" + std::to_string(k);
}

// Set-up: writes the durable directory the restart phase reopens.
void WriteRestartDir(const Input& input, size_t k) {
  const std::string dir = RestartDir(k);
  fs::remove_all(dir);
  ServeOptions options;
  options.epoch_interval = kEpochInterval;
  options.durability.dir = dir;
  std::unique_ptr<ProvenanceService> service;
  {
    Span span("ProvenanceService::Create", "serve");
    service = Must(ProvenanceService::Create(PropSparse(), input.tin.Stats(),
                                             options),
                   "creating the service that writes the restart directory");
  }
  Span span("ProvenanceService::Start+WaitIngest", "serve");
  MustOk(service->Start(StreamOf(input.tin)), "writing the restart directory");
  MustOk(service->WaitIngest(), "writing the restart directory");
}

void RestartRound(Run* run, const Input& input, size_t k,
                  RestartStats* stats) {
  const Tin& tin = input.tin;
  Uniform plan(Mix(input.config.seed ^ 0x4e57) + stats->rounds);
  const bool keep = stats->rounds++ == 0;
  const Timestamp first_t = tin.interactions().front().t;
  std::unique_ptr<InteractionStream> backlog = StreamOf(tin);
  {
    TimedSection timed(run);
    ServeOptions options;
    options.epoch_interval = kEpochInterval;
    options.durability.dir = RestartDir(k);
    const int64_t begin = NowNs();
    std::unique_ptr<ProvenanceService> service;
    {
      Span span("ProvenanceService::Create", "serve");
      service = Must(ProvenanceService::Create(PropSparse(), tin.Stats(),
                                               options),
                     "reopening the restart directory");
    }
    const int64_t created = NowNs();
    const VertexId first_v = ActiveVertex(tin, &plan);
    QueryResult first;
    {
      Span span("ProvenanceService::Provenance", "serve");
      first = service->Provenance(first_v);
    }
    stats->recovery_s.Add(Seconds(begin, NowNs()));
    stats->create_s.Add(Seconds(begin, created));
    if (run->Attempt(first.status, "first query after recovery") && keep) {
      stats->final_answers.push_back({first_v, first.buffer});
    }
    // Closed loop of historical queries through the recovered index.
    Samples& history_us = stats->history_us.emplace_back();
    const Timestamp watermark = tin.interactions().back().t;
    for (size_t i = 0; i < kRestartHistoryQueries; ++i) {
      QueryRequest request;
      request.kind = QueryKind::kProvenanceAt;
      request.v = ActiveVertex(tin, &plan);
      request.t = first_t + plan.Next() * (watermark - first_t);
      const int64_t sent = NowNs();
      QueryResult result;
      {
        Span span("ProvenanceService::Provenance(v,t)", "serve");
        result = service->Provenance(request.v, request.t);
      }
      history_us.Add(static_cast<double>(NowNs() - sent) * 1e-3);
      if (run->Attempt(result.status, "historical query after recovery") &&
          keep) {
        stats->kept.push_back({request, std::move(result)});
      }
    }
    {
      Span span("~ProvenanceService", "serve");
      service.reset();
    }

    // Parallel catch-up of the same stream into a fresh service.
    ServeOptions fresh;
    fresh.epoch_interval = kEpochInterval;
    fresh.catchup.num_threads = run->threads;
    std::unique_ptr<ProvenanceService> caught_up;
    {
      Span span("ProvenanceService::Create", "serve");
      caught_up = Must(ProvenanceService::Create(PropSparse(), tin.Stats(),
                                                 fresh),
                       "creating the catch-up service");
    }
    {
      Span span("ProvenanceService::Catchup", "serve");
      const int64_t catchup_begin = NowNs();
      MustOk(caught_up->Catchup(std::move(backlog)), "catch-up");
      stats->catchup_s.Add(Seconds(catchup_begin, NowNs()));
      ++run->attempted;
    }
    if (keep) {
      for (int i = 0; i < 32; ++i) {
        const VertexId v = ActiveVertex(tin, &plan);
        QueryResult result;
        {
          Span span("ProvenanceService::Provenance", "serve");
          result = caught_up->Provenance(v);
        }
        if (run->Attempt(result.status, "query after catch-up")) {
          stats->final_answers.push_back({v, std::move(result.buffer)});
        }
      }
    }
    Span span("~ProvenanceService", "serve");
    caught_up.reset();
  }
}

void CheckRestart(Run* run, const Input& input, RestartStats* stats) {
  std::vector<ServedAnswer>& kept = stats->kept;
  std::sort(kept.begin(), kept.end(),
            [&](const ServedAnswer& a, const ServedAnswer& b) {
              return a.request.t < b.request.t;
            });
  SequentialReference reference(input.tin);
  for (const ServedAnswer& answer : kept) {
    const Tracker& state = reference.At(PrefixAt(input.tin, answer.request.t));
    run->Check("recovered historical answer",
               CheckIdentical(state.Provenance(answer.request.v),
                              answer.result.buffer));
  }
  const Tracker& final_state = reference.At(input.tin.num_interactions());
  for (const auto& [v, buffer] : stats->final_answers) {
    run->Check("recovered or caught-up answer",
               CheckIdentical(final_state.Provenance(v), buffer));
  }
  kept.clear();
}

// ---- Per-layer probes (traced run only) -------------------------------

template <typename Fn>
double TimeCall(const char* name, const char* layer, Fn&& fn) {
  Span span(name, layer);
  const int64_t begin = NowNs();
  fn();
  return Seconds(begin, NowNs());
}

// Best of kProbeRepeats timed calls of `fn`, after one warm-up call.
template <typename Fn>
double BestOfProbes(const char* name, const char* layer, Fn&& fn) {
  TimeCall(name, layer, fn);
  double best = TimeCall(name, layer, fn);
  for (int i = 1; i < kProbeRepeats; ++i) {
    best = std::min(best, TimeCall(name, layer, fn));
  }
  return best;
}

// Closed-loop query capacity: kQueryThreads callers each submit
// `per_caller` requests made by `make`, one at a time, to a drained
// service. Returns answered requests per second.
template <typename MakeFn>
double ClosedLoopQps(ProvenanceService* service, size_t per_caller,
                     uint64_t seed, MakeFn&& make) {
  std::vector<std::thread> callers;
  const int64_t begin = NowNs();
  for (size_t c = 0; c < kQueryThreads; ++c) {
    callers.emplace_back([&, c] {
      Uniform plan(Mix(seed + c));
      for (size_t i = 0; i < per_caller; ++i) {
        const QueryResult result = service->Submit(make(&plan)).get();
        if (!result.status.ok()) Die("capacity query failed");
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  return static_cast<double>(per_caller * kQueryThreads) /
         Seconds(begin, NowNs());
}

// Probes run on the first stream.
void ProbeLayers(Run* run, const Input& input) {
  const TrackerSpec spec = PropSparse();

  // stream: the generator alone, no tracker.
  {
    auto stream = Must(GeneratorStream::Create(input.config), "stream");
    size_t count = 0;
    const double seconds = TimeCall("GeneratorStream::Next", "stream", [&] {
      Interaction x;
      while (stream.Next(&x)) ++count;
    });
    run->Layer("stream.generator_ns_per_interaction",
               seconds * 1e9 / static_cast<double>(std::max<size_t>(count, 1)),
               "ns");
  }

  // policies + storage: what PublishEpoch and the durable sink do, on
  // the serve input at its epoch interval, one call at a time.
  {
    const std::string dir = kWorkDir + "/probe-log";
    fs::remove_all(dir);
    auto log = Must(storage::DurableLog::Open(storage::Env::Posix(), dir, 0, 0),
                    "opening the probe log");
    ProportionalSparseTracker tracker(input.tin.num_vertices());
    Samples save_ms, restore_ms, append_us, snapshot_ms, image_bytes;
    const auto& xs = input.tin.interactions();
    const size_t batch = 1024;  // ServeOptions::ingest_batch
    for (size_t i = 0; i < xs.size(); i += batch) {
      const size_t count = std::min(batch, xs.size() - i);
      for (size_t j = i; j < i + count; ++j) {
        MustOk(tracker.Process(xs[j]), "probe replay");
      }
      append_us.Add(1e6 * TimeCall("DurableLog::Append", "storage", [&] {
        MustOk(log->Append(&xs[i], count), "probe append");
      }));
      if ((i + count) % kEpochInterval != 0 && i + count != xs.size()) continue;
      std::vector<uint8_t> image;
      save_ms.Add(1e3 * TimeCall("Tracker::SaveState", "policies",
                                 [&] { tracker.SaveState(&image); }));
      ProportionalSparseTracker restored(input.tin.num_vertices());
      restore_ms.Add(1e3 * TimeCall("Tracker::RestoreState", "policies", [&] {
        MustOk(restored.RestoreState(image), "probe restore");
      }));
      image_bytes.Add(static_cast<double>(image.size()));
      snapshot_ms.Add(1e3 * TimeCall("DurableLog::WriteSnapshot", "storage", [&] {
        MustOk(log->WriteSnapshot(i + count, xs[i + count - 1].t, image),
               "probe snapshot");
      }));
    }
    log.reset();
    fs::remove_all(dir);
    run->Layer("policies.prop_sparse.save_state_ms", save_ms.Median(), "ms");
    run->Layer("policies.prop_sparse.restore_state_ms", restore_ms.Median(),
               "ms");
    run->Layer("policies.prop_sparse.image_bytes", image_bytes.Median(),
               "bytes");
    run->Layer("storage.append_us", append_us.Median(), "us");
    run->Layer("storage.write_snapshot_ms", snapshot_ms.Median(), "ms");

    // policies: Provenance(v) on the queried vertices of the final state.
    Uniform plan(Mix(run->options.seed ^ 0x9e0));
    Samples provenance_us;
    for (int i = 0; i < 2000; ++i) {
      const VertexId v = ActiveVertex(input.tin, &plan);
      provenance_us.Add(1e6 * TimeCall("Tracker::Provenance", "policies", [&] {
        const Buffer buffer = tracker.Provenance(v);
        if (buffer.total < -1e300) Die("unreachable");
      }));
    }
    run->Layer("policies.provenance_us", provenance_us.Median(), "us");
  }

  // serve: the closed-loop capacity the open-loop rates are a share of,
  // on a drained durable service of this shape.
  {
    const std::string dir = kWorkDir + "/probe-capacity";
    fs::remove_all(dir);
    ServeOptions options;
    options.epoch_interval = kEpochInterval;
    options.num_query_threads = kQueryThreads;
    options.retain_history = true;
    options.durability.dir = dir;
    auto service = Must(
        ProvenanceService::Create(PropSparse(), input.tin.Stats(), options),
        "creating the capacity probe's service");
    MustOk(service->Start(StreamOf(input.tin)), "capacity probe ingest");
    MustOk(service->WaitIngest(), "capacity probe ingest");
    const Tin& tin = input.tin;
    const Timestamp first_t = tin.interactions().front().t;
    const Timestamp last_t = tin.interactions().back().t;
    uint64_t sent = 0;
    const double latest_qps = ClosedLoopQps(
        service.get(), 4000, run->options.seed ^ 0xca9, [&](Uniform* plan) {
          QueryRequest request;
          request.kind = sent++ % 2 == 0 ? QueryKind::kProvenance
                                         : QueryKind::kTopOrigins;
          request.k = kTopK;
          request.v = ActiveVertex(tin, plan);
          return request;
        });
    const double history_qps = ClosedLoopQps(
        service.get(), 100, run->options.seed ^ 0xcaa, [&](Uniform* plan) {
          QueryRequest request;
          request.kind = QueryKind::kProvenanceAt;
          request.v = ActiveVertex(tin, plan);
          request.t = first_t + plan->Next() * (last_t - first_t);
          return request;
        });
    service.reset();
    fs::remove_all(dir);
    const Shape& shape = *run->options.shape;
    run->Layer("serve.latest_capacity_qps", latest_qps, "1/s");
    run->Layer("serve.history_capacity_qps", history_qps, "1/s");
    run->Layer("serve.offered_load",
               LatestPerSecond(shape) / latest_qps +
                   HistoryPerSecond(shape) / history_qps,
               "fraction");
  }

  // parallel: label-sharded replay and vertex-sharded ingest at one and
  // at T threads, each the best of kProbeRepeats calls after a warm-up.
  {
    double replay_s[2];
    for (const size_t threads : {size_t{1}, run->threads}) {
      ParallelParams params;
      params.num_threads = threads;
      ShardedReplayEngine engine(
          input.tin,
          Must(TrackerRegistry::Global().Sharded(spec, input.tin), "spec"),
          params);
      replay_s[threads == 1 ? 0 : 1] =
          BestOfProbes("ShardedReplayEngine::Replay", "parallel", [&] {
            Must(engine.Replay(), "sharded replay");
          });
    }
    run->Layer("parallel.replay_1t_s", replay_s[0], "s");
    run->Layer("parallel.replay_Tt_s", replay_s[1], "s");
    run->Layer("parallel.replay_speedup", replay_s[0] / replay_s[1], "x");
    for (const size_t threads : {size_t{1}, run->threads}) {
      ParallelParams ingest_params;
      ingest_params.num_threads = threads;
      IngestOptions ingest_options;
      ingest_options.batch_size = 1024;
      const ShardedIngestEngine ingest(
          input.tin.Stats(),
          Must(TrackerRegistry::Global().Sharded(spec, input.tin.Stats()),
               "spec"),
          ingest_params, ingest_options);
      run->Layer(
          threads == 1 ? "parallel.ingest_1t_s" : "parallel.ingest_Tt_s",
          BestOfProbes("ShardedIngestEngine::IngestStream", "parallel", [&] {
            auto stream = StreamOf(input.tin);
            Must(ingest.IngestStream(*stream), "sharded ingest");
          }),
          "s");
    }
  }

  // storage + lazy: the steps ProvenanceService::Create takes on the
  // restart directory, one call at a time.
  {
    const std::string dir = RestartDir(0);
    storage::Env* env = storage::Env::Posix();
    storage::ReadLogResult read;
    run->Layer("storage.read_log_s",
               TimeCall("storage::ReadLog", "storage",
                        [&] {
                          MustOk(storage::ReadLog(env, dir, &read),
                                 "reading the log");
                        }),
               "s");
    const TrackerFactory factory = Must(
        TrackerRegistry::Global().Factory(spec, input.tin.Stats()),
        "factory");
    storage::RecoveredState recovered;
    run->Layer("storage.recover_s",
               TimeCall("RecoveryManager::Recover", "storage",
                        [&] {
                          recovered = Must(
                              storage::RecoveryManager(env, dir).Recover(
                                  factory),
                              "recovering");
                        }),
               "s");
    run->Layer("storage.recover_replayed",
               static_cast<double>(recovered.replayed), "count");
    std::shared_ptr<const TimeTravelIndex> index;
    run->Layer("lazy.index_build_s",
               TimeCall("storage::BuildRecoveredIndex", "lazy",
                        [&] {
                          index = Must(
                              storage::BuildRecoveredIndex(
                                  recovered, input.tin.num_vertices(),
                                  factory,
                                  DurabilityOptions().history_snapshot_interval),
                              "building the recovered index");
                        }),
               "s");
    run->Layer("lazy.index_bytes", static_cast<double>(index->MemoryUsage()),
               "bytes");
    Uniform plan(Mix(run->options.seed ^ 0x1a2));
    const Timestamp first_t = input.tin.interactions().front().t;
    const Timestamp last_t = input.tin.interactions().back().t;
    Samples query_us;
    for (size_t i = 0; i < kRestartHistoryQueries; ++i) {
      const VertexId v = ActiveVertex(input.tin, &plan);
      const Timestamp t = first_t + plan.Next() * (last_t - first_t);
      query_us.Add(1e6 * TimeCall("TimeTravelIndex::Provenance", "lazy", [&] {
        Must(index->Provenance(v, t), "time-travel query");
      }));
    }
    run->Layer("lazy.time_travel_query_us", query_us.Median(), "us");
  }
}

// ---- Main -------------------------------------------------------------

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      Die("unknown flag " + flag);
    }
  }
  for (const Shape& shape : kShapes) {
    if (options.workload == shape.workload) options.shape = &shape;
  }
  if (options.shape == nullptr) Die("--workload must be bitcoin or prosper");
  if (!(options.seconds > 0.0)) Die("--seconds must be positive");
  return options;
}

void Print(const char* name, double value, const char* unit, bool* first) {
  std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
              *first ? "" : ", ", name, value, unit);
  *first = false;
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    const std::vector<std::string> missed = RunSelfTest();
    for (const std::string& name : missed) {
      std::fprintf(stderr, "self-test: %s\n", name.c_str());
    }
    std::printf("self-test: %s\n", missed.empty() ? "every check caught its "
                                                    "corrupted answer"
                                                  : "FAILED");
    return missed.empty() ? 0 : 1;
  }

  // Freed memory stays in the process for reuse. A Prop-sparse pass
  // otherwise spends most of its time in page faults on arena chunks that
  // the previous pass just returned to the kernel, and how fast the host
  // serves those faults varies from run to run by far more than the
  // library's own work does (README.md, "Memory").
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, -1);

  Run run;
  run.options = ParseOptions(argc, argv);
  run.threads = ThreadCount();
  const Options& options = run.options;
  if (options.trace) SpanRecorder::Global().Enable();
  fs::create_directories(kWorkDir);

  // ---- Set-up: inputs, oracles, the restart directories.
  const int64_t setup_begin = NowNs();
  const std::vector<Input> inputs = MakeInputs(
      options.shape->kind, options.shape->scale, options.seed);
  const double generate_s = Seconds(setup_begin, NowNs());
  for (size_t k = 0; k < kStreams; ++k) WriteRestartDir(inputs[k], k);
  const double setup_s = Seconds(kProcessStartNs, NowNs());

  // ---- Timed part: a warm-up round, then `rounds` measured ones. A
  // round is one pass of each phase over every stream, so host
  // interference that comes and goes falls on every phase alike.
  std::vector<ReplayStats> replay_stats(kStreams);
  std::vector<ServeStats> serve_stats(kStreams);
  std::vector<RestartStats> restart_stats(kStreams);
  const int planned = std::max(
      kMinRounds, static_cast<int>(std::lround(options.seconds /
                                               kRoundSeconds)));
  // The library's own query histograms, over the serve phase only: the
  // restart phase's queries land in them too.
  HistogramReading wait_sum, exec_sum;
  int rounds = 0;
  for (int round = 0; round <= planned; ++round) {
    const int64_t round_begin = NowNs();
    for (size_t k = 0; k < kStreams; ++k) {
      ReplayRound(&run, inputs[k], &replay_stats[k], k == 0);
    }
    const HistogramReading wait_before = ReadHistogram("serve.queue_wait_ns");
    const HistogramReading exec_before = ReadHistogram("serve.query_ns");
    for (size_t k = 0; k < kStreams; ++k) {
      ServeRound(&run, inputs[k], &serve_stats[k]);
    }
    if (round > 0) {
      wait_sum.Add(ReadHistogram("serve.queue_wait_ns"), wait_before);
      exec_sum.Add(ReadHistogram("serve.query_ns"), exec_before);
    }
    for (size_t k = 0; k < kStreams; ++k) {
      RestartRound(&run, inputs[k], k, &restart_stats[k]);
    }
    rounds = round;
    const int64_t now = NowNs();
    if (round > 0 && Seconds(kProcessStartNs, now + (now - round_begin)) >
                         kStopAfterS) {
      std::fprintf(stderr,
                   "tinbench: stopping after %d of %d measured rounds: "
                   "another would end past %.0f s\n",
                   round, planned, kStopAfterS);
      break;
    }
  }

  // ---- Checks that need a fresh sequential replay.
  for (size_t k = 0; k < kStreams; ++k) {
    CheckServed(&run, inputs[k], &serve_stats[k]);
    CheckRestart(&run, inputs[k], &restart_stats[k]);
  }
  for (const std::string& name : RunSelfTest()) {
    run.Check("self-test", name);
  }

  if (options.trace) ProbeLayers(&run, inputs[0]);
  for (size_t k = 0; k < kStreams; ++k) fs::remove_all(RestartDir(k));
  if (!run.check_failures.empty()) {
    std::fprintf(stderr, "tinbench: %zu check(s) failed\n",
                 run.check_failures.size());
    return 1;
  }

  // ---- Metrics: per stream, then the median over streams.
  auto count = [&inputs](size_t k) {
    return static_cast<double>(inputs[k].tin.num_interactions());
  };
  // A duration is each stream's best measured round, then the median
  // over streams; a throughput is interactions over that duration.
  auto best_s = [rounds](const Samples& per_round) {
    return BestRound(rounds, [&](int r) { return per_round.At(r); });
  };
  auto replay_ips = [&](const std::vector<std::string>& names) {
    return MedianOverStreams([&](size_t k) {
      double seconds = 0.0;
      for (const std::string& name : names) {
        seconds += best_s(replay_stats[k].pass_s.at(name));
      }
      return static_cast<double>(names.size()) * count(k) / seconds;
    });
  };
  std::vector<std::string> order_names;
  for (const PolicyKind kind : kOrderPolicies) {
    order_names.emplace_back(PolicyName(kind));
  }
  const std::vector<std::string> scalable_names(std::begin(kScalable),
                                                std::end(kScalable));
  // A latency percentile pools one round's requests over every stream;
  // the run reports its best measured round, as for durations.
  enum class Route { kLatest, kRetainedLog, kRecoveredIndex };
  auto latency = [&](Route route, double q) {
    return BestRound(rounds, [&](int r) {
      Samples pooled;
      for (size_t k = 0; k < kStreams; ++k) {
        pooled.Append(route == Route::kLatest ? serve_stats[k].latest_us[r]
                      : route == Route::kRetainedLog
                          ? serve_stats[k].history_us[r]
                          : restart_stats[k].history_us[r]);
      }
      return pooled.Quantile(q);
    });
  };
  const double peak_rss_mb = PeakRssMb();

  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  bool first = true;
  if (!options.trace) {
    Print("setup_s", setup_s, "s", &first);
    Print("prorata_ips", replay_ips({"Prop-sparse"}), "interactions/s",
          &first);
    Print("order_ips", replay_ips(order_names), "interactions/s", &first);
    Print("scalable_ips", replay_ips(scalable_names), "interactions/s",
          &first);
    Print("parallel_replay_ips", MedianOverStreams([&](size_t k) {
            return count(k) / best_s(replay_stats[k].parallel_s);
          }),
          "interactions/s", &first);
    Print("prorata_state_mb", MedianOverStreams([&](size_t k) {
            return replay_stats[k].prop_peak_bytes / kMiB;
          }),
          "MiB", &first);
    Print("serve_ingest_ips", MedianOverStreams([&](size_t k) {
            return count(k) / best_s(serve_stats[k].ingest_s);
          }),
          "interactions/s", &first);
    Print("latest_p50_us", latency(Route::kLatest, 0.5), "us", &first);
    Print("history_p50_us", latency(Route::kRetainedLog, 0.5), "us", &first);
    Print("disk_mb", MedianOverStreams([&](size_t k) {
            return static_cast<double>(serve_stats[k].usage.snapshot_bytes +
                                       serve_stats[k].usage.segment_bytes) /
                   kMiB;
          }),
          "MiB", &first);
    Print("recovery_s", MedianOverStreams([&](size_t k) {
            return best_s(restart_stats[k].recovery_s);
          }),
          "s", &first);
    Print("recovered_history_p50_us", latency(Route::kRecoveredIndex, 0.5),
          "us", &first);
    Print("catchup_ips", MedianOverStreams([&](size_t k) {
            return count(k) / best_s(restart_stats[k].catchup_s);
          }),
          "interactions/s", &first);
  } else {
    auto set = [&run](const std::string& name, double value,
                      const char* unit) { run.Layer(name, value, unit); };
    Samples batch_us;
    Samples lateness_ms;
    Samples history_replayed;
    for (size_t k = 0; k < kStreams; ++k) {
      batch_us.Append(replay_stats[k].batch_us);
      lateness_ms.Append(serve_stats[k].lateness_ms);
      history_replayed.Append(serve_stats[k].history_replayed);
    }
    set("datagen.generate_s", generate_s, "s");
    set("stream.ingest_batch_p50_us", batch_us.Quantile(0.5), "us");
    set("stream.ingest_batch_p99_us", batch_us.Quantile(0.99), "us");
    const struct {
      const char* tracker;
      const char* metric;
    } per_tracker[] = {
        {"NoProv", "policies.noprov.ns_per_interaction"},
        {"LIFO", "policies.lifo.ns_per_interaction"},
        {"FIFO", "policies.fifo.ns_per_interaction"},
        {"LRB", "policies.lrb.ns_per_interaction"},
        {"MRB", "policies.mrb.ns_per_interaction"},
        {"Prop-sparse", "policies.prop_sparse.ns_per_interaction"},
        {"Selective", "scalable.selective.ns_per_interaction"},
        {"Grouped", "scalable.grouped.ns_per_interaction"},
        {"Windowed", "scalable.windowed.ns_per_interaction"},
        {"Budget", "scalable.budget.ns_per_interaction"},
    };
    for (const auto& row : per_tracker) {
      set(row.metric, 1e9 / replay_ips({row.tracker}), "ns");
    }
    set("serve.queue_wait_us", wait_sum.Mean() * 1e-3, "us");
    set("serve.execute_us", exec_sum.Mean() * 1e-3, "us");
    set("storage.snapshot_files", MedianOverStreams([&](size_t k) {
          return static_cast<double>(serve_stats[k].usage.snapshot_files);
        }),
        "count");
    set("storage.snapshot_bytes", MedianOverStreams([&](size_t k) {
          return static_cast<double>(serve_stats[k].usage.snapshot_bytes);
        }),
        "bytes");
    set("storage.segment_bytes", MedianOverStreams([&](size_t k) {
          return static_cast<double>(serve_stats[k].usage.segment_bytes);
        }),
        "bytes");
    set("serve.ingest_s", MedianOverStreams([&](size_t k) {
          return best_s(serve_stats[k].ingest_s);
        }),
        "s");
    set("serve.epochs_published",
        MedianOverStreams([&](size_t k) { return serve_stats[k].epochs; }),
        "count");
    set("serve.history_replayed", history_replayed.Mean(), "count");
    set("serve.generator_lateness_ms", lateness_ms.Quantile(0.99), "ms");
    // The tail of latest-query latency, timed from each request's due
    // time: its run-to-run spread on a shared host is wider than any
    // end-to-end bound.
    set("serve.latest_p90_us", latency(Route::kLatest, 0.9), "us");
    set("serve.latest_p99_us", latency(Route::kLatest, 0.99), "us");
    set("serve.history_p90_us", latency(Route::kRetainedLog, 0.9), "us");
    set("process.peak_rss_mb", peak_rss_mb, "MiB");
    set("serve.create_s", MedianOverStreams([&](size_t k) {
          return best_s(restart_stats[k].create_s);
        }),
        "s");
    set("serve.catchup_s", MedianOverStreams([&](size_t k) {
          return best_s(restart_stats[k].catchup_s);
        }),
        "s");

    SpanRecorder& recorder = SpanRecorder::Global();
    const std::map<std::string, double> self = recorder.SelfSeconds();
    for (const char* layer : {"datagen", "stream", "policies", "scalable",
                              "parallel", "lazy", "storage", "serve"}) {
      const auto it = self.find(layer);
      set(std::string(layer) + ".self_s", it == self.end() ? 0.0 : it->second,
          "s");
    }
    int64_t timed_ns = 0;
    double covered_ns = 0.0;
    const uint32_t main_thread = ThreadTag();
    for (const auto& [begin, end] : run.timed) {
      timed_ns += end - begin;
      covered_ns += recorder.Coverage(begin, end, main_thread) *
                    static_cast<double>(end - begin);
    }
    const double coverage = covered_ns / static_cast<double>(timed_ns);
    set("trace.coverage", coverage, "fraction");
    set("trace.timed_s", static_cast<double>(timed_ns) * 1e-9, "s");
    fs::create_directories(kOutDir);
    const std::string path = kOutDir + "/spans-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".jsonl";
    if (!recorder.WriteJsonLines(path)) Die("writing " + path);
    std::fprintf(stderr, "tinbench: spans written to %s\n", path.c_str());
    if (coverage < 0.9) {
      std::fprintf(stderr,
                   "tinbench: top-level spans cover %.1f%% of the timed wall "
                   "clock, below 90%%\n",
                   coverage * 100.0);
      return 1;
    }
    for (const auto& [name, value] : run.layer) {
      Print(name.c_str(), value.first, value.second, &first);
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  std::fprintf(stderr, "tinbench: %s seed %llu, simd %s, %zu threads\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               cpu::SimdLevelName(cpu::ActiveSimdLevel()), run.threads);
  return 0;
}

}  // namespace
}  // namespace tinbench

int main(int argc, char** argv) { return tinbench::Main(argc, argv); }
