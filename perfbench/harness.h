// Shared plumbing of the perfbench program: options, seeded inputs, sample
// summaries, the metric sink, the correctness checker and the in-memory
// span recorder of the traced run.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/miner.h"
#include "text/corpus.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) {
  return MsBetween(a, Clock::now());
}

/// Corpus size as a fraction of the 21578-doc Reuters count, and the
/// number of timed set-ups setup_s is the median of. `--tiny` (the
/// self-test) shrinks both.
inline constexpr double kDefaultScale = 0.5;
inline constexpr double kTinyScale = 0.05;
inline constexpr int kSetupReps = 3;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: a 5 % corpus, a single set-up and a short warm-up.
  bool tiny = false;
  /// Self-test hook: flip one reply's top score before the check runs.
  bool corrupt = false;
  /// Directory for the span file and per-layer table of a traced run.
  std::string out_dir = ".bench_build/perfbench-out";

  double scale() const { return tiny ? kTinyScale : kDefaultScale; }
  int setup_reps() const { return tiny ? 1 : kSetupReps; }
  /// Untimed closed-loop load before the timed window.
  double warmup_seconds() const { return tiny ? 0.02 : 1.0; }
};

/// The full-size corpus of every workload (the Reuters-21578 doc count).
inline constexpr std::size_t kCorpusDocs = 21578;

/// Derives an independent 64-bit seed for one input stream of the run.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Documents of the served corpus: round(kCorpusDocs * scale).
std::size_t CorpusDocs(double scale);

/// The Reuters-like generator at its own fixed seed, `num_docs` long. The
/// first CorpusDocs(scale) documents are the corpus every workload
/// serves: as with the paper's fixed Reuters collection, runs on
/// different workload seeds differ in their queries, traces and updates
/// but mine the same documents. Documents past that prefix share its
/// vocabulary and topics, and are the pool churn's inserts come from.
phrasemine::Corpus MakeCorpus(std::size_t num_docs);

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty vector.
double Percentile(std::vector<double> v, double p);

double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Prints "[  12.3 s] <what>" (seconds since the process started) so a
/// run's log shows where its wall time went.
void Progress(const std::string& what);

/// Returns freed heap to the system and restarts the process's peak
/// resident set from its current size, so that PeakRssMb() covers only
/// what follows. False when the kernel does not support the reset.
bool ResetPeakRss();

/// Peak resident set size of this process, in MB, since the last
/// ResetPeakRss().
double PeakRssMb();

/// Share of all CPU time the host's hypervisor stole from this machine
/// (the "steal" column of /proc/stat) since `since`.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();
double StealFraction(const CpuTimes& since);
/// The same share between two readings.
double StealFraction(const CpuTimes& from, const CpuTimes& to);

/// Named metrics in insertion order, each with a unit and, for
/// percentiles, the sample count behind it.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  /// Human-readable table, one metric a line.
  std::string Table() const;
  /// {"name": {"value": v, "unit": u}, ...}
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::vector<Entry> entries_;
};

/// Correctness ledger of one run. Thread-safe.
class Checker {
 public:
  void Pass() { checked_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& what);
  uint64_t checked() const { return checked_.load(); }
  uint64_t failures() const { return failures_.load(); }
  std::string first_failure() const;

 private:
  std::atomic<uint64_t> checked_{0};
  std::atomic<uint64_t> failures_{0};
  mutable std::mutex mu_;
  std::string first_;
};

/// Bitwise equality of two rankings (ids, scores, interestingness).
bool SameRanking(const std::vector<phrasemine::MinedPhrase>& a,
                 const std::vector<phrasemine::MinedPhrase>& b);

/// Bitwise equality of two score vectors.
bool SameScores(const std::vector<phrasemine::MinedPhrase>& a,
                const std::vector<phrasemine::MinedPhrase>& b);

/// One span of the traced run: name, layer, start/end on the run's
/// steady clock, parent span and request id. `informational` spans are
/// the deeper levels of the program's own trace tree; they are written to
/// the span file but never attributed.
struct Span {
  std::string name;
  std::string layer;
  int64_t parent = -1;
  uint64_t request = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool informational = false;
};

/// Layer of the root spans of the requests a client sends; only spans
/// below such a root are attributed. Other roots (the direct replay of a
/// request's layer calls) are written to the span file but not
/// attributed, so no time is counted twice.
inline constexpr const char* kClientLayer = "client";

/// In-memory span store of the single-threaded traced pass, written out
/// when the run ends.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  int64_t Begin(std::string name, std::string layer, uint64_t request,
                int64_t parent);
  void End(int64_t id);
  /// Attaches the program's request trace below `parent`, the span of
  /// the call that returned it, laid end to end from the parent's start.
  /// The trace's top-level phases are attributed to their layer (plan:
  /// planner; mine:sharded: shard; other mine:*: core; the rest stay in
  /// the parent's layer), so the parent's self time is what the program
  /// spent outside them. Deeper levels are informational.
  void AttachProgramTrace(const phrasemine::TraceSpan& root, int64_t parent);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer over the client requests: each attributed
  /// span's duration minus the part of it its attributed children cover.
  std::map<std::string, double> SelfMsByLayer() const;
  /// Sum of the durations of the client request roots (client wall time).
  double RootWallMs() const;
  /// Number of client request roots.
  std::size_t Requests() const;

  bool WriteJsonl(const std::string& path) const;

 private:
  void AttachRec(const phrasemine::TraceSpan& span, int64_t parent,
                 double start_ms, const std::string& layer,
                 bool informational);
  /// Whether span `id` descends from a client request root.
  std::vector<bool> UnderClientRoots() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, std::string layer,
             uint64_t request, int64_t parent)
      : rec_(rec),
        id_(rec == nullptr ? -1
                           : rec->Begin(std::move(name), std::move(layer),
                                        request, parent)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void End() {
    if (rec_ != nullptr && id_ >= 0) rec_->End(id_);
    rec_ = nullptr;
  }
  int64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int64_t id_;
};

/// Lower-case metric spelling of an algorithm: exact, gm, simitsis, nra,
/// nra_disk, smj.
const char* AlgKey(phrasemine::Algorithm a);

/// The five algorithms the planner can route to, in metric order.
inline constexpr phrasemine::Algorithm kServedAlgorithms[] = {
    phrasemine::Algorithm::kExact, phrasemine::Algorithm::kGm,
    phrasemine::Algorithm::kNra, phrasemine::Algorithm::kNraDisk,
    phrasemine::Algorithm::kSmj};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
