#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/trace.h"
#include "text/synthetic.h"

namespace perfbench {

using namespace phrasemine;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.NextU64();
}

std::size_t CorpusDocs(double scale) {
  return std::max<std::size_t>(
      50, static_cast<std::size_t>(std::llround(kCorpusDocs * scale)));
}

Corpus MakeCorpus(std::size_t num_docs) {
  SyntheticCorpusOptions options = SyntheticCorpusGenerator::ReutersLike();
  options.num_docs = num_docs;
  return SyntheticCorpusGenerator(options).Generate();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return v[idx];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void Progress(const std::string& what) {
  static const Clock::time_point start = Clock::now();
  std::printf("[%7.1f s] %s\n", MsSince(start) / 1000.0, what.c_str());
  std::fflush(stdout);
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMb() {
  // VmHWM follows ResetPeakRss(); getrusage's peak never goes down.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTimes ReadCpuTimes() {
  // "cpu user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user time.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  stat >> cpu;
  for (uint64_t& x : v) stat >> x;
  CpuTimes t;
  if (!stat || cpu != "cpu") return t;
  t.steal = v[7];
  for (uint64_t x : v) t.total += x;
  return t;
}

double StealFraction(const CpuTimes& since) {
  return StealFraction(since, ReadCpuTimes());
}

double StealFraction(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e = {name, value, unit, samples};
      return;
    }
  }
  entries_.push_back({name, value, unit, samples});
}

bool MetricSet::Has(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

double MetricSet::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

std::string MetricSet::Table() const {
  std::string out;
  char line[256];
  for (const Entry& e : entries_) {
    if (e.samples > 0) {
      std::snprintf(line, sizeof(line), "  %-40s %14.6g %-6s (n=%zu)\n",
                    e.name.c_str(), e.value, e.unit.c_str(), e.samples);
    } else {
      std::snprintf(line, sizeof(line), "  %-40s %14.6g %s\n", e.name.c_str(),
                    e.value, e.unit.c_str());
    }
    out += line;
  }
  return out;
}

std::string MetricSet::Json() const {
  std::string out = "{";
  char buf[512];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", e.name.c_str(), v, e.unit.c_str());
    out += buf;
  }
  return out + "}";
}

void Checker::Fail(const std::string& what) {
  failures_.fetch_add(1, std::memory_order_relaxed);
  std::scoped_lock lock(mu_);
  if (first_.empty()) first_ = what;
}

std::string Checker::first_failure() const {
  std::scoped_lock lock(mu_);
  return first_;
}

bool SameRanking(const std::vector<MinedPhrase>& a,
                 const std::vector<MinedPhrase>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].phrase != b[i].phrase ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0 ||
        std::memcmp(&a[i].interestingness, &b[i].interestingness,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameScores(const std::vector<MinedPhrase>& a,
                const std::vector<MinedPhrase>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

int64_t SpanRecorder::Begin(std::string name, std::string layer,
                            uint64_t request, int64_t parent) {
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = parent;
  span.request = request;
  span.start_ms = MsSince(origin_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int64_t id) { spans_[id].end_ms = MsSince(origin_); }

void SpanRecorder::AttachProgramTrace(const TraceSpan& root, int64_t parent) {
  double at = spans_[parent].start_ms;
  for (const auto& child : root.children) {
    if (child == nullptr) continue;
    std::string layer = spans_[parent].layer;
    if (child->name == "plan") {
      layer = "planner";
    } else if (child->name == "mine:sharded") {
      layer = "shard";
    } else if (child->name.rfind("mine:", 0) == 0) {
      layer = "core";
    }
    AttachRec(*child, parent, at, layer, /*informational=*/false);
    at += child->wall_ms;
  }
}

void SpanRecorder::AttachRec(const TraceSpan& span, int64_t parent,
                             double start_ms, const std::string& layer,
                             bool informational) {
  Span s;
  s.name = "program:" + span.name;
  s.layer = layer;
  s.parent = parent;
  s.request = spans_[parent].request;
  s.start_ms = start_ms;
  s.end_ms = start_ms + span.wall_ms;
  s.informational = informational;
  spans_.push_back(std::move(s));
  const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  // Children of one phase may run in parallel (shard legs), so their
  // offsets are nominal: only durations are exact.
  double at = start_ms;
  for (const auto& child : span.children) {
    if (child == nullptr) continue;
    AttachRec(*child, id, at, layer, /*informational=*/true);
    at += child->wall_ms;
  }
}

std::vector<bool> SpanRecorder::UnderClientRoots() const {
  // A parent is always recorded before its children.
  std::vector<bool> under(spans_.size(), false);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    under[i] = s.parent < 0 ? s.layer == kClientLayer : under[s.parent];
  }
  return under;
}

std::map<std::string, double> SpanRecorder::SelfMsByLayer() const {
  // Children of one span are sequential calls of the single traced
  // client, so the part of a span its children cover is the sum of their
  // durations.
  const std::vector<bool> under = UnderClientRoots();
  std::vector<double> covered(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!under[i] || s.informational || s.parent < 0) continue;
    covered[s.parent] += s.end_ms - s.start_ms;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!under[i] || s.informational) continue;
    self[s.layer] += std::max(0.0, (s.end_ms - s.start_ms) - covered[i]);
  }
  return self;
}

double SpanRecorder::RootWallMs() const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.layer == kClientLayer) sum += s.end_ms - s.start_ms;
  }
  return sum;
}

std::size_t SpanRecorder::Requests() const {
  std::size_t n = 0;
  for (const Span& s : spans_) {
    n += s.parent < 0 && s.layer == kClientLayer ? 1 : 0;
  }
  return n;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %zu, \"parent\": %lld, \"request\": %llu, "
                  "\"name\": \"%s\", \"layer\": \"%s\", \"start_ms\": %.4f, "
                  "\"end_ms\": %.4f, \"informational\": %s}\n",
                  i, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.name.c_str(),
                  s.layer.c_str(), s.start_ms, s.end_ms,
                  s.informational ? "true" : "false");
    out << buf;
  }
  return static_cast<bool>(out);
}

const char* AlgKey(Algorithm a) {
  switch (a) {
    case Algorithm::kExact:
      return "exact";
    case Algorithm::kGm:
      return "gm";
    case Algorithm::kSimitsis:
      return "simitsis";
    case Algorithm::kNra:
      return "nra";
    case Algorithm::kNraDisk:
      return "nra_disk";
    case Algorithm::kSmj:
      return "smj";
  }
  return "unknown";
}

}  // namespace perfbench
