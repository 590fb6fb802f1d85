#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "eval/query_gen.h"
#include "obs/trace.h"
#include "service/cache.h"
#include "service/planner.h"
#include "service/service.h"
#include "shard/sharded_engine.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using namespace phrasemine;

/// Closed-loop clients per query workload. With four, every vCPU of a
/// 4-vCPU host was busy, so each burst of hypervisor steal held up a
/// request; cold's p50 spread across seeds was about three times two's.
constexpr int kLoadClients = 2;
/// Threads of the after-timing check's re-mines.
constexpr int kCheckThreads = 4;
constexpr std::size_t kTopK = 5;
constexpr int kCpuSampleMs = 50;

// ---------------------------------------------------------------------------
// Requests and closed-loop load

/// One request of a workload stream: a canonical query, its k and an
/// optional forced algorithm (null: the planner chooses).
struct Req {
  /// Identifies the distinct query: replies to equal ids must agree.
  std::size_t id = 0;
  Query query;
  std::size_t k = kTopK;
  std::optional<Algorithm> alg;
};

/// The ranking a reply carried (texts only on the sharded path).
struct Ranked {
  std::vector<MinedPhrase> phrases;
  std::vector<std::string> texts;
};

uint64_t ReplyKey(std::size_t req, Algorithm alg) {
  return static_cast<uint64_t>(req) * 8 + static_cast<uint64_t>(alg);
}
std::size_t KeyReq(uint64_t key) { return static_cast<std::size_t>(key / 8); }
Algorithm KeyAlg(uint64_t key) { return static_cast<Algorithm>(key % 8); }

/// A /proc/stat reading taken `t_s` seconds after a load phase started.
struct CpuSample {
  double t_s = 0.0;
  CpuTimes cpu;
};

/// What one load phase observed. Latency vectors hold timed samples only;
/// `firsts` holds the first ranking seen per (request, algorithm), warm-up
/// included, for the after-timing check.
struct LoadLog {
  double elapsed_s = 0.0;
  /// A non-wrapping stream ran out before the phase's deadline.
  bool exhausted = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> client_ms;
  /// When each timed reply arrived, in seconds since the phase started.
  std::vector<double> done_s;
  std::vector<double> exec_ms;
  std::vector<Algorithm> algs;
  std::vector<uint8_t> hits;
  /// Host CPU readings every kCpuSampleMs over a timed phase.
  std::vector<CpuSample> cpu;
  std::unordered_map<uint64_t, Ranked> firsts;

  void Merge(LoadLog&& other, Checker* checker) {
    exhausted = exhausted || other.exhausted;
    attempted += other.attempted;
    failed += other.failed;
    client_ms.insert(client_ms.end(), other.client_ms.begin(),
                     other.client_ms.end());
    done_s.insert(done_s.end(), other.done_s.begin(), other.done_s.end());
    exec_ms.insert(exec_ms.end(), other.exec_ms.begin(), other.exec_ms.end());
    algs.insert(algs.end(), other.algs.begin(), other.algs.end());
    hits.insert(hits.end(), other.hits.begin(), other.hits.end());
    for (auto& [key, ranked] : other.firsts) {
      auto [it, inserted] = firsts.try_emplace(key, std::move(ranked));
      if (!inserted && !(SameRanking(it->second.phrases, ranked.phrases) &&
                         it->second.texts == ranked.texts)) {
        checker->Fail("two clients got different rankings for request " +
                      std::to_string(KeyReq(key)));
      }
    }
  }
};

/// Where a load phase draws its requests: indices [begin, end) of `reqs`,
/// wrapping around when `wrap` (repeating streams) and ending the phase
/// when exhausted otherwise (streams that must never repeat).
struct Stream {
  const std::vector<Req>* reqs = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  bool wrap = false;
  /// Where a wrapping stream starts, relative to `begin`.
  std::size_t offset = 0;
};

/// Runs `clients` closed-loop clients for `seconds` (or until a
/// non-wrapping stream is exhausted): each sends one request, waits for
/// its reply, then sends the next. A client calls PhraseService::MineSync,
/// which serves the request on the client's own thread with the same
/// canonicalization, caches, planner and miners as a pool worker. The
/// pool hand-off of Submit->get is left out of the timed load: its two
/// thread wake-ups per request made latency track the host's CPU steal
/// (p50 doubled at 7-9 % steal) rather than the program. With
/// `last_ingest_epoch` (churn) each reply is checked against the epoch
/// contract instead of its ranking:
/// a client's reply epochs never go back, and never predate the last
/// epoch an ingest had returned before the request was submitted.
LoadLog RunClosedLoop(PhraseService& service, const Stream& stream,
                      int clients, double seconds, bool record,
                      Checker* checker,
                      const std::atomic<uint64_t>* last_ingest_epoch = nullptr) {
  std::atomic<std::size_t> cursor{stream.begin + stream.offset};
  std::vector<LoadLog> logs(clients);
  const std::size_t span = stream.end - stream.begin;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<Clock::time_point> finish(clients, start);
  std::vector<std::thread> threads;
  // A timed phase also samples the host's CPU counters, so that each
  // slice of it can be told how much CPU the hypervisor stole.
  std::atomic<bool> clients_done{false};
  std::vector<CpuSample> cpu;
  std::thread sampler;
  if (record) {
    sampler = std::thread([&] {
      for (bool last = false; !last;) {
        last = clients_done.load();
        cpu.push_back({MsSince(start) / 1000.0, ReadCpuTimes()});
        if (!last) {
          std::this_thread::sleep_for(std::chrono::milliseconds(kCpuSampleMs));
        }
      }
    });
  }
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadLog& log = logs[c];
      uint64_t last_epoch = 0;
      for (;;) {
        const Clock::time_point t0 = Clock::now();
        if (t0 >= deadline || span == 0) break;
        std::size_t idx = cursor.fetch_add(1, std::memory_order_relaxed);
        if (stream.wrap) {
          idx = stream.begin + (idx - stream.begin) % span;
        } else if (idx >= stream.end) {
          log.exhausted = true;
          break;
        }
        const Req& req = (*stream.reqs)[idx];
        ServiceRequest request;
        request.query = req.query;
        request.options.k = req.k;
        request.algorithm = req.alg;
        const uint64_t floor_epoch =
            last_ingest_epoch == nullptr
                ? 0
                : last_ingest_epoch->load(std::memory_order_acquire);
        ServiceReply reply = service.MineSync(request);
        const double client_ms = MsSince(t0);
        ++log.attempted;
        if (!reply.status.ok()) {
          ++log.failed;
          continue;
        }
        if (last_ingest_epoch != nullptr) {
          if (reply.epoch < last_epoch || reply.epoch < floor_epoch) {
            checker->Fail("reader epoch went back: got " +
                          std::to_string(reply.epoch) + " after " +
                          std::to_string(last_epoch) + ", ingest floor " +
                          std::to_string(floor_epoch));
          } else {
            checker->Pass();
          }
          last_epoch = reply.epoch;
        }
        if (record) {
          log.client_ms.push_back(client_ms);
          log.done_s.push_back(MsSince(start) / 1000.0);
          log.exec_ms.push_back(reply.latency_ms);
          log.algs.push_back(reply.plan.algorithm);
          log.hits.push_back(reply.result_cache_hit ? 1 : 0);
        }
        // Under churn the same request legitimately changes answer from
        // epoch to epoch; the epoch contract above is its check.
        if (last_ingest_epoch != nullptr) continue;
        auto [it, inserted] =
            log.firsts.try_emplace(ReplyKey(req.id, reply.plan.algorithm));
        if (inserted) {
          it->second.phrases = std::move(reply.result.phrases);
          it->second.texts = std::move(reply.phrase_texts);
        } else if (!SameRanking(it->second.phrases, reply.result.phrases) ||
                   it->second.texts != reply.phrase_texts) {
          checker->Fail("repeat of request " + std::to_string(req.id) +
                        " changed its ranking");
        }
      }
      finish[c] = Clock::now();
    });
  }
  for (std::thread& t : threads) t.join();
  clients_done = true;
  if (sampler.joinable()) sampler.join();
  LoadLog merged;
  for (LoadLog& log : logs) merged.Merge(std::move(log), checker);
  merged.cpu = std::move(cpu);
  merged.elapsed_s =
      MsBetween(start, *std::max_element(finish.begin(), finish.end())) /
      1000.0;
  return merged;
}

// ---------------------------------------------------------------------------
// Inputs

std::vector<Query> Harvest(const MiningEngine& engine, uint64_t seed,
                           std::size_t count, bool tiny) {
  QueryGenOptions options;
  options.seed = seed;
  options.num_queries = count;
  // Looser than the paper-shaped defaults, so the corpus yields thousands
  // of distinct term sets quickly; miniature corpora (self-test) have
  // fewer frequent terms still.
  options.min_term_df = tiny ? 4 : 8;
  options.min_pairwise_codf = tiny ? 2 : 3;
  options.min_and_matches = tiny ? 2 : 3;
  return QuerySetGenerator(options).Generate(engine.dict(), engine.inverted(),
                                             engine.corpus().size());
}

/// Fisher-Yates with the repo's portable Rng (std::shuffle's stream
/// differs across standard libraries).
template <typename T>
void Shuffle(std::vector<T>* items, uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.NextBelow(i)]);
  }
}

/// Every term set under both operators, canonical.
std::vector<Query> WithOps(const std::vector<Query>& sets) {
  std::vector<Query> out;
  for (const Query& q : sets) {
    for (QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
      Query c = q;
      c.op = op;
      out.push_back(CanonicalizeQuery(c));
    }
  }
  return out;
}

/// Every harvested term set under both operators, shuffled: the cold and
/// sharded stream, in which no request repeats.
std::vector<Req> DistinctStream(const std::vector<Query>& sets,
                                uint64_t seed) {
  std::vector<Req> reqs;
  for (Query& q : WithOps(sets)) {
    Req r;
    r.query = std::move(q);
    reqs.push_back(std::move(r));
  }
  Shuffle(&reqs, seed);
  for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].id = i;
  return reqs;
}

/// A Zipf stream with hot-set drift over `pool` (operators alternate
/// AND/OR by pool position), drawn by the bench/workload generator.
std::vector<Req> ZipfStream(const MiningEngine& engine,
                            const std::vector<Query>& pool_sets,
                            uint64_t seed, std::size_t events,
                            std::optional<Algorithm> alg) {
  std::vector<Query> pool = pool_sets;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].op = i % 2 == 0 ? QueryOperator::kAnd : QueryOperator::kOr;
    pool[i] = CanonicalizeQuery(pool[i]);
  }
  const std::vector<workload::WorkloadQuerySpec> specs =
      workload::PoolFromQueries(pool, engine.corpus().vocab(), kTopK);
  std::map<std::pair<QueryOperator, std::vector<std::string>>, std::size_t>
      index;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    index.emplace(std::make_pair(specs[i].op, specs[i].terms), i);
  }
  workload::WorkloadOptions options;
  options.seed = seed;
  options.num_queries = events;
  options.zipf_s = 1.1;
  options.drift_cadence = std::max<std::size_t>(1, events / 8);
  options.drift_rotate = std::max<std::size_t>(1, specs.size() / 10);
  const workload::WorkloadTrace trace = workload::GenerateTrace(specs, options);
  std::vector<Req> reqs;
  reqs.reserve(trace.queries.size());
  for (const workload::TraceQuery& tq : trace.queries) {
    const std::size_t i = index.at(std::make_pair(tq.op, tq.terms));
    Req r;
    r.id = i;
    r.query = pool[i];
    r.k = tq.k;
    r.alg = alg;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

/// Median of the timed set-up repetitions.
struct SetupClock {
  std::vector<double> seconds;
  void Add(double ms) { seconds.push_back(ms / 1000.0); }
  double Median() const { return perfbench::Median(seconds); }
};

// ---------------------------------------------------------------------------
// Shared metric blocks

/// The timed window is cut into kSlices equal slices, and the metrics
/// take only the quieter half of them: the slices whose share of host CPU
/// stolen by the hypervisor is at most the median slice's. query_qps is
/// their replies over their time; query_p50_ms and query_p99_ms are
/// percentiles of their pooled latencies. On a shared host, steal comes
/// in bursts of a few seconds, and a slice under 10 % steal serves a third
/// fewer requests although the program is the same in every slice.
constexpr int kSlices = 30;

/// The share of host CPU stolen in each slice, from the phase's readings.
std::vector<double> SliceSteal(const LoadLog& log) {
  std::vector<double> steal(kSlices, 0.0);
  if (log.cpu.empty()) return steal;
  // The last reading at or before `t` (the first, before it).
  auto at = [&](double t) {
    auto it = std::upper_bound(
        log.cpu.begin(), log.cpu.end(), t,
        [](double v, const CpuSample& c) { return v < c.t_s; });
    return it == log.cpu.begin() ? it->cpu : std::prev(it)->cpu;
  };
  for (int i = 0; i < kSlices; ++i) {
    steal[i] = StealFraction(at(log.elapsed_s * i / kSlices),
                             at(log.elapsed_s * (i + 1) / kSlices));
  }
  return steal;
}

void AddQueryMetrics(const LoadLog& log, MetricSet* m) {
  std::vector<double> quiet_ms;
  int quiet_slices = 0;
  std::string line = "per-slice q/s (host steal %, * = left out):";
  if (!log.client_ms.empty() && log.elapsed_s > 0) {
    const std::vector<double> steal = SliceSteal(log);
    const double cut = Median(steal);
    std::vector<std::vector<double>> slices(kSlices);
    for (std::size_t i = 0; i < log.client_ms.size(); ++i) {
      const int s = static_cast<int>(log.done_s[i] / log.elapsed_s * kSlices);
      slices[std::clamp(s, 0, kSlices - 1)].push_back(log.client_ms[i]);
    }
    for (int i = 0; i < kSlices; ++i) {
      const bool quiet = steal[i] <= cut;
      char buf[48];
      std::snprintf(buf, sizeof buf, " %ld (%.1f)%s",
                    std::lround(slices[i].size() * kSlices / log.elapsed_s),
                    100.0 * steal[i], quiet ? "" : "*");
      line += buf;
      if (!quiet) continue;
      ++quiet_slices;
      quiet_ms.insert(quiet_ms.end(), slices[i].begin(), slices[i].end());
    }
  }
  Progress(line);
  const double quiet_s = log.elapsed_s * quiet_slices / kSlices;
  m->Add("query_qps", quiet_s > 0 ? quiet_ms.size() / quiet_s : 0.0, "1/s",
         quiet_ms.size());
  m->Add("query_p50_ms", Percentile(quiet_ms, 50), "ms", quiet_ms.size());
  m->Add("query_p99_ms", Percentile(quiet_ms, 99), "ms", quiet_ms.size());
}

/// Service-layer counters of a load phase: queue wait, execution time per
/// algorithm, planner routing shares and the service's own stats.
void AddServiceLayerMetrics(const LoadLog& log, const ServiceStats& stats,
                            MetricSet* m) {
  std::vector<double> wait;
  std::map<Algorithm, std::vector<double>> exec;
  std::map<Algorithm, std::size_t> routed;
  for (std::size_t i = 0; i < log.client_ms.size(); ++i) {
    wait.push_back(std::max(0.0, log.client_ms[i] - log.exec_ms[i]));
    ++routed[log.algs[i]];
    if (!log.hits[i]) exec[log.algs[i]].push_back(log.exec_ms[i]);
  }
  m->Add("service.queue_wait_ms_p50", Percentile(wait, 50), "ms", wait.size());
  m->Add("service.queue_wait_ms_p99", Percentile(wait, 99), "ms", wait.size());
  for (Algorithm a : kServedAlgorithms) {
    m->Add(std::string("service.exec_ms_p50.") + AlgKey(a),
           Percentile(exec[a], 50), "ms", exec[a].size());
  }
  for (Algorithm a : kServedAlgorithms) {
    m->Add(std::string("planner.share.") + AlgKey(a),
           log.algs.empty() ? 0.0
                            : static_cast<double>(routed[a]) / log.algs.size(),
           "frac", log.algs.size());
  }
  m->Add("service.result_cache.hit_rate", stats.result_cache.HitRate(), "frac");
  m->Add("service.result_cache.evictions",
         static_cast<double>(stats.result_cache.evictions), "count");
  m->Add("service.word_list_cache.hit_rate", stats.word_list_cache.HitRate(),
         "frac");
  m->Add("service.word_list_cache.evictions",
         static_cast<double>(stats.word_list_cache.evictions), "count");
  m->Add("service.word_list_cache.bytes",
         static_cast<double>(stats.word_list_cache.bytes), "bytes");
  m->Add("service.pool.peak_queue_depth",
         static_cast<double>(stats.pool.peak_queue_depth), "count");
  m->Add("service.placement_refreshes",
         static_cast<double>(stats.placement_refreshes), "count");
}


// ---------------------------------------------------------------------------
// After-timing correctness checks

/// Self-test hook: perturbs the top score of one recorded reply so the
/// check below must catch it.
void CorruptOneReply(std::unordered_map<uint64_t, Ranked>* firsts) {
  uint64_t victim = UINT64_MAX;
  for (const auto& [key, ranked] : *firsts) {
    if (!ranked.phrases.empty()) victim = std::min(victim, key);
  }
  if (victim == UINT64_MAX) return;
  double& score = (*firsts)[victim].phrases[0].score;
  score = std::nextafter(score, 1e300);
}

/// Runs `fn` over every recorded (request, algorithm) key on up to four
/// threads; each call is one direct re-mine on a reference structure.
void ForEachKey(const std::unordered_map<uint64_t, Ranked>& firsts,
                const std::function<void(uint64_t, const Ranked&)>& fn) {
  std::vector<const std::pair<const uint64_t, Ranked>*> items;
  for (const auto& item : firsts) items.push_back(&item);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < items.size();) {
        fn(items[i]->first, items[i]->second);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// hot/cold: every reply equals a re-mine of its canonical query with the
/// reply's algorithm on a separately built in-memory engine (kNraDisk
/// replies against in-memory kNra).
/// The request of each id (its first occurrence in the stream).
std::unordered_map<std::size_t, const Req*> ById(const std::vector<Req>& reqs) {
  std::unordered_map<std::size_t, const Req*> by_id;
  for (const Req& r : reqs) by_id.try_emplace(r.id, &r);
  return by_id;
}

void CheckMonolith(const LoadLog& log, const std::vector<Req>& reqs,
                   MiningEngine& reference, Checker* checker) {
  const auto by_id = ById(reqs);
  ForEachKey(log.firsts, [&](uint64_t key, const Ranked& got) {
    const Req& req = *by_id.at(KeyReq(key));
    Algorithm alg = KeyAlg(key);
    if (alg == Algorithm::kNraDisk) alg = Algorithm::kNra;
    MineOptions options;
    options.k = req.k;
    const MineResult want = reference.Mine(req.query, alg, options);
    if (want.status.ok() && SameRanking(want.phrases, got.phrases)) {
      checker->Pass();
    } else {
      checker->Fail(std::string("request ") + std::to_string(KeyReq(key)) +
                    " (" + AlgKey(KeyAlg(key)) +
                    ") differs from the reference re-mine");
    }
  });
}

/// sharded: Exact/SMJ replies equal the monolith's texts and scores; the
/// bounded-merge algorithms equal a re-mine on a separately built fleet.
void CheckSharded(const LoadLog& log, const std::vector<Req>& reqs,
                  MiningEngine& monolith, ShardedEngine& reference_fleet,
                  Checker* checker) {
  const auto by_id = ById(reqs);
  ForEachKey(log.firsts, [&](uint64_t key, const Ranked& got) {
    const Req& req = *by_id.at(KeyReq(key));
    const Algorithm alg = KeyAlg(key);
    MineOptions options;
    options.k = req.k;
    bool same = false;
    if (alg == Algorithm::kExact || alg == Algorithm::kSmj) {
      const MineResult want = monolith.Mine(req.query, alg, options);
      std::vector<std::string> texts;
      for (const MinedPhrase& p : want.phrases) {
        texts.push_back(monolith.PhraseText(p.phrase));
      }
      same = want.status.ok() && texts == got.texts &&
             SameScores(want.phrases, got.phrases);
    } else {
      const ShardedMineResult want =
          reference_fleet.Mine(req.query, alg, options);
      same = want.result.status.ok() && want.texts == got.texts &&
             SameRanking(want.result.phrases, got.phrases);
    }
    if (same) {
      checker->Pass();
    } else {
      checker->Fail(std::string("sharded request ") +
                    std::to_string(KeyReq(key)) + " (" + AlgKey(alg) +
                    ") differs from its reference");
    }
  });
}

// ---------------------------------------------------------------------------
// Traced single-client pass of the query workloads

/// The structures a traced query pass calls into directly.
struct TraceTargets {
  PhraseService* service = nullptr;
  /// Serving monolith (hot, cold); null on the sharded workload.
  MiningEngine* engine = nullptr;
  /// Serving fleet (sharded); null otherwise.
  ShardedEngine* fleet = nullptr;
  /// In-memory engine the every-algorithm mines run on.
  MiningEngine* alg_engine = nullptr;
};

struct TraceSlices {
  const std::vector<Req>* reqs = nullptr;
  std::size_t baseline_begin = 0;
  std::size_t traced_begin = 0;
  std::size_t count = 0;
  /// Leading traced requests also mined with every served algorithm.
  std::size_t all_alg_count = 0;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Self time per layer per request and coverage of a traced pass.
void AddTraceHealth(const SpanRecorder& rec, MetricSet* m) {
  static const char* kLayers[] = {"client", "service", "planner", "core",
                                  "shard",  "delta",   "subscribe"};
  const std::size_t requests = rec.Requests();
  const std::map<std::string, double> self = rec.SelfMsByLayer();
  double attributed = 0.0;
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double ms = it == self.end() ? 0.0 : it->second;
    if (std::string(layer) != kClientLayer) attributed += ms;
    m->Add(std::string("layer.") + layer + ".self_ms_per_req",
           Ratio(ms, static_cast<double>(requests)), "ms", requests);
  }
  m->Add("trace.coverage", Ratio(attributed, rec.RootWallMs()), "frac");
}

/// The traced single-client pass of hot, cold and sharded. One slice of
/// requests is sent untraced (the trace.overhead baseline). Each request
/// of a second slice is sent traced, its reply's program trace breaking
/// the Submit->get span into service, planner and core (or shard) self
/// time, and is then replayed layer by layer: Plan, Ensure*Lists and
/// Mine called directly, giving the planner.*, word_lists.*, mine.* and
/// shard.* figures.
void TraceQueryPass(const TraceTargets& targets, const TraceSlices& slices,
                    const MetricSet& load_layers, SpanRecorder* rec,
                    MetricSet* m) {
  const std::vector<Req>& reqs = *slices.reqs;
  auto submit = [&](const Req& req, bool trace) {
    ServiceRequest request;
    request.query = req.query;
    request.options.k = req.k;
    request.options.trace = trace;
    request.algorithm = req.alg;
    return targets.service->Submit(std::move(request)).get();
  };
  std::vector<double> untraced;
  for (std::size_t i = 0; i < slices.count; ++i) {
    const Clock::time_point t0 = Clock::now();
    (void)submit(reqs[slices.baseline_begin + i], false);
    untraced.push_back(MsSince(t0));
  }

  std::optional<CostPlanner> planner;
  if (targets.engine != nullptr) planner.emplace(targets.engine);
  std::vector<double> traced, plan_us, build_ms, entries, peak, traversed,
      shard_ms;
  double candidates = 0.0, fill_slots = 0.0, pruned = 0.0;
  std::size_t built = 0;
  std::map<Algorithm, std::vector<double>> alg_ms;
  for (std::size_t i = 0; i < slices.count; ++i) {
    const std::size_t idx = slices.traced_begin + i;
    const Req& req = reqs[idx];
    MineOptions options;
    options.k = req.k;
    ScopedSpan root(rec, "request", kClientLayer, idx, -1);
    {
      ScopedSpan span(rec, "PhraseService::Submit->get", "service", idx,
                      root.id());
      const Clock::time_point t0 = Clock::now();
      ServiceReply reply = submit(req, true);
      traced.push_back(MsSince(t0));
      span.End();
      if (reply.trace != nullptr) {
        rec->AttachProgramTrace(*reply.trace, span.id());
      }
    }
    root.End();
    // The replay: the same request's layer calls made directly, for the
    // planner, word-list and miner figures. A root of its own, so its
    // time is never added to the served request's layers.
    ScopedSpan replay(rec, "replay", "replay", idx, -1);
    Algorithm alg;
    {
      ScopedSpan span(rec, "CostPlanner::Plan", "planner", idx, replay.id());
      const Clock::time_point t0 = Clock::now();
      const PlanDecision plan =
          planner ? planner->Plan(req.query, options)
                  : CostPlanner::PlanAcrossShards(
                        targets.fleet->GatherPlannerInputs(req.query, options),
                        PlannerOptions{});
      plan_us.push_back(MsSince(t0) * 1000.0);
      alg = req.alg.value_or(plan.algorithm);
    }
    {
      ScopedSpan span(rec, alg == Algorithm::kSmj ? "EnsureIdOrderedLists"
                                                  : "EnsureWordLists",
                      "word_lists", idx, replay.id());
      const Clock::time_point t0 = Clock::now();
      std::size_t missing = 0;
      auto ensure = [&](MiningEngine& e) {
        for (TermId t : req.query.terms) missing += e.word_lists().Has(t) ? 0 : 1;
        if (alg == Algorithm::kSmj) {
          e.EnsureIdOrderedLists(req.query.terms);
        } else {
          e.EnsureWordLists(req.query.terms);
        }
      };
      if (targets.engine != nullptr) {
        ensure(*targets.engine);
      } else {
        for (std::size_t s = 0; s < targets.fleet->num_shards(); ++s) {
          ensure(targets.fleet->shard(s));
        }
      }
      if (missing > 0) build_ms.push_back(MsSince(t0));
      built += missing;
    }
    if (targets.engine != nullptr) {
      ScopedSpan span(rec, "MiningEngine::Mine", "core", idx, replay.id());
      const MineResult r = targets.engine->Mine(req.query, alg, options);
      entries.push_back(static_cast<double>(r.entries_read));
      peak.push_back(static_cast<double>(r.peak_candidates));
      traversed.push_back(r.lists_traversed_fraction);
    } else {
      ScopedSpan span(rec, "ShardedEngine::Mine", "shard", idx, replay.id());
      const Clock::time_point t0 = Clock::now();
      const ShardedMineResult r = targets.fleet->Mine(req.query, alg, options);
      shard_ms.push_back(MsSince(t0));
      candidates += static_cast<double>(r.candidates);
      fill_slots += static_cast<double>(r.fill_slots);
      pruned += static_cast<double>(r.result.candidates_pruned);
      entries.push_back(static_cast<double>(r.result.entries_read));
      peak.push_back(static_cast<double>(r.result.peak_candidates));
      traversed.push_back(r.result.lists_traversed_fraction);
    }
    if (i < slices.all_alg_count) {
      for (Algorithm a : kServedAlgorithms) {
        ScopedSpan span(rec, std::string("MiningEngine::Mine ") + AlgKey(a),
                        "core", idx, replay.id());
        const Clock::time_point t0 = Clock::now();
        (void)targets.alg_engine->Mine(req.query, a, options);
        alg_ms[a].push_back(MsSince(t0));
      }
    }
  }

  m->Add("planner.plan_us_p50", Percentile(plan_us, 50), "us", plan_us.size());
  m->Add("word_lists.build_ms_p50", Percentile(build_ms, 50), "ms",
         build_ms.size());
  double build_sum = 0.0;
  for (double x : build_ms) build_sum += x;
  m->Add("word_lists.build_ms_sum", build_sum, "ms");
  m->Add("word_lists.built", static_cast<double>(built), "count");
  for (Algorithm a : kServedAlgorithms) {
    const double p50 = Percentile(alg_ms[a], 50);
    m->Add(std::string("mine.") + AlgKey(a) + ".ms_p50", p50, "ms",
           alg_ms[a].size());
    m->Add(std::string("core.") + AlgKey(a) + ".contention",
           Ratio(load_layers.Get(std::string("service.exec_ms_p50.") + AlgKey(a)),
                 p50),
           "ratio");
  }
  m->Add("mine.entries_read_per_query", Mean(entries), "count",
         entries.size());
  m->Add("mine.peak_candidates_p50", Percentile(peak, 50), "count",
         peak.size());
  m->Add("mine.lists_traversed_fraction", Mean(traversed), "frac",
         traversed.size());
  if (targets.fleet != nullptr) {
    const double n = static_cast<double>(shard_ms.size());
    m->Add("shard.mine_ms_p50", Percentile(shard_ms, 50), "ms",
           shard_ms.size());
    m->Add("shard.mine_ms_p90", Percentile(shard_ms, 90), "ms",
           shard_ms.size());
    m->Add("shard.candidates_per_query", Ratio(candidates, n), "count");
    m->Add("shard.fill_slots_per_query", Ratio(fill_slots, n), "count");
    m->Add("shard.pruned_frac", Ratio(pruned, candidates), "frac");
  }
  m->Add("trace.overhead",
         Ratio(Percentile(traced, 50), Percentile(untraced, 50)), "ratio");
  AddTraceHealth(*rec, m);
}

// ---------------------------------------------------------------------------
// Updates: churn's load shape, and the update probe of the traced runs

// Auto-rebuild is on, with the threshold set so the overlay crosses it
// kRebuildMarginSeconds after the load phase ends: a 2-3 s rebuild stall
// inside the timed window made every reader metric unsteady, so the
// timed window prices a growing overlay and the traced pass prices the
// rebuild itself.
constexpr double kIngestRate = 5.0;  // batches per second
constexpr std::size_t kBatchInserts = 4;
constexpr std::size_t kBatchDeletes = 1;
constexpr double kRebuildMarginSeconds = 2.0;
constexpr std::size_t kSubscriptions = 8;
/// Batches of the update probe on workloads without an ingest load.
constexpr std::size_t kProbeBatches = 40;
constexpr int kReaders = 2;

struct IngestRecord {
  uint64_t epoch = 0;
  Clock::time_point returned;
};

/// Pre-generated update batches: inserts of unseen documents and deletes
/// of base documents, both in seeded order.
std::vector<UpdateBatch> MakeBatches(const RunOptions& opt, std::size_t count,
                                     std::size_t base_docs) {
  // Insert documents are drawn, in seeded order, from the generator's
  // continuation past the served prefix.
  const std::size_t extra_docs = std::max<std::size_t>(count * kBatchInserts, 2000);
  Corpus extra = MakeCorpus(base_docs + extra_docs);
  std::vector<DocId> fresh(extra_docs);
  for (std::size_t i = 0; i < extra_docs; ++i) {
    fresh[i] = static_cast<DocId>(base_docs + i);
  }
  Shuffle(&fresh, SubSeed(opt.seed, 5));
  std::vector<DocId> victims(base_docs);
  for (std::size_t i = 0; i < base_docs; ++i) victims[i] = static_cast<DocId>(i);
  Shuffle(&victims, SubSeed(opt.seed, 6));
  std::vector<UpdateBatch> batches(count);
  std::size_t next_doc = 0, next_victim = 0;
  for (UpdateBatch& batch : batches) {
    for (std::size_t i = 0; i < kBatchInserts; ++i) {
      const Document& d = extra.doc(fresh[next_doc++ % fresh.size()]);
      UpdateDoc u;
      for (TermId t : d.tokens) u.tokens.push_back(extra.vocab().TermText(t));
      for (TermId t : d.facets) u.facets.push_back(extra.vocab().TermText(t));
      batch.inserts.push_back(std::move(u));
    }
    for (std::size_t i = 0; i < kBatchDeletes; ++i) {
      batch.deletes.push_back(victims[next_victim++ % victims.size()]);
    }
  }
  return batches;
}

/// A standing query over `q`'s terms, as text, under `op`.
SubscriptionRequest SubscriptionFor(const MiningEngine& engine, const Query& q,
                                    QueryOperator op) {
  SubscriptionRequest r;
  r.op = op;
  for (TermId t : q.terms) r.terms.push_back(engine.corpus().vocab().TermText(t));
  return r;
}

/// A subscription's canonical query: its terms sorted as text (log-sum
/// scores depend on term order at the ulp level), not by TermId.
Result<Query> SubscriptionQuery(const MiningEngine& engine,
                                const SubscriptionRequest& r) {
  std::vector<std::string> terms = r.terms;
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  std::string text;
  for (const std::string& t : terms) text += (text.empty() ? "" : " ") + t;
  return engine.ParseQuery(text, r.op);
}

/// Registers `requests` and waits for their bootstrap publishes.
Result<std::vector<uint64_t>> SubscribeAll(
    PhraseService& service, const std::vector<SubscriptionRequest>& requests) {
  std::vector<uint64_t> ids;
  for (const SubscriptionRequest& r : requests) {
    Result<uint64_t> id = service.Subscribe(r);
    if (!id.ok()) return id.status();
    ids.push_back(id.value());
  }
  service.subscriptions()->Flush();
  return ids;
}

void AddSubscribeMetrics(const MetricsSnapshot& snapshot,
                         std::size_t subscriptions, MetricSet* m) {
  m->Add("subscribe.remine_frac",
         Ratio(snapshot.counter("subscribe_remine_total"),
               static_cast<double>(snapshot.counter("subscribe_batches_total")) *
                   subscriptions),
         "frac");
  m->Add("subscribe.dropped",
         static_cast<double>(snapshot.counter("subscribe_dropped_total")),
         "count");
  m->Add("subscribe.events_dropped",
         static_cast<double>(snapshot.counter("subscribe_events_dropped_total")),
         "count");
}

/// What the update probe drives: the serving engine and service, the
/// standing subscriptions with their canonical queries, and the read
/// stream.
struct UpdateTargets {
  MiningEngine* engine = nullptr;
  PhraseService* service = nullptr;
  const std::vector<uint64_t>* subs = nullptr;
  const std::vector<Query>* sub_queries = nullptr;
  const std::vector<Req>* reqs = nullptr;
};

/// Traced single-client update probe: rebuild to an empty overlay, grow it
/// batch by batch up to just below the rebuild threshold (at most
/// `batches.size()` batches), and after every batch read once traced and
/// once untraced, poll every subscription and wait until each reports the
/// batch's epoch; then rebuild again. Adds the delta, rebuild, ingest,
/// subscription-lag and SMJ metrics and trace.overhead.
void ProbeUpdates(const UpdateTargets& t, std::span<const UpdateBatch> batches,
                  SpanRecorder* rec, MetricSet* m) {
  std::vector<double> rebuild_ms, smj_empty, smj_full, untraced, traced,
      lag_ms;
  std::vector<std::pair<std::size_t, double>> apply;  // (pending, ms)
  uint64_t rid = 0;
  auto rebuild = [&] {
    const uint64_t r = rid++;
    ScopedSpan root(rec, "request", kClientLayer, r, -1);
    ScopedSpan span(rec, "MiningEngine::Rebuild", "delta", r, root.id());
    const Clock::time_point t0 = Clock::now();
    t.engine->Rebuild();
    rebuild_ms.push_back(MsSince(t0));
  };
  auto smj_sample = [&](std::vector<double>* out) {
    for (const Query& q : *t.sub_queries) {
      const uint64_t r = rid++;
      ScopedSpan root(rec, "request", kClientLayer, r, -1);
      ScopedSpan span(rec, "MiningEngine::Mine smj", "core", r, root.id());
      MineOptions options;
      options.k = kTopK;
      const Clock::time_point t0 = Clock::now();
      (void)t.engine->Mine(q, Algorithm::kSmj, options);
      out->push_back(MsSince(t0));
    }
  };
  auto submit = [&](const Req& req, bool trace) {
    ServiceRequest request;
    request.query = req.query;
    request.options.k = req.k;
    request.options.trace = trace;
    request.algorithm = req.alg;
    return t.service->Submit(std::move(request)).get();
  };
  rebuild();
  // The first sample after a rebuild builds the new generation's lists;
  // only the second times the empty-overlay read.
  std::vector<double> warm;
  smj_sample(&warm);
  smj_sample(&smj_empty);
  const double threshold_updates =
      t.engine->options().rebuild_threshold * t.engine->update_stats().live_docs;
  const std::size_t per_batch = kBatchInserts + kBatchDeletes;
  std::size_t pending = 0;
  for (std::size_t b = 0;
       b < batches.size() && pending + 2 * per_batch < threshold_updates; ++b) {
    ScopedSpan root(rec, "request", kClientLayer, rid, -1);
    uint64_t epoch = 0;
    {
      ScopedSpan span(rec, "PhraseService::IngestBatch", "delta", rid, root.id());
      const Clock::time_point t0 = Clock::now();
      const UpdateStats stats = t.service->IngestBatch(batches[b]);
      apply.emplace_back(stats.pending_updates, MsSince(t0));
      pending = stats.pending_updates;
      epoch = stats.epoch;
    }
    const Clock::time_point ingested = Clock::now();
    // The first read after an ingest misses an epoch-keyed result cache
    // and the second hits, so the untraced baseline read (the overhead
    // reference) alternates between going first and going second.
    const Req& req = (*t.reqs)[(b * 7919) % t.reqs->size()];
    auto untraced_read = [&] {
      ScopedSpan span(rec, "PhraseService::Submit->get (untraced)", "service",
                      rid, root.id());
      const Clock::time_point t0 = Clock::now();
      (void)submit(req, false);
      untraced.push_back(MsSince(t0));
    };
    if (b % 2 == 0) untraced_read();
    {
      ScopedSpan span(rec, "PhraseService::Submit->get", "service", rid, root.id());
      const Clock::time_point t0 = Clock::now();
      ServiceReply reply = submit(req, true);
      traced.push_back(MsSince(t0));
      span.End();
      if (reply.trace != nullptr) rec->AttachProgramTrace(*reply.trace, span.id());
    }
    if (b % 2 == 1) untraced_read();
    for (uint64_t id : *t.subs) {
      {
        ScopedSpan span(rec, "PhraseService::PollSubscription", "subscribe", rid,
                        root.id());
        (void)t.service->PollSubscription(id, 64, 0.0);
      }
      ScopedSpan span(rec, "PhraseService::SubscriptionSnapshot", "subscribe",
                      rid, root.id());
      for (int spin = 0; spin < 20000; ++spin) {
        Result<SubscriptionState> state = t.service->SubscriptionSnapshot(id);
        if (!state.ok() || state.value().epoch >= epoch) break;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      lag_ms.push_back(MsSince(ingested));
    }
    ++rid;
  }
  smj_sample(&smj_full);
  rebuild();

  std::vector<double> apply_ms;
  for (const auto& [p, ms] : apply) apply_ms.push_back(ms);
  m->Add("delta.apply_ms_p50", Percentile(apply_ms, 50), "ms", apply_ms.size());
  const std::size_t tenth = std::max<std::size_t>(1, apply.size() / 10);
  double low = 0.0, high = 0.0;
  if (apply.size() >= 2) {
    for (std::size_t i = 0; i < tenth; ++i) {
      low += apply[i].second;
      high += apply[apply.size() - 1 - i].second;
    }
  }
  m->Add("delta.apply_growth", Ratio(high, low), "ratio");
  m->Add("delta.read_overhead", Ratio(Mean(smj_full), Mean(smj_empty)), "ratio");
  m->Add("rebuild.ms_p50", Percentile(rebuild_ms, 50), "ms", rebuild_ms.size());
  std::vector<double> smj = smj_empty;
  smj.insert(smj.end(), smj_full.begin(), smj_full.end());
  m->Add("mine.smj.ms_p50", Percentile(smj, 50), "ms", smj.size());
  if (!m->Has("sub_lag_p50_ms")) {
    // Workloads without an ingest load report the probe's lag.
    m->Add("sub_lag_p50_ms", Percentile(lag_ms, 50), "ms", lag_ms.size());
    m->Add("sub_lag_p95_ms", Percentile(lag_ms, 95), "ms", lag_ms.size());
  }
  m->Add("trace.overhead", Ratio(Mean(traced), Mean(untraced)), "ratio");
}

// ---------------------------------------------------------------------------
// Query workloads: hot, cold, sharded

constexpr std::size_t kTraceSlice = 100;
constexpr std::size_t kAllAlgSlice = 24;

/// Pool sizes are set for the default corpus and shrink with it.
std::size_t Scaled(std::size_t n, double scale, std::size_t floor) {
  return std::max<std::size_t>(
      floor, static_cast<std::size_t>(
                 std::llround(n * std::min(1.0, scale / kDefaultScale))));
}

void AddEndToEnd(double setup_s, const LoadLog& timed, MetricSet* m) {
  m->Add("setup_s", setup_s, "s");
  AddQueryMetrics(timed, m);
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
}

/// Warm-up then timed load; the warm-up replies join the checked set.
/// The peak resident set is restarted first, so peak_rss_mb covers the
/// serving structures and what they grow under load, not set-up leftovers.
LoadLog WarmAndTime(PhraseService& service, Stream warm, Stream timed,
                    const RunOptions& opt, int clients, Checker* checker,
                    const std::atomic<uint64_t>* last_ingest_epoch = nullptr) {
  if (!ResetPeakRss()) {
    Progress("peak resident set cannot be reset here; peak_rss_mb covers "
             "the whole run");
  }
  LoadLog warm_log = RunClosedLoop(service, warm, clients,
                                   opt.warmup_seconds(),
                                   false, checker, last_ingest_epoch);
  if (timed.wrap) timed.offset = warm_log.attempted % (timed.end - timed.begin);
  LoadLog log = RunClosedLoop(service, timed, clients, opt.seconds, true, checker,
                              last_ingest_epoch);
  Progress("timed window: elapsed_s " + std::to_string(log.elapsed_s));
  if (warm_log.exhausted || log.exhausted) {
    checker->Fail(std::string("the request stream ran out before the ") +
                  (log.exhausted ? "timed window" : "warm-up") + " ended");
  }
  log.Merge(std::move(warm_log), checker);
  return log;
}

/// The storage path of the hot workload: persist `mono` to `path`, then
/// reopen it disk-backed with a resident budget of half its list bytes.
struct Reopened {
  std::unique_ptr<MiningEngine> engine;
  double persist_ms = 0.0;
  double open_ms = 0.0;
  double file_mb = 0.0;
};

Reopened PersistAndReopen(const MiningEngine& mono, const std::string& path,
                          Checker* checker) {
  Reopened out;
  const Clock::time_point t0 = Clock::now();
  if (Status s = mono.SaveToFile(path); !s.ok()) {
    checker->Fail("persist failed: " + s.message());
    return out;
  }
  out.persist_ms = MsSince(t0);
  MiningEngine::Options options;
  options.disk_backed = true;
  options.disk_resident_budget = mono.word_lists().InMemoryBytes() / 2;
  Result<MiningEngine> loaded = MiningEngine::LoadFromFile(path, options);
  if (!loaded.ok()) {
    checker->Fail("reopen failed: " + loaded.status().message());
    return out;
  }
  out.engine = std::make_unique<MiningEngine>(std::move(loaded.value()));
  out.open_ms = out.engine->index_file()->open_ms();
  out.file_mb = static_cast<double>(out.engine->index_file()->file_bytes()) /
                (1024.0 * 1024.0);
  return out;
}

void AddStorageMetrics(const Reopened& r, const DiskIoStats& io,
                       double mines, MetricSet* m) {
  m->Add("storage.persist_ms", r.persist_ms, "ms");
  m->Add("storage.open_ms", r.open_ms, "ms");
  m->Add("index_file_mb", r.file_mb, "MB");
  m->Add("disk.blocks_per_miss", Ratio(io.blocks_read, mines), "count");
  m->Add("disk.seeks_per_miss", Ratio(io.seeks, mines), "count");
  m->Add("disk.bytes_per_miss", Ratio(io.bytes, mines), "bytes");
}

void RunHot(const RunOptions& opt, RunResult* res, Checker* checker) {
  const std::string dir = opt.out_dir;
  std::filesystem::create_directories(dir);
  SetupClock setup;
  std::unique_ptr<MiningEngine> serving;
  std::unique_ptr<PhraseService> service;
  std::vector<Query> pool;
  std::vector<Req> reqs;
  std::string path;
  Reopened reopened;
  auto drop_serving = [&] {
    service.reset();
    serving.reset();
    if (!path.empty()) std::filesystem::remove(path);
  };
  for (int rep = 0; rep < opt.setup_reps(); ++rep) {
    drop_serving();
    Corpus corpus = MakeCorpus(CorpusDocs(opt.scale()));
    Clock::time_point t0 = Clock::now();
    auto mono = std::make_unique<MiningEngine>(
        MiningEngine::Build(std::move(corpus)));
    double ms = MsSince(t0);
    if (rep == 0) {
      pool = Harvest(*mono, SubSeed(opt.seed, 2), Scaled(300, opt.scale(), 40),
                     opt.tiny);
      reqs = ZipfStream(*mono, pool, SubSeed(opt.seed, 3), 60000, std::nullopt);
    }
    t0 = Clock::now();
    mono->EnsureWordListsFor(WithOps(pool));
    path = dir + "/hot-" + std::to_string(opt.seed) + "-" +
           std::to_string(rep) + ".pmidx";
    reopened = PersistAndReopen(*mono, path, checker);
    if (reopened.engine == nullptr) return;
    serving = std::move(reopened.engine);
    PhraseServiceOptions service_options;
    service_options.placement_refresh_interval = 8192;
    service = std::make_unique<PhraseService>(serving.get(), service_options);
    setup.Add(ms + MsSince(t0));
    Progress("hot set-up " + std::to_string(rep) + " done");
  }
  const Stream stream{&reqs, 0, reqs.size(), true};
  LoadLog log =
      WarmAndTime(*service, stream, stream, opt, kLoadClients, checker);
  Progress("hot load done");
  const ServiceStats stats = service->stats();
  AddEndToEnd(setup.Median(), log, &res->end_to_end);
  MetricSet& m = res->per_layer;
  if (opt.trace) {
    AddServiceLayerMetrics(log, stats, &m);
    AddStorageMetrics(reopened, stats.disk_io,
                      static_cast<double>(stats.result_cache.misses), &m);
    SpanRecorder rec;
    TraceQueryPass({service.get(), serving.get(), nullptr, serving.get()},
                   {&reqs, 0, 2 * kTraceSlice, kTraceSlice, kAllAlgSlice}, m,
                   &rec, &m);
    rec.WriteJsonl(dir + "/hot.spans.jsonl");
    Progress("hot traced pass done");
  }
  // The separately built in-memory reference of the check.
  MiningEngine reference =
      MiningEngine::Build(MakeCorpus(CorpusDocs(opt.scale())));
  if (opt.corrupt) CorruptOneReply(&log.firsts);
  CheckMonolith(log, reqs, reference, checker);
  Progress("hot check done");
  res->attempted = log.attempted;
  res->failed = log.failed;
  drop_serving();
}

/// Requests per second the distinct stream is sized for: several times
/// what either distinct workload serves with its two clients (about 350
/// and 600 q/s on 4 vCPUs), so that a faster program still meets only
/// fresh requests to the end of the window. A stream that runs dry fails
/// the run. The stream is sized for a window of at least kStreamSeconds,
/// so that runs up to that long draw on the same harvest.
constexpr double kStreamQps = 2000;
constexpr double kStreamSeconds = 15;

/// cold and sharded: the same distinct stream, served by the monolith or
/// by a 4-shard fleet.
void RunDistinct(const RunOptions& opt, bool sharded, RunResult* res,
                 Checker* checker) {
  constexpr std::size_t kShards = 4;
  SetupClock setup;
  std::unique_ptr<MiningEngine> serving;
  std::unique_ptr<ShardedEngine> fleet;
  std::unique_ptr<PhraseService> service;
  auto corpus = [&] { return MakeCorpus(CorpusDocs(opt.scale())); };
  ShardedEngineOptions fleet_options;
  fleet_options.num_shards = kShards;
  // The stream holds the warm-up, the timed window and the two traced
  // slices. The tiny self-test corpus serves about thirty times faster,
  // and yields only a few thousand distinct term sets.
  const double stream_qps = opt.tiny ? 15 * kStreamQps : kStreamQps;
  const double window =
      opt.tiny ? opt.seconds : std::max(opt.seconds, kStreamSeconds);
  const std::size_t want_sets = static_cast<std::size_t>(std::ceil(
      (stream_qps * (opt.warmup_seconds() + window) + 2 * kTraceSlice) / 2));
  std::vector<Query> sets;
  if (sharded) {
    // The fleet has no corpus-wide index to harvest from.
    sets = Harvest(MiningEngine::Build(corpus()), SubSeed(opt.seed, 2),
                   want_sets, opt.tiny);
  }
  for (int rep = 0; rep < opt.setup_reps(); ++rep) {
    // Only the serving structures of the last repetition stay alive.
    service.reset();
    serving.reset();
    fleet.reset();
    Corpus c = corpus();
    const Clock::time_point t0 = Clock::now();
    if (sharded) {
      fleet = std::make_unique<ShardedEngine>(
          ShardedEngine::Build(std::move(c), fleet_options));
      service = std::make_unique<PhraseService>(fleet.get());
    } else {
      serving = std::make_unique<MiningEngine>(MiningEngine::Build(std::move(c)));
      service = std::make_unique<PhraseService>(serving.get());
    }
    setup.Add(MsSince(t0));
    Progress((sharded ? "fleet set-up " : "monolith set-up ") +
             std::to_string(rep) + " done");
  }
  if (!sharded) {
    sets = Harvest(*serving, SubSeed(opt.seed, 2), want_sets, opt.tiny);
  }
  const std::vector<Req> reqs = DistinctStream(sets, SubSeed(opt.seed, 3));
  Progress("harvested " + std::to_string(reqs.size()) + " requests");
  const std::size_t n = reqs.size();
  const std::size_t slice = std::min(kTraceSlice, n / 10);
  const std::size_t timed_end = n - 2 * slice;
  const std::size_t warm_end = static_cast<std::size_t>(
      timed_end * opt.warmup_seconds() / (opt.warmup_seconds() + opt.seconds));
  LoadLog log = WarmAndTime(*service, {&reqs, 0, warm_end, false},
                            {&reqs, warm_end, timed_end, false}, opt,
                            kLoadClients, checker);
  Progress("load done");
  const ServiceStats stats = service->stats();
  AddEndToEnd(setup.Median(), log, &res->end_to_end);
  // The check's separately built references, made after peak_rss_mb is
  // read: a monolith (cold; sharded Exact/SMJ) and a fleet (sharded).
  auto monolith = std::make_unique<MiningEngine>(MiningEngine::Build(corpus()));
  std::unique_ptr<ShardedEngine> reference_fleet;
  if (sharded) {
    reference_fleet = std::make_unique<ShardedEngine>(
        ShardedEngine::Build(corpus(), fleet_options));
  }
  Progress("references built");
  MetricSet& m = res->per_layer;
  if (opt.trace) {
    AddServiceLayerMetrics(log, stats, &m);
    SpanRecorder rec;
    TraceQueryPass({service.get(), sharded ? nullptr : serving.get(),
                    fleet.get(), sharded ? monolith.get() : serving.get()},
                   {&reqs, timed_end, timed_end + slice, slice,
                    std::min(kAllAlgSlice, slice)},
                   m, &rec, &m);
    if (sharded) {
      // A 1-shard fleet against the monolith on the same queries: the
      // fixed cost of the scatter-gather path.
      ShardedEngineOptions one = fleet_options;
      one.num_shards = 1;
      ShardedEngine single = ShardedEngine::Build(corpus(), one);
      CostPlanner planner(monolith.get());
      double fleet_ms = 0.0, mono_ms = 0.0;
      for (std::size_t i = 0; i < std::min(kAllAlgSlice, slice); ++i) {
        const Req& req = reqs[timed_end + slice + i];
        MineOptions options;
        options.k = req.k;
        const Algorithm alg = planner.Plan(req.query, options).algorithm;
        Clock::time_point t0 = Clock::now();
        (void)single.Mine(req.query, alg, options);
        fleet_ms += MsSince(t0);
        t0 = Clock::now();
        (void)monolith->Mine(req.query, alg, options);
        mono_ms += MsSince(t0);
      }
      m.Add("shard.one_shard_ratio", Ratio(fleet_ms, mono_ms), "ratio");
    } else {
      // The storage path and the disk tier (what hot prices under load),
      // probed once: persist the reference monolith with the traced
      // slice's lists built, reopen it disk-backed, and mine the slice
      // with kNraDisk.
      std::vector<Query> slice_queries;
      for (std::size_t i = 0; i < slice; ++i) {
        slice_queries.push_back(reqs[timed_end + slice + i].query);
      }
      monolith->EnsureWordListsFor(slice_queries);
      const std::string path =
          opt.out_dir + "/cold-" + std::to_string(opt.seed) + ".pmidx";
      Reopened reopened = PersistAndReopen(*monolith, path, checker);
      if (reopened.engine != nullptr) {
        DiskIoStats io;
        for (const Query& q : slice_queries) {
          MineOptions options;
          options.k = kTopK;
          io += reopened.engine->Mine(q, Algorithm::kNraDisk, options).disk_io;
        }
        AddStorageMetrics(reopened, io, static_cast<double>(slice), &m);
        reopened.engine.reset();
      }
      std::filesystem::remove(path);
      // The update path (what churn prices under load), probed on the
      // serving engine after the load: 8 subscriptions and kProbeBatches
      // batches of churn's shape. It keeps its own trace.overhead.
      const double query_overhead = m.Get("trace.overhead");
      std::vector<SubscriptionRequest> sub_requests;
      for (std::size_t i = 0; i < std::min(kSubscriptions, slice); ++i) {
        sub_requests.push_back(SubscriptionFor(
            *serving, reqs[i].query, reqs[i].query.op));
      }
      Result<std::vector<uint64_t>> subs = SubscribeAll(*service, sub_requests);
      std::vector<Query> sub_queries;
      for (const SubscriptionRequest& r : sub_requests) {
        if (Result<Query> q = SubscriptionQuery(*serving, r); q.ok()) {
          sub_queries.push_back(q.value());
        }
      }
      if (subs.ok()) {
        const std::vector<UpdateBatch> batches =
            MakeBatches(opt, kProbeBatches, serving->corpus().size());
        ProbeUpdates({serving.get(), service.get(), &subs.value(), &sub_queries,
                      &reqs},
                     batches, &rec, &m);
        AddSubscribeMetrics(service->metrics_snapshot(), subs.value().size(),
                            &m);
        AddTraceHealth(rec, &m);
      }
      m.Add("trace.overhead", query_overhead, "ratio");
    }
    rec.WriteJsonl(opt.out_dir + (sharded ? "/sharded" : "/cold") +
                   ".spans.jsonl");
    Progress("traced pass done");
  }
  if (opt.corrupt) CorruptOneReply(&log.firsts);
  if (sharded) {
    CheckSharded(log, reqs, *monolith, *reference_fleet, checker);
  } else {
    CheckMonolith(log, reqs, *monolith, checker);
  }
  Progress("check done");
  res->attempted = log.attempted;
  res->failed = log.failed;
}

// ---------------------------------------------------------------------------
// churn: open-loop ingest, SMJ readers, standing subscriptions

void RunChurn(const RunOptions& opt, RunResult* res, Checker* checker) {
  SetupClock setup;
  std::unique_ptr<MiningEngine> engine;
  std::unique_ptr<PhraseService> service;
  std::vector<Query> pool;
  std::vector<Req> reqs;
  std::vector<uint64_t> subs;
  std::vector<SubscriptionRequest> sub_requests;
  const std::size_t per_batch = kBatchInserts + kBatchDeletes;
  for (int rep = 0; rep < opt.setup_reps(); ++rep) {
    service.reset();
    engine.reset();
    Corpus corpus = MakeCorpus(CorpusDocs(opt.scale()));
    MiningEngine::Options options;
    options.rebuild_threshold =
        kIngestRate * per_batch *
        (opt.warmup_seconds() + opt.seconds + kRebuildMarginSeconds) /
        corpus.size();
    Clock::time_point t0 = Clock::now();
    engine = std::make_unique<MiningEngine>(
        MiningEngine::Build(std::move(corpus), options));
    double ms = MsSince(t0);
    if (rep == 0) {
      pool = Harvest(*engine, SubSeed(opt.seed, 2), Scaled(300, opt.scale(), 40),
                     opt.tiny);
      reqs = ZipfStream(*engine, pool, SubSeed(opt.seed, 3), 60000,
                        Algorithm::kSmj);
      for (std::size_t i = 0; i < std::min(kSubscriptions, pool.size()); ++i) {
        sub_requests.push_back(SubscriptionFor(
            *engine, pool[i],
            i % 2 == 0 ? QueryOperator::kAnd : QueryOperator::kOr));
      }
    }
    t0 = Clock::now();
    // Readers bypass the result cache: with it on, each read is either a
    // ~20 us hit or a multi-ms delta-corrected mine, and the mix depends
    // on where the ingest epochs land, too unsteady to time.
    PhraseServiceOptions service_options;
    service_options.enable_result_cache = false;
    service = std::make_unique<PhraseService>(engine.get(), service_options);
    Result<std::vector<uint64_t>> ids = SubscribeAll(*service, sub_requests);
    if (!ids.ok()) {
      checker->Fail("subscribe failed: " + ids.status().message());
      return;
    }
    subs = std::move(ids).value();
    setup.Add(ms + MsSince(t0));
    Progress("churn set-up " + std::to_string(rep) + " done");
  }

  // Enough batches for warm-up, the timed window and the traced pass.
  const std::size_t load_batches =
      static_cast<std::size_t>(kIngestRate *
                               (opt.warmup_seconds() + opt.seconds)) +
      8;
  std::vector<UpdateBatch> batches =
      MakeBatches(opt, load_batches + 200, engine->corpus().size());

  std::atomic<uint64_t> last_ingest_epoch{engine->epoch()};
  std::atomic<bool> stop{false};
  std::mutex ingest_mu;
  std::vector<IngestRecord> ingested;  // guarded by ingest_mu
  std::vector<std::pair<Clock::time_point, double>> ingest_ms, lag_ms;
  double gen_late_max = 0.0;
  std::size_t pending_max = 0;
  uint64_t ingest_failed = 0;
  const Clock::time_point load_start = Clock::now();
  std::thread ingester([&] {
    for (std::size_t b = 0; b < load_batches && !stop.load(); ++b) {
      const Clock::time_point due =
          load_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(b / kIngestRate));
      std::this_thread::sleep_until(due);
      gen_late_max = std::max(gen_late_max, MsSince(due));
      const UpdateStats stats = service->IngestBatch(batches[b]);
      const Clock::time_point returned = Clock::now();
      if (stats.batch_inserts != kBatchInserts) ++ingest_failed;
      ingest_ms.emplace_back(due, MsBetween(due, returned));
      pending_max = std::max(pending_max, stats.pending_updates);
      {
        std::scoped_lock lock(ingest_mu);
        ingested.push_back({stats.epoch, returned});
      }
      last_ingest_epoch.store(stats.epoch, std::memory_order_release);
    }
  });
  std::thread poller([&] {
    std::vector<std::size_t> cursor(subs.size(), 0);
    while (!stop.load()) {
      for (std::size_t s = 0; s < subs.size(); ++s) {
        (void)service->PollSubscription(subs[s], 64, 0.0);
        Result<SubscriptionState> state = service->SubscriptionSnapshot(subs[s]);
        if (!state.ok()) continue;
        const Clock::time_point now = Clock::now();
        std::scoped_lock lock(ingest_mu);
        while (cursor[s] < ingested.size() &&
               ingested[cursor[s]].epoch <= state.value().epoch) {
          lag_ms.emplace_back(ingested[cursor[s]].returned,
                              MsBetween(ingested[cursor[s]].returned, now));
          ++cursor[s];
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const Stream stream{&reqs, 0, reqs.size(), true};
  const Clock::time_point timed_start =
      load_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(opt.warmup_seconds()));
  LoadLog log = WarmAndTime(*service, stream, stream, opt, kReaders,
                            checker, &last_ingest_epoch);
  const Clock::time_point timed_end = Clock::now();
  stop.store(true);
  ingester.join();
  poller.join();
  Progress("churn load done");
  const ServiceStats stats = service->stats();
  const MetricsSnapshot snapshot = service->metrics_snapshot();

  // Quiesce: let a scheduled rebuild finish so ids are stable, then every
  // subscription must equal a fresh SMJ mine at the final epoch.
  for (int i = 0; i < 1200 && engine->update_stats().rebuild_recommended; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  service->subscriptions()->Flush();
  std::vector<Query> sub_queries;
  for (std::size_t s = 0; s < subs.size(); ++s) {
    Result<Query> q = SubscriptionQuery(*engine, sub_requests[s]);
    Result<SubscriptionState> state = service->SubscriptionSnapshot(subs[s]);
    if (!q.ok() || !state.ok()) {
      checker->Fail("subscription " + std::to_string(s) + " unreadable");
      continue;
    }
    sub_queries.push_back(q.value());
    MineOptions options;
    options.k = sub_requests[s].k;
    MineResult want = engine->Mine(sub_queries.back(), Algorithm::kSmj, options);
    std::vector<MinedPhrase> got = state.value().topk;
    if (opt.corrupt && s == 0 && !got.empty()) {
      got[0].score = std::nextafter(got[0].score, 1e300);
    }
    if (state.value().epoch == engine->epoch() && want.status.ok() &&
        SameRanking(want.phrases, got)) {
      checker->Pass();
    } else {
      std::string detail = "subscription " + std::to_string(s) + " at epoch " +
                           std::to_string(state.value().epoch) +
                           " differs from a fresh SMJ mine at epoch " +
                           std::to_string(engine->epoch()) + ":";
      for (std::size_t i = 0; i < std::max(got.size(), want.phrases.size()); ++i) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), " [%zu] got %d %.17g want %d %.17g", i,
                      i < got.size() ? static_cast<int>(got[i].phrase) : -1,
                      i < got.size() ? got[i].score : 0.0,
                      i < want.phrases.size() ? static_cast<int>(want.phrases[i].phrase) : -1,
                      i < want.phrases.size() ? want.phrases[i].score : 0.0);
        detail += buf;
      }
      checker->Fail(detail);
    }
  }

  Progress("churn check done");
  AddEndToEnd(setup.Median(), log, &res->end_to_end);
  res->attempted = log.attempted + ingest_ms.size();
  res->failed = log.failed + ingest_failed;
  if (!opt.trace) return;

  MetricSet& m = res->per_layer;
  AddServiceLayerMetrics(log, stats, &m);
  auto window = [&](const std::vector<std::pair<Clock::time_point, double>>& v) {
    std::vector<double> out;
    for (const auto& [t, ms] : v) {
      if (t >= timed_start && t < timed_end) out.push_back(ms);
    }
    return out;
  };
  const std::vector<double> ingest = window(ingest_ms);
  const std::vector<double> lag = window(lag_ms);
  m.Add("ingest_p50_ms", Percentile(ingest, 50), "ms", ingest.size());
  m.Add("ingest_max_ms", Percentile(ingest, 100), "ms", ingest.size());
  m.Add("ingest.gen_late_ms_max", gen_late_max, "ms");
  m.Add("sub_lag_p50_ms", Percentile(lag, 50), "ms", lag.size());
  m.Add("sub_lag_p95_ms", Percentile(lag, 95), "ms", lag.size());
  m.Add("delta.pending_docs_max", static_cast<double>(pending_max), "count");
  m.Add("rebuild.count", static_cast<double>(stats.rebuilds), "count");
  AddSubscribeMetrics(snapshot, subs.size(), &m);

  SpanRecorder rec;
  ProbeUpdates({engine.get(), service.get(), &subs, &sub_queries, &reqs},
               std::span<const UpdateBatch>(batches).subspan(load_batches),
               &rec, &m);
  const double smj_p50 = m.Get("mine.smj.ms_p50");
  m.Add("core.smj.contention", Ratio(m.Get("service.exec_ms_p50.smj"), smj_p50),
        "ratio");
  AddTraceHealth(rec, &m);
  rec.WriteJsonl(opt.out_dir + "/churn.spans.jsonl");
  Progress("churn traced pass done");
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},           {"query_qps", "1/s"},
      {"query_p50_ms", "ms"},     {"query_p99_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> v = {
        {"service.queue_wait_ms_p50", "ms"},
        {"service.queue_wait_ms_p99", "ms"}};
    for (Algorithm a : kServedAlgorithms) {
      v.push_back({std::string("service.exec_ms_p50.") + AlgKey(a), "ms"});
    }
    for (const MetricSpec& spec : std::vector<MetricSpec>{
             {"service.result_cache.hit_rate", "frac"},
             {"service.result_cache.evictions", "count"},
             {"service.word_list_cache.hit_rate", "frac"},
             {"service.word_list_cache.evictions", "count"},
             {"service.word_list_cache.bytes", "bytes"},
             {"service.pool.peak_queue_depth", "count"},
             {"service.placement_refreshes", "count"},
             {"planner.plan_us_p50", "us"}}) {
      v.push_back(spec);
    }
    for (Algorithm a : kServedAlgorithms) {
      v.push_back({std::string("planner.share.") + AlgKey(a), "frac"});
    }
    v.push_back({"word_lists.build_ms_p50", "ms"});
    v.push_back({"word_lists.build_ms_sum", "ms"});
    v.push_back({"word_lists.built", "count"});
    for (Algorithm a : kServedAlgorithms) {
      v.push_back({std::string("mine.") + AlgKey(a) + ".ms_p50", "ms"});
    }
    v.push_back({"mine.entries_read_per_query", "count"});
    v.push_back({"mine.peak_candidates_p50", "count"});
    v.push_back({"mine.lists_traversed_fraction", "frac"});
    for (Algorithm a : kServedAlgorithms) {
      v.push_back({std::string("core.") + AlgKey(a) + ".contention", "ratio"});
    }
    for (const MetricSpec& spec : std::vector<MetricSpec>{
             {"delta.apply_ms_p50", "ms"},
             {"delta.apply_growth", "ratio"},
             {"delta.pending_docs_max", "count"},
             {"delta.read_overhead", "ratio"},
             {"rebuild.count", "count"},
             {"rebuild.ms_p50", "ms"},
             {"ingest_p50_ms", "ms"},
             {"ingest_max_ms", "ms"},
             {"ingest.gen_late_ms_max", "ms"},
             {"sub_lag_p50_ms", "ms"},
             {"sub_lag_p95_ms", "ms"},
             {"shard.mine_ms_p50", "ms"},
             {"shard.mine_ms_p90", "ms"},
             {"shard.candidates_per_query", "count"},
             {"shard.fill_slots_per_query", "count"},
             {"shard.pruned_frac", "frac"},
             {"shard.one_shard_ratio", "ratio"},
             {"storage.persist_ms", "ms"},
             {"storage.open_ms", "ms"},
             {"index_file_mb", "MB"},
             {"disk.blocks_per_miss", "count"},
             {"disk.seeks_per_miss", "count"},
             {"disk.bytes_per_miss", "bytes"},
             {"subscribe.remine_frac", "frac"},
             {"subscribe.dropped", "count"},
             {"subscribe.events_dropped", "count"}}) {
      v.push_back(spec);
    }
    for (const char* layer : {"client", "service", "planner", "core", "shard",
                              "delta", "subscribe"}) {
      v.push_back({std::string("layer.") + layer + ".self_ms_per_req", "ms"});
    }
    v.push_back({"trace.coverage", "frac"});
    v.push_back({"trace.overhead", "ratio"});
    return v;
  }();
  return specs;
}

bool RunWorkload(const RunOptions& options, RunResult* result) {
  Checker checker;
  if (options.workload == "hot") {
    RunHot(options, result, &checker);
  } else if (options.workload == "cold") {
    RunDistinct(options, /*sharded=*/false, result, &checker);
  } else if (options.workload == "sharded") {
    RunDistinct(options, /*sharded=*/true, result, &checker);
  } else if (options.workload == "churn") {
    RunChurn(options, result, &checker);
  } else {
    return false;
  }
  result->checked = checker.checked();
  result->first_failure = checker.first_failure();
  result->correct = checker.failures() == 0 && checker.checked() > 0;
  if (checker.checked() == 0 && result->first_failure.empty()) {
    result->first_failure = "no output was checked";
  }
  return true;
}

}  // namespace perfbench
