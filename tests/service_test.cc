// PhraseService end-to-end behaviour: concurrent submissions return results
// byte-identical to serial MiningEngine::Mine, the result cache serves
// repeats, counters add up, and shutdown degrades gracefully.

#include <algorithm>
#include <functional>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "eval/query_gen.h"
#include "gtest/gtest.h"
#include "index/word_lists.h"
#include "service/cache.h"
#include "service/service.h"
#include "shard/sharded_engine.h"
#include "test_util.h"
#include "testing/failpoint.h"

namespace phrasemine {
namespace {

/// Exact (bitwise) equality of ranked results; the service must not change
/// a single byte relative to the serial engine.
void ExpectSameResults(const MineResult& serial, const MineResult& served,
                       const std::string& label) {
  ASSERT_EQ(serial.phrases.size(), served.phrases.size()) << label;
  for (std::size_t i = 0; i < serial.phrases.size(); ++i) {
    EXPECT_EQ(serial.phrases[i].phrase, served.phrases[i].phrase)
        << label << " rank " << i;
    EXPECT_EQ(serial.phrases[i].score, served.phrases[i].score)
        << label << " rank " << i;
    EXPECT_EQ(serial.phrases[i].interestingness,
              served.phrases[i].interestingness)
        << label << " rank " << i;
  }
}

/// Harvests a mixed AND/OR workload from the engine's own dictionary.
std::vector<Query> MakeWorkload(const MiningEngine& engine) {
  QueryGenOptions gen_options;
  gen_options.num_queries = 12;
  gen_options.min_term_df = 4;
  gen_options.min_pairwise_codf = 2;
  gen_options.min_and_matches = 2;
  QuerySetGenerator generator(gen_options);
  std::vector<Query> queries = generator.Generate(
      engine.dict(), engine.inverted(), engine.corpus().size());
  std::vector<Query> workload;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Query q = queries[i];
    q.op = (i % 2 == 0) ? QueryOperator::kAnd : QueryOperator::kOr;
    workload.push_back(std::move(q));
  }
  return workload;
}

/// Runs `body` against a service over the tiny monolith, then against a
/// service over a 2-shard fleet of the same corpus and engine options, so
/// one lifecycle check covers both engine kinds.
void ForEachEngineKind(const PhraseServiceOptions& options,
                       const std::function<void(PhraseService&)>& body) {
  {
    SCOPED_TRACE("monolith");
    MiningEngine engine = testing::MakeTinyEngine();
    PhraseService service(&engine, options);
    body(service);
  }
  {
    SCOPED_TRACE("fleet");
    ShardedEngineOptions fleet_options;
    fleet_options.num_shards = 2;
    fleet_options.engine.extractor.min_df = 2;  // as in MakeTinyEngine
    fleet_options.engine.extractor.max_phrase_len = 4;
    ShardedEngine fleet = ShardedEngine::Build(testing::MakeTinyCorpus(),
                                               std::move(fleet_options));
    PhraseService service(&fleet, options);
    body(service);
  }
}

/// Parses `text` against whichever engine kind backs `service`.
Query Parse(const PhraseService& service, std::string_view text,
            QueryOperator op) {
  Result<Query> query = service.sharded() != nullptr
                            ? service.sharded()->ParseQuery(text, op)
                            : service.engine().ParseQuery(text, op);
  EXPECT_TRUE(query.ok()) << text;
  return query.ok() ? std::move(query).value() : Query{};
}

TEST(ServiceTest, ConcurrentResultsMatchSerialEngine) {
  // Two independently built engines over the same deterministic corpus:
  // one serves, one is the serial reference.
  MiningEngine serving = testing::MakeSmallEngine(400);
  MiningEngine reference = testing::MakeSmallEngine(400);
  std::vector<Query> workload = MakeWorkload(reference);
  ASSERT_GE(workload.size(), 4u) << "workload generator found too few queries";

  const std::vector<Algorithm> algorithms = {
      Algorithm::kExact, Algorithm::kGm, Algorithm::kNra, Algorithm::kSmj};

  // Serial ground truth on canonicalized queries (the service canonicalizes
  // internally; mining is defined over term sets, so this is behaviour-
  // preserving).
  std::vector<MineResult> expected;
  std::vector<std::string> labels;
  for (const Query& q : workload) {
    const Query canonical = CanonicalizeQuery(q);
    for (Algorithm a : algorithms) {
      expected.push_back(reference.Mine(canonical, a));
      labels.push_back(std::string(AlgorithmName(a)) + "/" +
                       QueryOperatorName(q.op));
    }
  }

  PhraseServiceOptions options;
  options.pool.num_threads = 4;
  options.pool.queue_capacity = 16;  // Force backpressure on submit.
  PhraseService service(&serving, options);

  std::vector<std::future<ServiceReply>> futures;
  for (const Query& q : workload) {
    for (Algorithm a : algorithms) {
      futures.push_back(service.Submit(ServiceRequest{q, MineOptions{}, a}));
    }
  }
  ASSERT_EQ(futures.size(), expected.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServiceReply reply = futures[i].get();
    ExpectSameResults(expected[i], reply.result, labels[i]);
    EXPECT_EQ(reply.plan.reason, "forced by caller");
  }

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, futures.size());
  EXPECT_EQ(stats.forced, futures.size());
  EXPECT_EQ(stats.planned, 0u);
}

TEST(ServiceTest, PlannedQueriesMatchSerialEngineOnPlannedAlgorithm) {
  MiningEngine serving = testing::MakeSmallEngine(400);
  MiningEngine reference = testing::MakeSmallEngine(400);
  std::vector<Query> workload = MakeWorkload(reference);
  ASSERT_GE(workload.size(), 4u);

  PhraseServiceOptions options;
  options.pool.num_threads = 4;
  PhraseService service(&serving, options);

  std::vector<std::future<ServiceReply>> futures;
  for (const Query& q : workload) {
    futures.push_back(service.Submit(ServiceRequest{q, MineOptions{}, {}}));
  }
  uint64_t algorithm_count = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServiceReply reply = futures[i].get();
    EXPECT_FALSE(reply.plan.reason.empty());
    MineResult serial =
        reference.Mine(CanonicalizeQuery(workload[i]), reply.plan.algorithm);
    ExpectSameResults(serial, reply.result, reply.plan.ToString());
    ++algorithm_count;
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.planned, algorithm_count);
  uint64_t per_algorithm_total = 0;
  for (uint64_t c : stats.per_algorithm) per_algorithm_total += c;
  EXPECT_EQ(per_algorithm_total, algorithm_count);
}

TEST(ServiceTest, ResultCacheServesRepeats) {
  PhraseServiceOptions options;
  options.pool.num_threads = 2;
  ForEachEngineKind(options, [](PhraseService& service) {
    const Query q =
        Parse(service, "query optimization", QueryOperator::kAnd);
    ServiceRequest request{q, MineOptions{}, Algorithm::kNra};

    ServiceReply first = service.MineSync(request);
    EXPECT_FALSE(first.result_cache_hit);
    ServiceReply second = service.MineSync(request);
    EXPECT_TRUE(second.result_cache_hit);
    ExpectSameResults(first.result, second.result, "cached repeat");
    EXPECT_EQ(first.phrase_texts, second.phrase_texts);

    // A spelling with shuffled/duplicated terms hits the same entry.
    ServiceRequest shuffled = request;
    shuffled.query.terms = {request.query.terms[1], request.query.terms[0],
                            request.query.terms[0]};
    ServiceReply third = service.MineSync(shuffled);
    EXPECT_TRUE(third.result_cache_hit);
    ExpectSameResults(first.result, third.result, "canonicalized repeat");
    EXPECT_EQ(first.phrase_texts, third.phrase_texts);

    ServiceStats stats = service.stats();
    EXPECT_GE(stats.result_cache.hits, 2u);
    // The single engine mines NRA from the service's word-list cache; a
    // fleet's shard engines keep their own lists.
    if (service.sharded() == nullptr) {
      EXPECT_GE(stats.word_list_cache.hits + stats.word_list_cache.misses,
                1u);
    }
    EXPECT_GT(stats.p50_latency_ms, 0.0);
    EXPECT_GE(stats.p95_latency_ms, stats.p50_latency_ms);
    // per_algorithm attributes compute: the two cache hits don't count.
    EXPECT_EQ(stats.per_algorithm[static_cast<int>(Algorithm::kNra)], 1u);
    EXPECT_EQ(stats.queries, 3u);
  });
}

TEST(ServiceTest, SmjFractionInheritsFromEngine) {
  // An engine pinned at a partial SMJ fraction must be served identically
  // whether kSmj goes through the service's cached bundles or not.
  MiningEngine serving = testing::MakeSmallEngine(300);
  MiningEngine reference = testing::MakeSmallEngine(300);
  serving.SetSmjFraction(0.3);
  reference.SetSmjFraction(0.3);

  auto q = serving.ParseQuery("topic:0", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  MineResult serial = reference.Mine(q.value(), Algorithm::kSmj);

  PhraseService service(&serving, {});  // smj_fraction unset: inherit 0.3.
  ServiceReply reply =
      service.MineSync(ServiceRequest{q.value(), MineOptions{}, Algorithm::kSmj});
  ExpectSameResults(serial, reply.result, "inherited smj fraction");
}

TEST(ServiceTest, DifferentKDoesNotShareCacheEntries) {
  MiningEngine engine = testing::MakeTinyEngine();
  PhraseService service(&engine, {});
  auto q = engine.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());

  MineOptions k3;
  k3.k = 3;
  MineOptions k5;
  k5.k = 5;
  ServiceReply r3 =
      service.MineSync(ServiceRequest{q.value(), k3, Algorithm::kNra});
  ServiceReply r5 =
      service.MineSync(ServiceRequest{q.value(), k5, Algorithm::kNra});
  EXPECT_FALSE(r5.result_cache_hit);
  EXPECT_LE(r3.result.phrases.size(), 3u);
}

TEST(ServiceTest, SubmitBatchPreservesOrder) {
  MiningEngine engine = testing::MakeTinyEngine();
  PhraseService service(&engine, {});
  auto q1 = engine.ParseQuery("query optimization", QueryOperator::kAnd);
  auto q2 = engine.ParseQuery("db", QueryOperator::kAnd);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());

  std::vector<ServiceRequest> batch;
  batch.push_back(ServiceRequest{q1.value(), MineOptions{}, Algorithm::kGm});
  batch.push_back(ServiceRequest{q2.value(), MineOptions{}, Algorithm::kGm});
  auto futures = service.SubmitBatch(std::move(batch));
  ASSERT_EQ(futures.size(), 2u);

  MiningEngine reference = testing::MakeTinyEngine();
  ExpectSameResults(
      reference.Mine(CanonicalizeQuery(q1.value()), Algorithm::kGm),
      futures[0].get().result, "batch[0]");
  ExpectSameResults(
      reference.Mine(CanonicalizeQuery(q2.value()), Algorithm::kGm),
      futures[1].get().result, "batch[1]");
}

TEST(ServiceTest, SubmitAfterShutdownResolvesUnavailable) {
  MiningEngine engine = testing::MakeTinyEngine();
  PhraseService service(&engine, {});
  service.Shutdown();

  auto q = engine.ParseQuery("db", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  auto future =
      service.Submit(ServiceRequest{q.value(), MineOptions{}, Algorithm::kGm});
  // Fulfilled despite the dead pool -- with a typed refusal, never a hang
  // and never inline execution on a shut-down service.
  ServiceReply reply = future.get();
  EXPECT_EQ(reply.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(reply.result.phrases.empty());
}

TEST(ServiceTest, InvalidRequestsResolveWithTypedStatus) {
  ForEachEngineKind({}, [](PhraseService& service) {
    const Query q = Parse(service, "db", QueryOperator::kAnd);

    // k == 0 is a malformed request at the service boundary (the engine
    // itself tolerates it; the front door refuses it).
    ServiceReply r = service.MineSync(
        ServiceRequest{q, MineOptions{.k = 0}, Algorithm::kGm});
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(r.result.phrases.empty());

    // A term-less query.
    Query empty;
    empty.op = QueryOperator::kAnd;
    r = service.MineSync(ServiceRequest{empty, MineOptions{}, Algorithm::kGm});
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);

    // Unknown terms are NOT an error: empty lists mine an empty ranking
    // with status OK, matching the engine's semantics.
    Query unknown;
    unknown.op = QueryOperator::kAnd;
    unknown.terms = {static_cast<TermId>(1u << 20)};
    r = service.MineSync(
        ServiceRequest{unknown, MineOptions{}, Algorithm::kGm});
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.result.phrases.empty());

    // The typed error paths short-circuit before planning/execution, so
    // the executed-query counters stay clean.
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.deadline_exceeded, 0u);
  });
}

TEST(ServiceTest, SlowQueryLogThresholdSuffixEvictionAndExplain) {
  // Threshold: off by default, and a threshold above every latency logs
  // nothing.
  ForEachEngineKind({}, [](PhraseService& service) {
    (void)service.MineSync(ServiceRequest{
        Parse(service, "db", QueryOperator::kAnd), MineOptions{},
        Algorithm::kGm});
    EXPECT_TRUE(service.slow_queries().empty());
  });
  PhraseServiceOptions unreachable;
  unreachable.slow_query_ms = 1e9;
  ForEachEngineKind(unreachable, [](PhraseService& service) {
    (void)service.MineSync(ServiceRequest{
        Parse(service, "db", QueryOperator::kAnd), MineOptions{},
        Algorithm::kGm});
    EXPECT_TRUE(service.slow_queries().empty());
    EXPECT_EQ(
        service.metrics_snapshot().counter("service_slow_queries_total"), 0u);
  });

  // A threshold below every latency logs every query.
  PhraseServiceOptions everything;
  everything.slow_query_ms = 1e-9;
  ForEachEngineKind(everything, [](PhraseService& service) {
    const Query q =
        Parse(service, "query optimization", QueryOperator::kAnd);
    MineOptions untraced;
    untraced.k = 1;
    MineOptions traced = untraced;
    traced.trace = true;
    const ServiceReply miss =
        service.MineSync(ServiceRequest{q, untraced, Algorithm::kNra});
    const ServiceReply hit =
        service.MineSync(ServiceRequest{q, traced, Algorithm::kNra});
    ASSERT_FALSE(miss.result_cache_hit);
    ASSERT_TRUE(hit.result_cache_hit);
    ASSERT_NE(hit.trace, nullptr);

    std::vector<PhraseService::SlowQueryEntry> log = service.slow_queries();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].description.rfind("NRA AND k=1 terms=[", 0), 0u)
        << log[0].description;
    EXPECT_EQ(log[0].description.find("(cache hit)"), std::string::npos);
    EXPECT_TRUE(log[1].description.ends_with("] (cache hit)"))
        << log[1].description;
    for (const PhraseService::SlowQueryEntry& entry : log) {
      EXPECT_GE(entry.latency_ms, 1e-9);
    }
    // The explain tree rides along only when the request was traced.
    EXPECT_TRUE(log[0].explain.empty());
    EXPECT_EQ(log[1].explain, hit.trace->Explain());
    EXPECT_NE(log[1].explain.find("cache_lookup"), std::string::npos);

    // The log keeps the 64 most recent entries, oldest first: after 70
    // more queries (k = 2..71) the first 8 of the 72 logged are gone.
    for (std::size_t k = 2; k <= 71; ++k) {
      MineOptions options;
      options.k = k;
      (void)service.MineSync(ServiceRequest{q, options, Algorithm::kGm});
    }
    log = service.slow_queries();
    ASSERT_EQ(log.size(), 64u);
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].description.rfind(
                    "GM AND k=" + std::to_string(i + 8) + " terms=[", 0),
                0u)
          << log[i].description;
    }
    EXPECT_EQ(
        service.metrics_snapshot().counter("service_slow_queries_total"),
        72u);
  });
}

TEST(ServiceTest, AdmissionShedsHopelessDeadline) {
  MiningEngine engine = testing::MakeTinyEngine();
  PhraseServiceOptions options;
  options.admission.max_queue_depth = 8;  // enables the gate
  PhraseService service(&engine, options);
  auto q = engine.ParseQuery("db", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());

  // A deadline already in the past is the degenerate "hopeless" query:
  // the deadline gate sheds it at admission without ever queueing work.
  ServiceRequest request{q.value(), MineOptions{}, Algorithm::kGm};
  request.cancel =
      std::make_shared<CancelToken>(CancelToken::AfterMillis(-1.0));
  ServiceReply reply = service.Submit(std::move(request)).get();
  EXPECT_EQ(reply.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(reply.result.phrases.empty());
  EXPECT_EQ(service.stats().shed, 1u);
  // The same request without admission control enabled instead runs to
  // the pre-execution deadline check and reports DeadlineExceeded.
  PhraseService unguarded(&engine, {});
  ServiceRequest late{q.value(), MineOptions{}, Algorithm::kGm};
  late.cancel = std::make_shared<CancelToken>(CancelToken::AfterMillis(-1.0));
  reply = unguarded.Submit(std::move(late)).get();
  EXPECT_EQ(reply.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(unguarded.stats().deadline_exceeded, 1u);
}

TEST(ServiceTest, RejectionStormResolvesTyped) {
  MiningEngine engine = testing::MakeTinyEngine();
  PhraseService service(&engine, {});
  auto q = engine.ParseQuery("db", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());

  // A pool-level rejection storm (failpoint in Enqueue): the future still
  // resolves, with ResourceExhausted -- never a hang, never an exception.
  failpoint::Arm("pool.submit",
                 {.error_code = StatusCode::kResourceExhausted,
                  .error_message = "injected submit storm",
                  .max_hits = 1});
  ServiceReply reply =
      service
          .Submit(ServiceRequest{q.value(), MineOptions{}, Algorithm::kGm})
          .get();
  failpoint::DisarmAll();
  EXPECT_EQ(reply.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().shed, 1u);

  // The storm has passed: the service serves normally again.
  reply = service
              .Submit(ServiceRequest{q.value(), MineOptions{}, Algorithm::kGm})
              .get();
  EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
}

TEST(ServiceTest, ConcurrentEngineMineIsSafe) {
  // The engine-level satellite: direct concurrent Mine() calls (no service
  // in front) against the lazy word-list build path.
  MiningEngine engine = testing::MakeSmallEngine(300);
  MiningEngine reference = testing::MakeSmallEngine(300);
  std::vector<Query> workload = MakeWorkload(reference);
  ASSERT_GE(workload.size(), 3u);

  std::vector<MineResult> expected;
  for (const Query& q : workload) {
    expected.push_back(reference.Mine(q, Algorithm::kNra));
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<MineResult>> got(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&engine, &workload, &got, t] {
        for (const Query& q : workload) {
          got[t].push_back(engine.Mine(q, Algorithm::kNra));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < workload.size(); ++i) {
      ExpectSameResults(expected[i], got[t][i],
                        "thread " + std::to_string(t));
    }
  }
}

TEST(ServiceTest, WordListCacheChargesResidentBytes) {
  // A cached score list is charged what it occupies in RAM: sizeof
  // (ListEntry) per entry (the padded AoS entry, not the packed 12-byte
  // on-disk figure) plus 64 bytes of bookkeeping.
  MiningEngine engine = testing::MakeTinyEngine();
  PhraseService service(&engine, PhraseServiceOptions{});
  const Query q = Parse(service, "db", QueryOperator::kAnd);
  ASSERT_EQ(q.terms.size(), 1u);
  ServiceReply reply =
      service.MineSync(ServiceRequest{q, MineOptions{}, Algorithm::kNra});
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();

  const std::size_t len =
      WordScoreLists::BuildOne(engine.inverted(), engine.forward(),
                               engine.dict(), q.terms[0])
          ->size();
  ASSERT_GT(len, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.word_list_cache.entries, 1u);
  EXPECT_EQ(stats.word_list_cache.bytes, len * sizeof(ListEntry) + 64);
}

TEST(ServiceTest, ConcurrentColdListBuildsUnderEvictionMatchSerialEngine) {
  // Four clients mine NRA over overlapping never-seen terms on an engine
  // whose word-list store is too small to keep them, so the same lists
  // are built, evicted and rebuilt concurrently; every reply must stay
  // bitwise equal to the serial engine.
  MiningEngine serving = testing::MakeSmallEngine(400, 16u << 10);
  MiningEngine reference = testing::MakeSmallEngine(400);

  std::vector<TermId> terms;
  for (TermId t = 0; t < reference.inverted().num_terms() && terms.size() < 24;
       ++t) {
    if (reference.inverted().df(t) >= 5) terms.push_back(t);
  }
  ASSERT_GE(terms.size(), 8u);
  std::vector<Query> workload;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    workload.push_back(Query{{terms[i]}, QueryOperator::kAnd});
    const TermId next = terms[(i + 1) % terms.size()];
    workload.push_back(Query{{terms[i], next}, i % 2 == 0
                                                   ? QueryOperator::kAnd
                                                   : QueryOperator::kOr});
  }
  std::vector<MineResult> expected;
  for (const Query& q : workload) {
    expected.push_back(reference.Mine(CanonicalizeQuery(q), Algorithm::kNra));
  }

  PhraseServiceOptions options;
  options.pool.num_threads = 1;
  options.enable_result_cache = false;
  PhraseService service(&serving, options);

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<ServiceReply>> got(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&service, &workload, &got, t] {
        // Each client starts at a different point of the same workload,
        // so the clients overlap on terms without moving in lockstep.
        const std::size_t n = workload.size();
        for (std::size_t j = 0; j < n; ++j) {
          const Query& q = workload[(j + t * n / kThreads) % n];
          got[t].push_back(service.MineSync(
              ServiceRequest{q, MineOptions{}, Algorithm::kNra}));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::size_t n = workload.size();
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = (j + t * n / kThreads) % n;
      const ServiceReply& reply = got[t][j];
      ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
      ExpectSameResults(expected[i], reply.result,
                        "thread " + std::to_string(t) + " query " +
                            std::to_string(i));
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.word_list_cache.evictions, 0u);
  EXPECT_EQ(stats.result_cache.hits, 0u);
}

}  // namespace
}  // namespace phrasemine
