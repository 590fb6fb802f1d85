// MiningEngine facade behaviour: lazy structures, the word-list store's
// lifecycle and budget, snapshot persistence, and end-to-end agreement
// after a save/load cycle.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace phrasemine {
namespace {

/// The first `count` terms (in id order) with document frequency >=
/// min_df: a pool of distinct terms no test step has queried yet.
std::vector<TermId> FrequentTerms(const MiningEngine& engine, uint32_t min_df,
                                  std::size_t count) {
  std::vector<TermId> terms;
  for (TermId t = 0; t < engine.inverted().num_terms() && terms.size() < count;
       ++t) {
    if (engine.inverted().df(t) >= min_df) terms.push_back(t);
  }
  return terms;
}

TEST(EngineTest, BuildPopulatesAllEagerStructures) {
  MiningEngine engine = testing::MakeTinyEngine();
  EXPECT_GT(engine.dict().size(), 0u);
  EXPECT_EQ(engine.corpus().size(), 8u);
  EXPECT_EQ(engine.forward().num_docs(), 8u);
  EXPECT_EQ(engine.forward_compressed().storage(),
            ForwardStorage::kPrefixCompressed);
  EXPECT_EQ(engine.phrase_file().num_phrases(), engine.dict().size());
  EXPECT_EQ(engine.word_lists().num_terms(), 0u);  // Lazy.
}

TEST(EngineTest, ParseQueryUsesCorpusVocabulary) {
  MiningEngine engine = testing::MakeTinyEngine();
  EXPECT_TRUE(engine.ParseQuery("query db", QueryOperator::kAnd).ok());
  EXPECT_FALSE(engine.ParseQuery("nonexistentword", QueryOperator::kOr).ok());
}

TEST(EngineTest, MineBuildsWordListsOnDemand) {
  MiningEngine engine = testing::MakeTinyEngine();
  auto q = engine.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(engine.word_lists().num_terms(), 0u);
  (void)engine.Mine(q.value(), Algorithm::kSmj);
  EXPECT_EQ(engine.word_lists().num_terms(), 2u);
  // A second query extends rather than rebuilds.
  auto q2 = engine.ParseQuery("kernel", QueryOperator::kAnd);
  ASSERT_TRUE(q2.ok());
  (void)engine.Mine(q2.value(), Algorithm::kNra);
  EXPECT_EQ(engine.word_lists().num_terms(), 3u);
}

TEST(EngineTest, SetSmjFractionRebuildsIdLists) {
  MiningEngine engine = testing::MakeTinyEngine();
  auto q = engine.ParseQuery("db", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  engine.SetSmjFraction(1.0);
  MineResult full = engine.Mine(q.value(), Algorithm::kSmj);
  engine.SetSmjFraction(0.1);
  MineResult small = engine.Mine(q.value(), Algorithm::kSmj);
  EXPECT_DOUBLE_EQ(engine.smj_fraction(), 0.1);
  EXPECT_LE(small.entries_read, full.entries_read);
}

TEST(EngineTest, NewTermKeepsBuiltIdRecords) {
  MiningEngine engine = testing::MakeSmallEngine(300);
  const std::vector<TermId> terms = FrequentTerms(engine, 20, 4);
  ASSERT_EQ(terms.size(), 4u);
  const TermId a = terms[0];
  const TermId b = terms[1];
  auto record_a = [&] { return engine.id_ordered_lists().record(a); };

  engine.EnsureIdOrderedLists({&a, 1});
  const WordIdOrderedLists::Record built = record_a();
  ASSERT_NE(built.entries, nullptr);
  ASSERT_NE(built.soa, nullptr);
  ASSERT_GE(built.entries->size(), 2u);

  // Another term's record is added beside a's, never over it.
  engine.EnsureIdOrderedLists({&b, 1});
  EXPECT_EQ(record_a().entries, built.entries);
  EXPECT_EQ(record_a().soa, built.soa);

  // Mines over never-seen terms grow the score lists and the store.
  (void)engine.Mine(Query{{terms[2]}, QueryOperator::kOr}, Algorithm::kSmj);
  (void)engine.Mine(Query{{terms[3]}, QueryOperator::kOr}, Algorithm::kNra);
  EXPECT_TRUE(engine.id_ordered_lists().Has(terms[2]));
  EXPECT_EQ(record_a().entries, built.entries);
  EXPECT_EQ(record_a().soa, built.soa);

  // A fraction change drops every record; a's comes back truncated.
  engine.SetSmjFraction(0.5);
  EXPECT_EQ(record_a().entries, nullptr);
  engine.EnsureIdOrderedLists({&a, 1});
  const WordIdOrderedLists::Record half = record_a();
  ASSERT_NE(half.entries, nullptr);
  EXPECT_LT(half.entries->size(), built.entries->size());

  // A rebuild drops them too.
  engine.Rebuild();
  EXPECT_EQ(record_a().entries, nullptr);
  engine.EnsureIdOrderedLists({&a, 1});
  EXPECT_NE(record_a().entries, nullptr);
  EXPECT_NE(record_a().entries, half.entries);
  EXPECT_NE(record_a().soa, half.soa);
}

TEST(EngineTest, ConcurrentRecordInsertsMatchSerialMines) {
  // Two threads mine SMJ over disjoint never-seen terms while a third
  // grows the score lists with more fresh terms: each record insert must
  // leave every other record (and every in-flight mine) intact.
  MiningEngine engine = testing::MakeSmallEngine(300);
  MiningEngine reference = testing::MakeSmallEngine(300);
  const std::vector<TermId> pool = FrequentTerms(engine, 5, 36);
  ASSERT_EQ(pool.size(), 36u);

  constexpr std::size_t kPerThread = 6;
  auto query_of = [&](std::size_t thread, std::size_t i) {
    const std::size_t base = thread * 2 * kPerThread + 2 * i;
    return Query{{pool[base], pool[base + 1]},
                 i % 2 == 0 ? QueryOperator::kOr : QueryOperator::kAnd};
  };
  std::vector<std::vector<MineResult>> replies(2);
  std::vector<std::thread> miners;
  for (std::size_t thread = 0; thread < 2; ++thread) {
    miners.emplace_back([&, thread] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        replies[thread].push_back(engine.Mine(query_of(thread, i),
                                              Algorithm::kSmj, {.k = 10}));
      }
    });
  }
  std::thread grower([&] {
    for (std::size_t i = 4 * kPerThread; i < pool.size(); ++i) {
      engine.EnsureWordLists({&pool[i], 1});
    }
  });
  for (std::thread& t : miners) t.join();
  grower.join();

  for (std::size_t thread = 0; thread < 2; ++thread) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const MineResult serial =
          reference.Mine(query_of(thread, i), Algorithm::kSmj, {.k = 10});
      const MineResult& got = replies[thread][i];
      EXPECT_EQ(testing::RankedSignature(got),
                testing::RankedSignature(serial))
          << "thread " << thread << " query " << i;
      ASSERT_EQ(got.phrases.size(), serial.phrases.size());
      for (std::size_t r = 0; r < got.phrases.size(); ++r) {
        EXPECT_EQ(got.phrases[r].interestingness,
                  serial.phrases[r].interestingness);
      }
    }
  }
}

/// Re-inserts `count` of the engine's own documents (every third one) and
/// deletes two, as one update batch: both sides of a differential then
/// carry the same pending overlay.
UpdateBatch ReinsertBatch(const MiningEngine& engine, std::size_t count) {
  const Corpus& corpus = engine.corpus();
  UpdateBatch batch;
  for (DocId d = 0; d < corpus.size() && batch.inserts.size() < count;
       d += 3) {
    UpdateDoc doc;
    for (TermId t : corpus.doc(d).tokens) {
      doc.tokens.push_back(corpus.vocab().TermText(t));
    }
    for (TermId f : corpus.doc(d).facets) {
      doc.facets.push_back(corpus.vocab().TermText(f));
    }
    batch.inserts.push_back(std::move(doc));
  }
  batch.deletes = {1, 4};
  return batch;
}

TEST(EngineTest, EvictingStoreMinesBitwiseEqualToDefaultStore) {
  // A 1-byte store budget gives each lock shard of the store a 1-byte
  // slice, so every shard keeps just its latest (oversized) entry and
  // nearly every list a query needs was evicted since its last use. NRA
  // and SMJ must not move by a ULP, with and without a pending overlay.
  MiningEngine evicting = testing::MakeSmallEngine(300, 1);
  MiningEngine reference = testing::MakeSmallEngine(300);
  const std::vector<TermId> pool = FrequentTerms(reference, 5, 24);
  ASSERT_EQ(pool.size(), 24u);
  auto check = [&](const std::string& phase) {
    for (std::size_t i = 0; i + 1 < pool.size(); ++i) {
      for (const QueryOperator op :
           {QueryOperator::kAnd, QueryOperator::kOr}) {
        const Query q{{pool[i], pool[i + 1]}, op};
        for (const Algorithm a : {Algorithm::kNra, Algorithm::kSmj}) {
          const MineResult got = evicting.Mine(q, a, {.k = 10});
          const MineResult want = reference.Mine(q, a, {.k = 10});
          EXPECT_EQ(testing::RankedSignature(got),
                    testing::RankedSignature(want))
              << phase << " " << AlgorithmName(a) << " query " << i;
          EXPECT_EQ(got.guarantee, want.guarantee) << phase;
          EXPECT_EQ(got.epoch, want.epoch) << phase;
        }
      }
    }
  };
  check("base");
  const UpdateBatch batch = ReinsertBatch(reference, 12);
  evicting.ApplyUpdate(batch);
  reference.ApplyUpdate(batch);
  check("overlay");

  const CacheStats stats = evicting.list_store_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, stats.capacity_bytes);  // one per 1-byte slice
  EXPECT_EQ(reference.list_store_stats().evictions, 0u);
}

TEST(EngineTest, StoreStaysWithinItsBudget) {
  // Many distinct terms through a store that holds a fraction of them:
  // resident bytes stay within the budget, plus at most one oversized
  // entry per lock shard (a shard always admits its newest entry).
  constexpr std::size_t kBudget = 48u << 10;
  constexpr std::size_t kStoreShards = 8;
  MiningEngine engine = testing::MakeSmallEngine(600, kBudget);
  const std::vector<TermId> terms = FrequentTerms(engine, 2, 300);
  ASSERT_GE(terms.size(), 200u);
  std::size_t max_charge = 0;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const Algorithm a = i % 2 == 0 ? Algorithm::kNra : Algorithm::kSmj;
    (void)engine.Mine(Query{{terms[i]}, QueryOperator::kOr}, a);
    const MiningEngine::StoredLists stored =
        engine.Lists({&terms[i], 1}, a == Algorithm::kSmj);
    max_charge =
        std::max(max_charge, testing::ListStoreCharge(*stored.lists[0]));
    const CacheStats stats = engine.list_store_stats();
    ASSERT_EQ(stats.capacity_bytes, kBudget);
    ASSERT_LE(stats.bytes, kBudget + kStoreShards * max_charge)
        << "after " << i + 1 << " terms";
  }
  const CacheStats stats = engine.list_store_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, terms.size());
}

TEST(EngineTest, PhraseTextServedFromSlotFile) {
  MiningEngine engine = testing::MakeTinyEngine();
  for (PhraseId p = 0; p < engine.dict().size(); ++p) {
    EXPECT_EQ(engine.PhraseText(p),
              engine.dict().Text(p, engine.corpus().vocab()));
  }
}

TEST(EngineTest, AlgorithmNamesStable) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kExact), "Exact");
  EXPECT_STREQ(AlgorithmName(Algorithm::kGm), "GM");
  EXPECT_STREQ(AlgorithmName(Algorithm::kSimitsis), "Simitsis");
  EXPECT_STREQ(AlgorithmName(Algorithm::kNra), "NRA");
  EXPECT_STREQ(AlgorithmName(Algorithm::kNraDisk), "NRA-disk");
  EXPECT_STREQ(AlgorithmName(Algorithm::kSmj), "SMJ");
}

TEST(EngineTest, SnapshotRoundTripPreservesResults) {
  const std::string path = ::testing::TempDir() + "/engine.pmidx";
  MiningEngine original = testing::MakeTinyEngine();
  auto q = original.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  // Materialize word lists so the snapshot carries them.
  MineResult before = original.Mine(q.value(), Algorithm::kSmj);
  ASSERT_TRUE(original.SaveToFile(path).ok());

  auto loaded = MiningEngine::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  MiningEngine& engine = loaded.value();
  EXPECT_EQ(engine.corpus().size(), original.corpus().size());
  EXPECT_EQ(engine.dict().size(), original.dict().size());
  EXPECT_EQ(engine.word_lists().num_terms(),
            original.word_lists().num_terms());

  // Same query, same results, across all algorithms.
  auto q2 = engine.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q2.ok());
  for (Algorithm a : {Algorithm::kExact, Algorithm::kGm, Algorithm::kSmj,
                      Algorithm::kNra, Algorithm::kSimitsis}) {
    MineResult from_loaded = engine.Mine(q2.value(), a);
    MineResult from_original = original.Mine(q.value(), a);
    EXPECT_EQ(testing::Ids(from_loaded), testing::Ids(from_original))
        << AlgorithmName(a);
  }
  std::remove(path.c_str());
}

TEST(EngineTest, LoadMissingSnapshotFails) {
  auto loaded = MiningEngine::LoadFromFile("/nonexistent/dir/engine.pmidx");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(EngineTest, LoadRejectsGarbageFile) {
  const std::string path = ::testing::TempDir() + "/engine.pmidx";
  {
    BinaryWriter w;
    w.PutU32(0xDEADBEEF);  // wrong magic
    for (int i = 0; i < 60; ++i) w.PutU8(0);  // past the minimum file size
    ASSERT_TRUE(w.WriteToFile(path).ok());
  }
  auto loaded = MiningEngine::LoadFromFile(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(EngineTest, LoadRejectsWrongVersion) {
  const std::string path = ::testing::TempDir() + "/engine.pmidx";
  {
    BinaryWriter w;
    w.PutU32(kIndexFileMagic);
    w.PutU32(999);  // unsupported version
    for (int i = 0; i < 60; ++i) w.PutU8(0);
    ASSERT_TRUE(w.WriteToFile(path).ok());
  }
  auto loaded = MiningEngine::LoadFromFile(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(EngineTest, TruncatedSnapshotFailsCleanly) {
  const std::string path = ::testing::TempDir() + "/engine.pmidx";
  MiningEngine original = testing::MakeTinyEngine();
  ASSERT_TRUE(original.SaveToFile(path).ok());
  // Truncate the snapshot to its first half and expect a clean error.
  auto reader = BinaryReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  const std::size_t full = reader.value().Remaining();
  {
    std::vector<uint8_t> half(full / 2);
    ASSERT_TRUE(reader.value().GetRaw(half.data(), half.size()).ok());
    BinaryWriter w;
    w.PutRaw(half.data(), half.size());
    ASSERT_TRUE(w.WriteToFile(path).ok());
  }
  auto loaded = MiningEngine::LoadFromFile(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(EngineTest, NraDiskReportsDiskCost) {
  MiningEngine engine = testing::MakeSmallEngine(200);
  auto queries = engine.ParseQuery("topic:0", QueryOperator::kAnd);
  ASSERT_TRUE(queries.ok());
  MineResult r = engine.Mine(queries.value(), Algorithm::kNraDisk);
  EXPECT_GT(r.disk_ms, 0.0);
  EXPECT_GT(r.TotalMs(), r.compute_ms);
  // In-memory runs report no disk cost.
  MineResult mem = engine.Mine(queries.value(), Algorithm::kNra);
  EXPECT_DOUBLE_EQ(mem.disk_ms, 0.0);
}

}  // namespace
}  // namespace phrasemine
