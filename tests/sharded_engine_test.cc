#include "shard/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/disk_lists.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "eval/query_gen.h"
#include "test_util.h"

namespace phrasemine {
namespace {

using testing::MakeSmallSyntheticCorpus;
using testing::MakeTinyCorpus;

MiningEngineOptions EngineOptions(uint32_t min_df) {
  MiningEngineOptions options;
  options.extractor.min_df = min_df;
  return options;
}

ShardedEngine BuildSharded(Corpus corpus, std::size_t num_shards,
                           uint32_t min_df,
                           ShardedEngineOptions extra = {}) {
  ShardedEngineOptions options = std::move(extra);
  options.num_shards = num_shards;
  options.engine = EngineOptions(min_df);
  return ShardedEngine::Build(std::move(corpus), std::move(options));
}

/// Harvests a deterministic differential workload from the monolithic
/// engine (term ids are portable: every shard vocabulary is a copy of the
/// corpus vocabulary the monolithic engine holds too).
std::vector<Query> HarvestQueries(const MiningEngine& mono,
                                  std::size_t count) {
  QueryGenOptions options;
  options.num_queries = count;
  options.min_term_df = 8;
  options.min_pairwise_codf = 3;
  options.min_and_matches = 3;
  return QuerySetGenerator(options).Generate(mono.dict(), mono.inverted(),
                                             mono.corpus().size());
}

/// Asserts the sharded top-k equals the monolithic top-k: identical score
/// sequence, and identical phrase sets within every equal-score group.
/// The two sides break exact ties differently (the monolithic collector
/// prefers smaller shard-local PhraseIds, which do not exist globally;
/// the merge orders ties by text), so a tie group that straddles the
/// k-boundary is compared as a subset of the monolithic group instead.
void ExpectEquivalentTopK(MiningEngine& mono, ShardedEngine& sharded,
                          const Query& query, Algorithm algorithm,
                          const MineOptions& options) {
  MineOptions extended = options;
  extended.k = options.k + 200;  // headroom so boundary tie groups resolve
  const MineResult mono_ext = mono.Mine(query, algorithm, extended);
  const ShardedMineResult merged = sharded.Mine(query, algorithm, options);

  const std::size_t expect =
      std::min(options.k, mono_ext.phrases.size());
  ASSERT_EQ(merged.result.phrases.size(), expect);
  ASSERT_EQ(merged.texts.size(), expect);
  if (expect == 0) return;

  for (std::size_t i = 0; i < expect; ++i) {
    EXPECT_EQ(merged.result.phrases[i].score, mono_ext.phrases[i].score)
        << "rank " << i << ": sharded \"" << merged.texts[i]
        << "\" vs mono \"" << mono.PhraseText(mono_ext.phrases[i].phrase)
        << "\"";
  }

  std::map<double, std::multiset<std::string>> mono_groups;
  for (const MinedPhrase& p : mono_ext.phrases) {
    mono_groups[p.score].insert(mono.PhraseText(p.phrase));
  }
  std::map<double, std::multiset<std::string>> merged_groups;
  for (std::size_t i = 0; i < expect; ++i) {
    merged_groups[merged.result.phrases[i].score].insert(merged.texts[i]);
  }
  const double boundary = merged.result.phrases.back().score;
  for (const auto& [score, texts] : merged_groups) {
    const auto it = mono_groups.find(score);
    ASSERT_NE(it, mono_groups.end()) << "score " << score;
    if (score == boundary) {
      // The k-cut may split this group differently on the two sides.
      for (const std::string& text : texts) {
        EXPECT_TRUE(it->second.contains(text))
            << "boundary phrase \"" << text << "\" not in mono group";
      }
    } else {
      EXPECT_EQ(texts, it->second) << "at score " << score;
    }
  }
}

// --- Differential: merged Exact/SMJ == monolithic, randomized corpora -------

TEST(ShardedEngineTest, DifferentialExactAndSmjMatchMonolith) {
  for (const std::size_t num_docs : {400u, 900u}) {
    MiningEngine mono =
        MiningEngine::Build(MakeSmallSyntheticCorpus(num_docs),
                            EngineOptions(/*min_df=*/3));
    ShardedEngine sharded =
        BuildSharded(MakeSmallSyntheticCorpus(num_docs), /*num_shards=*/4,
                     /*min_df=*/3);
    const std::vector<Query> queries = HarvestQueries(mono, 10);
    ASSERT_FALSE(queries.empty());
    for (const Algorithm algorithm : {Algorithm::kExact, Algorithm::kSmj}) {
      for (const Query& base : queries) {
        for (const QueryOperator op :
             {QueryOperator::kAnd, QueryOperator::kOr}) {
          Query query = base;
          query.op = op;
          ExpectEquivalentTopK(mono, sharded, query, algorithm,
                               MineOptions{.k = 5});
        }
      }
    }
  }
}

TEST(ShardedEngineTest, EvictingShardStoresMatchFleetAndMonolith) {
  // Every shard's word-list store gets a 1-byte budget, so each of its
  // lock shards keeps only its latest entry and the scatter and fill
  // rounds rebuild lists they took moments before. SMJ must still match
  // the monolith, and SMJ and NRA must be bitwise equal to a fleet whose
  // stores keep everything.
  MiningEngine mono = MiningEngine::Build(MakeSmallSyntheticCorpus(500),
                                          EngineOptions(/*min_df=*/3));
  ShardedEngineOptions options;
  options.num_shards = 4;
  options.engine = EngineOptions(/*min_df=*/3);
  ShardedEngine reference =
      ShardedEngine::Build(MakeSmallSyntheticCorpus(500), options);
  options.engine.word_list_store_bytes = 1;
  ShardedEngine evicting =
      ShardedEngine::Build(MakeSmallSyntheticCorpus(500), options);
  const std::vector<Query> queries = HarvestQueries(mono, 6);
  ASSERT_FALSE(queries.empty());
  for (const Query& base : queries) {
    for (const QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
      Query query = base;
      query.op = op;
      ExpectEquivalentTopK(mono, evicting, query, Algorithm::kSmj,
                           MineOptions{.k = 5});
      for (const Algorithm algorithm : {Algorithm::kSmj, Algorithm::kNra}) {
        const ShardedMineResult got =
            evicting.Mine(query, algorithm, MineOptions{.k = 5});
        const ShardedMineResult want =
            reference.Mine(query, algorithm, MineOptions{.k = 5});
        EXPECT_EQ(testing::RankedSignature(got.result),
                  testing::RankedSignature(want.result))
            << AlgorithmName(algorithm);
        EXPECT_EQ(got.texts, want.texts) << AlgorithmName(algorithm);
      }
    }
  }
  uint64_t evictions = 0;
  for (std::size_t s = 0; s < evicting.num_shards(); ++s) {
    const CacheStats stats = evicting.shard(s).list_store_stats();
    EXPECT_LE(stats.entries, stats.capacity_bytes);  // one per 1-byte slice
    evictions += stats.evictions;
  }
  EXPECT_GT(evictions, 0u);
  EXPECT_EQ(evicting.list_store_stats().evictions, evictions);
}

TEST(ShardedEngineTest, ShardStoresStayWithinTheirBudget) {
  // The monolith's bound, per fleet shard: after many distinct terms
  // every shard's store holds at most its budget plus one oversized
  // entry per lock shard.
  constexpr std::size_t kBudget = 24u << 10;
  constexpr std::size_t kStoreShards = 8;
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.engine = EngineOptions(/*min_df=*/3);
  options.engine.word_list_store_bytes = kBudget;
  ShardedEngine sharded =
      ShardedEngine::Build(MakeSmallSyntheticCorpus(600), options);
  std::vector<TermId> terms;
  const InvertedIndex& inverted = sharded.shard(0).inverted();
  for (TermId t = 0; t < inverted.num_terms() && terms.size() < 200; ++t) {
    if (inverted.df(t) >= 2) terms.push_back(t);
  }
  ASSERT_GE(terms.size(), 100u);
  std::vector<std::size_t> max_charge(sharded.num_shards(), 0);
  for (TermId t : terms) {
    (void)sharded.Mine(Query{{t}, QueryOperator::kOr}, Algorithm::kSmj,
                       MineOptions{.k = 5});
    for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
      const MiningEngine::StoredLists stored =
          sharded.shard(s).Lists({&t, 1}, true);
      max_charge[s] = std::max(max_charge[s],
                               testing::ListStoreCharge(*stored.lists[0]));
      const CacheStats stats = sharded.shard(s).list_store_stats();
      ASSERT_EQ(stats.capacity_bytes, kBudget);
      ASSERT_LE(stats.bytes, kBudget + kStoreShards * max_charge[s])
          << "shard " << s;
    }
  }
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_GT(sharded.shard(s).list_store_stats().evictions, 0u);
  }
}

/// A fleet pins every shard to full id-ordered lists: engine options
/// asking for truncated SMJ lists still merge to the full-list monolithic
/// answer, with and without a pending overlay.
TEST(ShardedEngineTest, FleetPinsFullListsWhateverTheEngineFraction) {
  const std::size_t num_docs = 400;
  MiningEngine mono = MiningEngine::Build(MakeSmallSyntheticCorpus(num_docs),
                                          EngineOptions(/*min_df=*/3));
  ASSERT_DOUBLE_EQ(mono.smj_fraction(), 1.0);
  ShardedEngineOptions options;
  options.num_shards = 3;
  options.engine = EngineOptions(/*min_df=*/3);
  options.engine.default_smj_fraction = 0.3;
  ShardedEngine sharded =
      ShardedEngine::Build(MakeSmallSyntheticCorpus(num_docs), options);
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_DOUBLE_EQ(sharded.shard(s).smj_fraction(), 1.0);
  }
  const std::vector<Query> queries = HarvestQueries(mono, 6);
  ASSERT_FALSE(queries.empty());
  auto expect_all = [&] {
    for (const Query& base : queries) {
      for (const QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
        Query query = base;
        query.op = op;
        ExpectEquivalentTopK(mono, sharded, query, Algorithm::kSmj,
                             MineOptions{.k = 8});
      }
    }
  };
  expect_all();

  // Re-inserting spliced halves of existing documents creates
  // co-occurrences the stored lists lack (delta-only extras).
  const Corpus& corpus = mono.corpus();
  UpdateBatch batch;
  for (DocId d = 0; d < 12; ++d) {
    UpdateDoc doc;
    for (const DocId src : {d, static_cast<DocId>(d + num_docs / 2)}) {
      for (TermId t : corpus.doc(src).tokens) {
        doc.tokens.push_back(corpus.vocab().TermText(t));
      }
    }
    batch.inserts.push_back(std::move(doc));
  }
  batch.deletes = {1, 5, 9};
  mono.ApplyUpdate(batch);
  sharded.ApplyUpdate(batch);
  EXPECT_EQ(sharded.Mine(queries[0], Algorithm::kSmj, MineOptions{.k = 8})
                .result.guarantee,
            UpdateGuarantee::kExactUnderDelta);
  expect_all();
}

/// Mines over never-seen terms racing fresh score-list builds on the
/// same shards: every reply equals a serial mine on an identical fleet.
TEST(ShardedEngineTest, ConcurrentRecordInsertsMatchSerialMines) {
  const std::size_t num_docs = 300;
  ShardedEngine sharded = BuildSharded(MakeSmallSyntheticCorpus(num_docs),
                                       /*num_shards=*/2, /*min_df=*/3);
  ShardedEngine reference = BuildSharded(MakeSmallSyntheticCorpus(num_docs),
                                         /*num_shards=*/2, /*min_df=*/3);
  const MiningEngine mono = MiningEngine::Build(
      MakeSmallSyntheticCorpus(num_docs), EngineOptions(/*min_df=*/3));
  std::vector<TermId> pool;
  for (TermId t = 0; t < mono.inverted().num_terms() && pool.size() < 36;
       ++t) {
    if (mono.inverted().df(t) >= 5) pool.push_back(t);
  }
  ASSERT_EQ(pool.size(), 36u);

  constexpr std::size_t kPerThread = 6;
  auto query_of = [&](std::size_t thread, std::size_t i) {
    const std::size_t base = thread * 2 * kPerThread + 2 * i;
    return Query{{pool[base], pool[base + 1]}, QueryOperator::kOr};
  };
  auto algorithm_of = [](std::size_t thread, std::size_t i) {
    return (thread + i) % 2 == 0 ? Algorithm::kSmj : Algorithm::kNra;
  };
  std::vector<std::vector<ShardedMineResult>> replies(2);
  std::vector<std::thread> miners;
  for (std::size_t thread = 0; thread < 2; ++thread) {
    miners.emplace_back([&, thread] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        replies[thread].push_back(sharded.Mine(query_of(thread, i),
                                               algorithm_of(thread, i),
                                               MineOptions{.k = 10}));
      }
    });
  }
  std::thread grower([&] {
    for (std::size_t i = 4 * kPerThread; i < pool.size(); ++i) {
      for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
        sharded.WithShard(s, [&](MiningEngine& engine) {
          engine.EnsureWordLists({&pool[i], 1});
        });
      }
    }
  });
  for (std::thread& t : miners) t.join();
  grower.join();

  for (std::size_t thread = 0; thread < 2; ++thread) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const ShardedMineResult serial = reference.Mine(
          query_of(thread, i), algorithm_of(thread, i), MineOptions{.k = 10});
      const ShardedMineResult& got = replies[thread][i];
      EXPECT_EQ(testing::RankedSignature(got.result),
                testing::RankedSignature(serial.result))
          << "thread " << thread << " query " << i;
      EXPECT_EQ(got.texts, serial.texts);
    }
  }
}

// --- Threshold exchange ------------------------------------------------------

/// The exchange must be a pure fill-work optimization: ranked output
/// bitwise identical with the round on and off (and hence still identical
/// to the monolithic engine, which the differential test above already
/// pins), while at 4 shards it actually prunes candidates and saves fill
/// slots somewhere in the workload.
TEST(ShardedEngineTest, ThresholdExchangePreservesResultsAndPrunesFill) {
  MiningEngine mono =
      MiningEngine::Build(MakeSmallSyntheticCorpus(900),
                          EngineOptions(/*min_df=*/3));
  ShardedEngine sharded =
      BuildSharded(MakeSmallSyntheticCorpus(900), /*num_shards=*/4,
                   /*min_df=*/3);
  const std::vector<Query> queries = HarvestQueries(mono, 8);
  ASSERT_FALSE(queries.empty());

  uint64_t total_pruned = 0;
  std::size_t slots_on = 0;
  std::size_t slots_off = 0;
  for (const Algorithm algorithm : {Algorithm::kExact, Algorithm::kSmj}) {
    for (const Query& base : queries) {
      for (const QueryOperator op :
           {QueryOperator::kAnd, QueryOperator::kOr}) {
        Query query = base;
        query.op = op;
        sharded.SetThresholdExchange(false);
        const ShardedMineResult off =
            sharded.Mine(query, algorithm, MineOptions{.k = 5});
        EXPECT_EQ(off.result.candidates_pruned, 0u);
        sharded.SetThresholdExchange(true);
        const ShardedMineResult on =
            sharded.Mine(query, algorithm, MineOptions{.k = 5});

        ASSERT_EQ(on.result.phrases.size(), off.result.phrases.size());
        for (std::size_t i = 0; i < on.result.phrases.size(); ++i) {
          EXPECT_EQ(on.result.phrases[i].phrase, off.result.phrases[i].phrase);
          EXPECT_EQ(on.result.phrases[i].score, off.result.phrases[i].score);
        }
        EXPECT_EQ(on.candidates, off.candidates);
        EXPECT_LE(on.fill_slots, off.fill_slots);
        total_pruned += on.result.candidates_pruned;
        slots_on += on.fill_slots;
        slots_off += off.fill_slots;
      }
    }
  }
  // The workload as a whole must show real pruning (AND queries drop
  // cross-shard-only candidates; fully-reported floors prune the rest).
  EXPECT_GT(total_pruned, 0u);
  EXPECT_LT(slots_on, slots_off);
}

/// Same invariant under a pending delta overlay: the exchange reads the
/// delta-corrected scatter supports, so the on/off results must stay
/// identical after updates too.
TEST(ShardedEngineTest, ThresholdExchangeExactUnderDelta) {
  MiningEngine mono =
      MiningEngine::Build(MakeSmallSyntheticCorpus(500),
                          EngineOptions(/*min_df=*/3));
  ShardedEngine sharded =
      BuildSharded(MakeSmallSyntheticCorpus(500), /*num_shards=*/4,
                   /*min_df=*/3);
  const std::vector<Query> queries = HarvestQueries(mono, 5);
  ASSERT_FALSE(queries.empty());

  UpdateBatch batch;
  for (DocId d = 0; d < 20; ++d) {
    UpdateDoc doc;
    const Document& src = sharded.shard(0).corpus().doc(
        d % sharded.shard(0).corpus().size());
    for (TermId t : src.tokens) {
      doc.tokens.push_back(
          std::string(sharded.shard(0).corpus().vocab().TermText(t)));
    }
    batch.inserts.push_back(std::move(doc));
  }
  batch.deletes = {2, 4};
  (void)sharded.ApplyUpdate(batch);

  for (const Query& base : queries) {
    for (const QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
      Query query = base;
      query.op = op;
      sharded.SetThresholdExchange(false);
      const ShardedMineResult off =
          sharded.Mine(query, Algorithm::kSmj, MineOptions{.k = 5});
      sharded.SetThresholdExchange(true);
      const ShardedMineResult on =
          sharded.Mine(query, Algorithm::kSmj, MineOptions{.k = 5});
      EXPECT_EQ(on.result.guarantee, UpdateGuarantee::kExactUnderDelta);
      ASSERT_EQ(on.result.phrases.size(), off.result.phrases.size());
      for (std::size_t i = 0; i < on.result.phrases.size(); ++i) {
        EXPECT_EQ(on.result.phrases[i].phrase, off.result.phrases[i].phrase);
        EXPECT_EQ(on.result.phrases[i].score, off.result.phrases[i].score);
      }
    }
  }
}

// --- Scatter-gather edge cases ----------------------------------------------

TEST(ShardedEngineTest, EmptyShardsAreHarmless) {
  // Everything lands in shard 0; shards 1..3 stay completely empty.
  ShardedEngineOptions extra;
  extra.partitioner = [](DocId, std::size_t) { return 0u; };
  MiningEngine mono =
      MiningEngine::Build(MakeTinyCorpus(), EngineOptions(/*min_df=*/2));
  ShardedEngine sharded =
      BuildSharded(MakeTinyCorpus(), /*num_shards=*/4, /*min_df=*/2,
                   std::move(extra));

  const Query query = mono.ParseQuery("query optimization",
                                      QueryOperator::kAnd).value();
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kExact,
                       MineOptions{.k = 5});
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kSmj,
                       MineOptions{.k = 5});
  // The approximate paths must tolerate empty shards too.
  const ShardedMineResult nra =
      sharded.Mine(query, Algorithm::kNra, MineOptions{.k = 5});
  EXPECT_FALSE(nra.exact_merge);
  EXPECT_FALSE(nra.result.phrases.empty());
}

TEST(ShardedEngineTest, KLargerThanTotalResults) {
  MiningEngine mono =
      MiningEngine::Build(MakeTinyCorpus(), EngineOptions(/*min_df=*/2));
  ShardedEngine sharded =
      BuildSharded(MakeTinyCorpus(), /*num_shards=*/4, /*min_df=*/2);
  const Query query = mono.ParseQuery("query optimization",
                                      QueryOperator::kAnd).value();
  const MineOptions options{.k = 500};
  const MineResult mono_result = mono.Mine(query, Algorithm::kExact, options);
  const ShardedMineResult merged =
      sharded.Mine(query, Algorithm::kExact, options);
  // Fewer qualifying phrases than k: both sides return everything.
  EXPECT_LT(mono_result.phrases.size(), options.k);
  EXPECT_EQ(merged.result.phrases.size(), mono_result.phrases.size());
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kExact, options);
}

TEST(ShardedEngineTest, AllResultsInOneShard) {
  // The matching documents (0..3 carry "query optimization") all land in
  // shard 2; the other shards only contribute global df denominators.
  ShardedEngineOptions extra;
  extra.partitioner = [](DocId g, std::size_t n) {
    return g < 4 ? 2u : static_cast<uint32_t>(g % n);
  };
  MiningEngine mono =
      MiningEngine::Build(MakeTinyCorpus(), EngineOptions(/*min_df=*/2));
  ShardedEngine sharded =
      BuildSharded(MakeTinyCorpus(), /*num_shards=*/4, /*min_df=*/2,
                   std::move(extra));
  const Query query = mono.ParseQuery("query optimization",
                                      QueryOperator::kAnd).value();
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kExact,
                       MineOptions{.k = 8});
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kSmj,
                       MineOptions{.k = 8});
}

TEST(ShardedEngineTest, TieBreakDeterministicAcrossShardCounts) {
  // The exhaustive merge recomputes global supports, so the merged output
  // must be a pure function of the corpus -- identical across shard
  // counts and across repeated runs (ties ordered by text).
  MiningEngine mono =
      MiningEngine::Build(MakeSmallSyntheticCorpus(500),
                          EngineOptions(/*min_df=*/3));
  ShardedEngine two =
      BuildSharded(MakeSmallSyntheticCorpus(500), /*num_shards=*/2,
                   /*min_df=*/3);
  ShardedEngine four =
      BuildSharded(MakeSmallSyntheticCorpus(500), /*num_shards=*/4,
                   /*min_df=*/3);
  const std::vector<Query> queries = HarvestQueries(mono, 6);
  ASSERT_FALSE(queries.empty());
  for (const Query& query : queries) {
    for (const Algorithm algorithm : {Algorithm::kExact, Algorithm::kSmj}) {
      const ShardedMineResult a =
          two.Mine(query, algorithm, MineOptions{.k = 5});
      const ShardedMineResult b =
          four.Mine(query, algorithm, MineOptions{.k = 5});
      const ShardedMineResult c =
          four.Mine(query, algorithm, MineOptions{.k = 5});
      EXPECT_EQ(a.texts, b.texts);
      EXPECT_EQ(b.texts, c.texts);
      ASSERT_EQ(a.result.phrases.size(), b.result.phrases.size());
      for (std::size_t i = 0; i < a.result.phrases.size(); ++i) {
        EXPECT_EQ(a.result.phrases[i].score, b.result.phrases[i].score);
      }
    }
  }
}

// --- Approximate paths: bounded recall, exact scores ------------------------

TEST(ShardedEngineTest, TopKPathsReportExactGlobalScores) {
  MiningEngine mono =
      MiningEngine::Build(MakeSmallSyntheticCorpus(500),
                          EngineOptions(/*min_df=*/3));
  ShardedEngine sharded =
      BuildSharded(MakeSmallSyntheticCorpus(500), /*num_shards=*/4,
                   /*min_df=*/3);
  const std::vector<Query> queries = HarvestQueries(mono, 6);
  ASSERT_FALSE(queries.empty());
  for (const Query& query : queries) {
    // Ground truth: every phrase's exact global count-based score. Texts
    // come from the fixed-slot phrase file, so two long phrases can
    // render identically -- the truth maps therefore hold score *sets*.
    const MineResult exact =
        mono.Mine(query, Algorithm::kExact, MineOptions{.k = 100000});
    std::map<std::string, std::set<double>> truth;
    for (const MinedPhrase& p : exact.phrases) {
      truth[mono.PhraseText(p.phrase)].insert(p.score);
    }
    const ShardedMineResult gm =
        sharded.Mine(query, Algorithm::kGm, MineOptions{.k = 5});
    EXPECT_FALSE(gm.exact_merge);
    for (std::size_t i = 0; i < gm.texts.size(); ++i) {
      const auto it = truth.find(gm.texts[i]);
      ASSERT_NE(it, truth.end()) << gm.texts[i];
      EXPECT_TRUE(it->second.contains(gm.result.phrases[i].score))
          << gm.texts[i];
    }

    // List path: NRA candidates carry the exact merged list score -- the
    // score exhaustive sharded SMJ computes for the same phrase.
    const ShardedMineResult smj_all =
        sharded.Mine(query, Algorithm::kSmj, MineOptions{.k = 100000});
    std::map<std::string, std::set<double>> list_truth;
    for (std::size_t i = 0; i < smj_all.texts.size(); ++i) {
      list_truth[smj_all.texts[i]].insert(smj_all.result.phrases[i].score);
    }
    const ShardedMineResult nra =
        sharded.Mine(query, Algorithm::kNra, MineOptions{.k = 5});
    for (std::size_t i = 0; i < nra.texts.size(); ++i) {
      const auto it = list_truth.find(nra.texts[i]);
      ASSERT_NE(it, list_truth.end()) << nra.texts[i];
      EXPECT_TRUE(it->second.contains(nra.result.phrases[i].score))
          << nra.texts[i];
    }
  }
}

// --- Live updates ------------------------------------------------------------

TEST(ShardedEngineTest, UpdatesRouteToOwningShardsAndEpochsCompose) {
  // min_df 1 on both sides makes the phrase sets identical, so sharded
  // SMJ under a delta overlay must match the monolithic engine exactly.
  MiningEngine mono =
      MiningEngine::Build(MakeTinyCorpus(), EngineOptions(/*min_df=*/1));
  ShardedEngine sharded =
      BuildSharded(MakeTinyCorpus(), /*num_shards=*/3, /*min_df=*/1);

  UpdateBatch batch;
  batch.inserts.push_back(UpdateDoc{
      {"query", "optimization", "beats", "guessing"}, {}});
  batch.inserts.push_back(UpdateDoc{
      {"systems", "kernel", "query", "optimization"}, {}});
  batch.deletes.push_back(1);

  const UpdateStats mono_stats = mono.ApplyUpdate(batch);
  const ShardedUpdateStats stats = sharded.ApplyUpdate(batch);
  EXPECT_EQ(stats.total.batch_inserts, mono_stats.batch_inserts);
  EXPECT_EQ(stats.total.batch_deletes, mono_stats.batch_deletes);
  EXPECT_EQ(stats.total.live_docs, mono_stats.live_docs);
  EXPECT_EQ(stats.epochs.size(), 3u);
  uint64_t sum = 0;
  for (uint64_t e : stats.epochs) sum += e;
  EXPECT_EQ(stats.total.epoch, sum);
  EXPECT_GE(sum, 1u);

  const Query query =
      mono.ParseQuery("query optimization", QueryOperator::kAnd).value();
  const ShardedMineResult merged =
      sharded.Mine(query, Algorithm::kSmj, MineOptions{.k = 8});
  EXPECT_EQ(merged.result.guarantee, UpdateGuarantee::kExactUnderDelta);
  EXPECT_EQ(merged.result.shard_epochs, sharded.epochs());
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kSmj,
                       MineOptions{.k = 8});

  // Shard-by-shard rebuild: freshness returns one shard at a time, and
  // afterwards the merged output matches a monolithic rebuild.
  mono.Rebuild();
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    sharded.RebuildShard(s);
  }
  const ShardedMineResult rebuilt =
      sharded.Mine(query, Algorithm::kSmj, MineOptions{.k = 8});
  EXPECT_EQ(rebuilt.result.guarantee, UpdateGuarantee::kFresh);
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kSmj,
                       MineOptions{.k = 8});

  // Deleting an ingested document by its global id (>= base size).
  UpdateBatch del;
  del.deletes.push_back(8);  // first insert above
  const ShardedUpdateStats del_stats = sharded.ApplyUpdate(del);
  EXPECT_EQ(del_stats.total.batch_deletes, 1u);
  UpdateBatch mono_del;
  // After the monolithic rebuild the first insert (doc id 8 pre-rebuild)
  // compacted to id 7 (doc 1 was deleted).
  mono_del.deletes.push_back(7);
  mono.ApplyUpdate(mono_del);
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kSmj,
                       MineOptions{.k = 8});
}

TEST(ShardedEngineTest, RefreshDictionaryAdmitsUpdateBornPhrases) {
  ShardedEngine sharded =
      BuildSharded(MakeTinyCorpus(), /*num_shards=*/3, /*min_df=*/2);
  const std::size_t set_before = sharded.phrase_set().size();

  // Two inserted documents establish a brand-new collocation; the frozen
  // phrase set cannot know it, so shard rebuilds alone never admit it.
  UpdateBatch batch;
  batch.inserts.push_back(UpdateDoc{{"brand", "new", "collocation"}, {}});
  batch.inserts.push_back(UpdateDoc{{"brand", "new", "collocation"}, {}});
  (void)sharded.ApplyUpdate(batch);
  const uint64_t epoch_before = sharded.epoch();

  const Query query =
      sharded.ParseQuery("brand new", QueryOperator::kAnd).value();
  const ShardedMineResult stale =
      sharded.Mine(query, Algorithm::kSmj, MineOptions{.k = 10});
  for (const std::string& text : stale.texts) {
    EXPECT_NE(text, "brand new");
  }

  sharded.RefreshDictionary();

  EXPECT_GT(sharded.phrase_set().size(), set_before);
  // Epochs continue strictly monotonically across the fleet swap, so no
  // epoch-vector cache key from before the refresh stays reachable.
  EXPECT_GT(sharded.epoch(), epoch_before);
  const ShardedMineResult fresh =
      sharded.Mine(query, Algorithm::kSmj, MineOptions{.k = 10});
  EXPECT_EQ(fresh.result.guarantee, UpdateGuarantee::kFresh);
  bool found = false;
  for (const std::string& text : fresh.texts) found |= text == "brand new";
  EXPECT_TRUE(found);
}

// --- Concurrency: ingest storm (TSan scope) ----------------------------------

// --- Per-shard disk tier -----------------------------------------------------

using testing::RankedSignature;

TEST(ShardedEngineTest, DiskTierDifferentialAcrossResidentFractions) {
  // Same corpus + same shard count: kNraDisk ranked output must be
  // bitwise identical at every resident budget (0, half, all) and equal
  // to in-memory kNra on the same fleet -- placement moves modeled cost,
  // never contents -- while the per-shard I/O counters shrink toward
  // zero as the budget pins more of each shard's lists.
  ShardedEngineOptions extra;
  extra.disk_backed = true;
  extra.disk_budget_per_shard = 0;
  ShardedEngine sharded =
      BuildSharded(MakeSmallSyntheticCorpus(700), /*num_shards=*/4,
                   /*min_df=*/3, std::move(extra));
  MiningEngine mono = MiningEngine::Build(MakeSmallSyntheticCorpus(700),
                                          EngineOptions(/*min_df=*/3));
  const std::vector<Query> queries = HarvestQueries(mono, 6);
  ASSERT_FALSE(queries.empty());

  // Warm every shard's lists, then size the budget off the largest shard.
  for (const Query& q : queries) {
    (void)sharded.Mine(q, Algorithm::kNraDisk, MineOptions{.k = 1});
  }
  uint64_t max_shard_bytes = 0;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    max_shard_bytes = std::max<uint64_t>(
        max_shard_bytes, sharded.shard(s).word_lists().InMemoryBytes());
  }
  ASSERT_GT(max_shard_bytes, 0u);

  for (const Query& base : queries) {
    for (const QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
      Query query = base;
      query.op = op;
      const MineOptions options{.k = 5};

      sharded.SetDiskBudgetPerShard(0);
      const ShardedMineResult spilled =
          sharded.Mine(query, Algorithm::kNraDisk, options);
      sharded.SetDiskBudgetPerShard(max_shard_bytes / 2);
      const ShardedMineResult half =
          sharded.Mine(query, Algorithm::kNraDisk, options);
      sharded.SetDiskBudgetPerShard(max_shard_bytes);
      const ShardedMineResult resident =
          sharded.Mine(query, Algorithm::kNraDisk, options);
      const ShardedMineResult in_memory =
          sharded.Mine(query, Algorithm::kNra, options);

      EXPECT_EQ(RankedSignature(spilled.result), RankedSignature(half.result));
      EXPECT_EQ(RankedSignature(spilled.result), RankedSignature(resident.result));
      EXPECT_EQ(RankedSignature(spilled.result), RankedSignature(in_memory.result));

      // Per-device counters: one entry per shard, aggregates sum them.
      ASSERT_EQ(spilled.shard_disk_io.size(), sharded.num_shards());
      DiskIoStats summed;
      for (const DiskIoStats& io : spilled.shard_disk_io) summed += io;
      EXPECT_EQ(summed.blocks_read, spilled.result.disk_io.blocks_read);
      EXPECT_EQ(summed.bytes, spilled.result.disk_io.bytes);
      // Fully pinned lists and no scatter-side phrase lookups: the
      // all-resident fleet charges nothing at all.
      EXPECT_EQ(resident.result.disk_io.blocks_read, 0u);
      EXPECT_DOUBLE_EQ(resident.result.disk_ms, 0.0);
      EXPECT_LE(half.result.disk_io.bytes, spilled.result.disk_io.bytes);
      EXPECT_EQ(in_memory.result.disk_io.blocks_read, 0u);
    }
  }
}

TEST(ShardedEngineTest, DiskTierSpillPlacementDeterministicPerShard) {
  // Same corpus + same budget => identical per-shard placement across
  // two independently built fleets (the satellite determinism contract:
  // placement is a pure function of corpus, budget and built lists).
  ShardedEngineOptions extra_a;
  extra_a.disk_backed = true;
  ShardedEngineOptions extra_b;
  extra_b.disk_backed = true;
  ShardedEngine a = BuildSharded(MakeSmallSyntheticCorpus(500),
                                 /*num_shards=*/3, /*min_df=*/3,
                                 std::move(extra_a));
  ShardedEngine b = BuildSharded(MakeSmallSyntheticCorpus(500),
                                 /*num_shards=*/3, /*min_df=*/3,
                                 std::move(extra_b));
  MiningEngine mono = MiningEngine::Build(MakeSmallSyntheticCorpus(500),
                                          EngineOptions(/*min_df=*/3));
  const std::vector<Query> queries = HarvestQueries(mono, 4);
  ASSERT_FALSE(queries.empty());
  for (const Query& q : queries) {
    (void)a.Mine(q, Algorithm::kNraDisk, MineOptions{.k = 1});
    (void)b.Mine(q, Algorithm::kNraDisk, MineOptions{.k = 1});
  }
  for (std::size_t s = 0; s < a.num_shards(); ++s) {
    const uint64_t budget = a.shard(s).word_lists().InMemoryBytes() / 2;
    const auto place_a = DiskResidentLists::ResidentSet(
        a.shard(s).word_lists(), a.shard(s).inverted(), budget);
    const auto place_b = DiskResidentLists::ResidentSet(
        b.shard(s).word_lists(), b.shard(s).inverted(), budget);
    EXPECT_EQ(place_a, place_b) << "shard " << s;
  }
}

TEST(ShardedEngineTest, ConcurrentShardIngestStorm) {
  ShardedEngine sharded =
      BuildSharded(MakeSmallSyntheticCorpus(200), /*num_shards=*/4,
                   /*min_df=*/2);
  const Query query =
      sharded.ParseQuery("topic:0 topic:1", QueryOperator::kOr).value();

  std::atomic<bool> stop{false};
  std::atomic<int> mined{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&sharded, &stop, w] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        UpdateBatch batch;
        UpdateDoc doc;
        doc.tokens = {"storm", "doc", w == 0 ? "alpha" : "beta",
                      std::to_string(i++)};
        batch.inserts.push_back(std::move(doc));
        if (i % 5 == 0) {
          batch.deletes.push_back(static_cast<DocId>(200 + i - 3));
        }
        (void)sharded.ApplyUpdate(batch);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&sharded, &query, &stop, &mined, r] {
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Algorithm algorithm =
            (r + mined.load(std::memory_order_relaxed)) % 2 == 0
                ? Algorithm::kSmj
                : Algorithm::kNra;
        const ShardedMineResult merged =
            sharded.Mine(query, algorithm, MineOptions{.k = 5});
        // Composite epoch sum never moves backwards for a single reader.
        EXPECT_GE(merged.result.epoch, last_epoch);
        last_epoch = merged.result.epoch;
        mined.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread rebuilder([&sharded, &stop] {
    std::size_t s = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      sharded.RebuildShard(s % sharded.num_shards());
      ++s;
      // Back-to-back rebuilds with zero gap are adversarial (every mine
      // would race a structure swap); a short breather models a sane
      // rebuild cadence while still exercising the swap path heavily.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  while (mined.load() < 30) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  for (std::thread& t : readers) t.join();
  rebuilder.join();
  EXPECT_GE(sharded.epoch(), 1u);
}

}  // namespace
}  // namespace phrasemine
