#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>

#include "gtest/gtest.h"
#include "index/word_lists.h"
#include "phrase/phrase_extractor.h"
#include "test_util.h"
#include "text/synthetic.h"

namespace phrasemine {
namespace {

using testing::MakeTinyCorpus;

struct Fixture {
  Fixture() {
    corpus = MakeTinyCorpus();
    dict = PhraseExtractor({.max_phrase_len = 4, .min_df = 2}).Extract(corpus);
    inverted = InvertedIndex::Build(corpus);
    forward = ForwardIndex::Build(corpus, dict, ForwardStorage::kFull);
  }
  Corpus corpus;
  PhraseDictionary dict;
  InvertedIndex inverted;
  ForwardIndex forward;

  TermId term(const char* w) const { return corpus.vocab().Lookup(w); }
};

TEST(WordScoreListsTest, SortedByScoreThenId) {
  Fixture f;
  WordScoreLists lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  for (TermId t : lists.Terms()) {
    auto list = lists.list(t);
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i - 1].prob == list[i].prob) {
        EXPECT_LT(list[i - 1].phrase, list[i].phrase);
      } else {
        EXPECT_GT(list[i - 1].prob, list[i].prob);
      }
    }
  }
}

TEST(WordScoreListsTest, ProbMatchesEq13) {
  Fixture f;
  const TermId db = f.term("db");
  WordScoreLists lists = WordScoreLists::Build(
      f.inverted, f.forward, f.dict, std::vector<TermId>{db});
  // P(db | "query optimization") = |docs(db) ∩ docs(qo)| / |docs(qo)| = 4/4.
  const PhraseId qo = f.dict.Find(std::vector<TermId>{
      f.term("query"), f.term("optimization")});
  ASSERT_NE(qo, kInvalidPhraseId);
  bool found = false;
  for (const ListEntry& e : lists.list(db)) {
    if (e.phrase == qo) {
      EXPECT_DOUBLE_EQ(e.prob, 1.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // P(db | "the of") = 4/8 = 0.5 -- the stopword phrase is in all docs.
  const PhraseId theof =
      f.dict.Find(std::vector<TermId>{f.term("the"), f.term("of")});
  ASSERT_NE(theof, kInvalidPhraseId);
  for (const ListEntry& e : lists.list(db)) {
    if (e.phrase == theof) {
      EXPECT_DOUBLE_EQ(e.prob, 0.5);
    }
  }
}

TEST(WordScoreListsTest, ZeroScoresOmitted) {
  Fixture f;
  // "kernel" never co-occurs with "query optimization": the phrase must be
  // absent from kernel's list.
  const TermId kernel = f.term("kernel");
  WordScoreLists lists = WordScoreLists::Build(
      f.inverted, f.forward, f.dict, std::vector<TermId>{kernel});
  const PhraseId qo = f.dict.Find(std::vector<TermId>{
      f.term("query"), f.term("optimization")});
  for (const ListEntry& e : lists.list(kernel)) {
    EXPECT_NE(e.phrase, qo);
    EXPECT_GT(e.prob, 0.0);
  }
}

TEST(WordScoreListsTest, ProbsAreValidProbabilities) {
  Fixture f;
  WordScoreLists lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  for (TermId t : lists.Terms()) {
    for (const ListEntry& e : lists.list(t)) {
      EXPECT_GT(e.prob, 0.0);
      EXPECT_LE(e.prob, 1.0);
    }
  }
}

TEST(WordScoreListsTest, PartialPrefix) {
  Fixture f;
  WordScoreLists lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  const TermId the = f.term("the");
  const auto full = lists.list(the);
  ASSERT_GT(full.size(), 4u);
  const auto half = lists.Partial(the, 0.5);
  EXPECT_EQ(half.size(),
            static_cast<std::size_t>(std::ceil(0.5 * full.size())));
  EXPECT_EQ(half.data(), full.data());  // Same underlying prefix.
  EXPECT_EQ(lists.Partial(the, 0.0).size(), 0u);
  EXPECT_EQ(lists.Partial(the, 1.0).size(), full.size());
  EXPECT_EQ(lists.Partial(the, 5.0).size(), full.size());  // clamped
}

TEST(WordScoreListsTest, MissingTermEmpty) {
  Fixture f;
  WordScoreLists lists = WordScoreLists::Build(
      f.inverted, f.forward, f.dict, std::vector<TermId>{f.term("db")});
  EXPECT_FALSE(lists.Has(f.term("kernel")));
  EXPECT_TRUE(lists.list(f.term("kernel")).empty());
}

TEST(WordScoreListsTest, SizeBytesAccounting) {
  Fixture f;
  WordScoreLists lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  EXPECT_EQ(lists.SizeBytes(1.0), lists.TotalEntries() * kListEntryBytes);
  EXPECT_LE(lists.SizeBytes(0.5), lists.SizeBytes(1.0));
  EXPECT_GT(lists.SizeBytes(0.5), 0u);
}

TEST(WordScoreListsTest, PackedVsInMemoryEntrySizes) {
  // The packed figure is the paper's 12 bytes (4-byte id + 8-byte prob);
  // the resident AoS figure is sizeof(ListEntry), padded to 16. The two
  // must never be conflated again (table5_index_sizes reports both).
  EXPECT_EQ(kListEntryBytes, 12u);
  EXPECT_EQ(kListEntryInMemoryBytes, sizeof(ListEntry));
  EXPECT_EQ(kListEntryInMemoryBytes, 16u);
  Fixture f;
  WordScoreLists lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  EXPECT_EQ(lists.InMemoryBytes(1.0),
            lists.TotalEntries() * kListEntryInMemoryBytes);
  EXPECT_GT(lists.InMemoryBytes(1.0), lists.SizeBytes(1.0));
}

TEST(WordScoreListsTest, SerializationRoundTrip) {
  Fixture f;
  WordScoreLists lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  BinaryWriter w;
  lists.Serialize(&w);
  BinaryReader r(w.TakeBuffer());
  auto loaded = WordScoreLists::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_terms(), lists.num_terms());
  for (TermId t : lists.Terms()) {
    auto a = lists.list(t);
    auto b = loaded.value().list(t);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].phrase, b[i].phrase);
      EXPECT_DOUBLE_EQ(a[i].prob, b[i].prob);
    }
  }
}

/// The score-list builder as it stood before the dense-count/radix-sort
/// rewrite: hash-map counting over ForwardIndex::Phrases and a comparison
/// sort on (prob desc, id asc). Frozen here as the oracle the production
/// builder must match bitwise.
std::vector<ListEntry> ReferenceList(const InvertedIndex& inverted,
                                     const ForwardIndex& forward,
                                     const PhraseDictionary& dict,
                                     TermId term) {
  std::unordered_map<PhraseId, uint32_t> counts;
  for (DocId d : inverted.docs(term)) {
    for (PhraseId p : forward.Phrases(d, dict)) ++counts[p];
  }
  std::vector<ListEntry> list;
  for (const auto& [phrase, count] : counts) {
    list.push_back(ListEntry{phrase, static_cast<double>(count) /
                                         dict.df(phrase)});
  }
  std::sort(list.begin(), list.end(),
            [](const ListEntry& a, const ListEntry& b) {
              if (a.prob != b.prob) return a.prob > b.prob;
              return a.phrase < b.phrase;
            });
  return list;
}

/// Same phrases in the same order with the same prob bits.
void ExpectBitwiseEqual(std::span<const ListEntry> want,
                        std::span<const ListEntry> got,
                        const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].phrase, got[i].phrase) << label << " rank " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(want[i].prob),
              std::bit_cast<uint64_t>(got[i].prob))
        << label << " rank " << i;
  }
}

/// A corpus, the three structures the builder reads, and the reference
/// list of every vocabulary term.
struct Case {
  Case(Corpus c, PhraseExtractorOptions extractor) : corpus(std::move(c)) {
    dict = PhraseExtractor(extractor).Extract(corpus);
    inverted = InvertedIndex::Build(corpus);
    forward = ForwardIndex::Build(corpus, dict, ForwardStorage::kFull);
    for (TermId t = 0; t < corpus.vocab().size(); ++t) {
      want.push_back(ReferenceList(inverted, forward, dict, t));
    }
  }
  Corpus corpus;
  PhraseDictionary dict;
  InvertedIndex inverted;
  ForwardIndex forward;
  std::vector<std::vector<ListEntry>> want;
};

/// 300 ReutersLike documents, built once and shared by the tests.
const Case& ReutersLike300() {
  static const Case c = [] {
    SyntheticCorpusOptions options = SyntheticCorpusGenerator::ReutersLike();
    options.num_docs = 300;
    return Case(SyntheticCorpusGenerator(options).Generate(),
                {.max_phrase_len = 4, .min_df = 2});
  }();
  return c;
}

/// BuildOne against the reference, for every vocabulary term.
void ExpectBuildOneMatchesReference(const Case& c, const std::string& label) {
  for (TermId t = 0; t < c.want.size(); ++t) {
    ExpectBitwiseEqual(
        c.want[t], *WordScoreLists::BuildOne(c.inverted, c.forward, c.dict, t),
        label + " BuildOne term " + std::to_string(t));
  }
}

/// BuildOne, Build and BuildAll against the reference, for every
/// vocabulary term (BuildAll skips the terms that occur in no document).
void ExpectBuildersMatchReference(const Case& c, const std::string& label) {
  ExpectBuildOneMatchesReference(c, label);
  std::vector<TermId> terms(c.want.size());
  std::iota(terms.begin(), terms.end(), TermId{0});
  const WordScoreLists some =
      WordScoreLists::Build(c.inverted, c.forward, c.dict, terms);
  const WordScoreLists all =
      WordScoreLists::BuildAll(c.inverted, c.forward, c.dict);
  for (TermId t : terms) {
    const std::string at = label + " term " + std::to_string(t);
    ASSERT_TRUE(some.Has(t)) << at;
    ExpectBitwiseEqual(c.want[t], some.list(t), at + " Build");
    if (c.inverted.df(t) == 0) {
      EXPECT_FALSE(all.Has(t)) << at;
    } else {
      ASSERT_TRUE(all.Has(t)) << at;
      ExpectBitwiseEqual(c.want[t], all.list(t), at + " BuildAll");
    }
  }
}

TEST(WordScoreListsBuilderTest, MatchesReferenceOnEveryReutersLikeTerm) {
  const Case& c = ReutersLike300();
  ASSERT_GT(c.dict.size(), 1000u);
  ExpectBuildersMatchReference(c, "reuters-like");
}

TEST(WordScoreListsBuilderTest, EqualProbsFromDifferentCountsTieById) {
  // Unigram phrases only. For term "a": P(a|x) = 1/2 and P(a|y) = 2/4 are
  // the same double from different (count, df) pairs, as are P(a|u) = 1/3
  // and P(a|v) = 2/6; the ties must break by ascending phrase id. "solo"
  // occurs once, so its only document holds no phrase (empty list), and
  // "ghost" is in the vocabulary but in no document (df 0).
  Corpus corpus;
  corpus.AddTokenized({"y", "v", "a", "x", "u"});
  corpus.AddTokenized({"a", "y", "v"});
  corpus.AddTokenized({"x", "u"});
  corpus.AddTokenized({"y", "u", "v"});
  corpus.AddTokenized({"y", "v"});
  corpus.AddTokenized({"v"});
  corpus.AddTokenized({"v"});
  corpus.AddTokenized({"solo"});
  corpus.vocab().Intern("ghost");
  const Case x(std::move(corpus), {.max_phrase_len = 1, .min_df = 2});
  ExpectBuildersMatchReference(x, "hand-made");

  auto phrase = [&](const char* w) {
    return x.dict.Unigram(x.corpus.vocab().Lookup(w));
  };
  const SharedWordList a = WordScoreLists::BuildOne(
      x.inverted, x.forward, x.dict, x.corpus.vocab().Lookup("a"));
  std::vector<PhraseId> order;
  for (const ListEntry& e : *a) order.push_back(e.phrase);
  // P = 1 (a), 1/2 (x, y), 1/3 (u, v), each tie by ascending id.
  std::vector<PhraseId> half = {phrase("x"), phrase("y")};
  std::vector<PhraseId> third = {phrase("u"), phrase("v")};
  std::sort(half.begin(), half.end());
  std::sort(third.begin(), third.end());
  EXPECT_EQ(order, (std::vector<PhraseId>{phrase("a"), half[0], half[1],
                                          third[0], third[1]}));
  EXPECT_EQ((*a)[1].prob, (*a)[2].prob);
  EXPECT_EQ((*a)[3].prob, (*a)[4].prob);
  EXPECT_NE(x.dict.df((*a)[1].phrase), x.dict.df((*a)[2].phrase));
  EXPECT_NE(x.dict.df((*a)[3].phrase), x.dict.df((*a)[4].phrase));

  EXPECT_TRUE(WordScoreLists::BuildOne(x.inverted, x.forward, x.dict,
                                       x.corpus.vocab().Lookup("solo"))
                  ->empty());
  const TermId ghost = x.corpus.vocab().Lookup("ghost");
  EXPECT_EQ(x.inverted.df(ghost), 0u);
  EXPECT_TRUE(
      WordScoreLists::BuildOne(x.inverted, x.forward, x.dict, ghost)->empty());
}

TEST(WordScoreListsBuilderTest, ScratchReusedAcrossDictionarySizes) {
  // The builder's per-thread count array is sized by the largest
  // dictionary it has seen and must be all-zero again after every build.
  // A fresh thread starts with empty scratch: large grows it, small reuses
  // a prefix, large again reuses all of it.
  const Case& large = ReutersLike300();
  const Case small(testing::MakeTinyCorpus(),
                   {.max_phrase_len = 4, .min_df = 2});
  ASSERT_GT(large.dict.size(), small.dict.size());
  std::thread([&] {
    ExpectBuildOneMatchesReference(large, "large");
    ExpectBuildOneMatchesReference(small, "small");
    ExpectBuildOneMatchesReference(large, "large again");
  }).join();
}

TEST(WordIdOrderedListsTest, OrderedById) {
  Fixture f;
  WordScoreLists score_lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  WordIdOrderedLists id_lists = WordIdOrderedLists::Build(score_lists, 1.0);
  for (TermId t : score_lists.Terms()) {
    auto list = id_lists.list(t);
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_LT(list[i - 1].phrase, list[i].phrase);
    }
    EXPECT_EQ(list.size(), score_lists.list(t).size());
  }
}

TEST(WordIdOrderedListsTest, FractionTruncatesTopScores) {
  Fixture f;
  WordScoreLists score_lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  WordIdOrderedLists id_lists = WordIdOrderedLists::Build(score_lists, 0.3);
  EXPECT_DOUBLE_EQ(id_lists.fraction(), 0.3);
  for (TermId t : score_lists.Terms()) {
    const auto prefix = score_lists.Partial(t, 0.3);
    const auto list = id_lists.list(t);
    ASSERT_EQ(list.size(), prefix.size());
    // Same multiset of entries, different order.
    std::vector<PhraseId> a, b;
    for (const auto& e : prefix) a.push_back(e.phrase);
    for (const auto& e : list) b.push_back(e.phrase);
    std::sort(a.begin(), a.end());
    EXPECT_EQ(a, b);
  }
  EXPECT_LE(id_lists.TotalEntries(), score_lists.TotalEntries());
}

}  // namespace
}  // namespace phrasemine
