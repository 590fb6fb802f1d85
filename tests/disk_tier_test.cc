// Per-shard disk tier: the DiskResidentLists spill policy (pin the
// hottest lists by term df, spill the cold tail), the free-read contract
// of pinned lists, placement determinism, and the planner's disk-aware
// routing over a real disk-backed engine.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/disk_lists.h"
#include "core/engine.h"
#include "index/list_entry.h"
#include "service/planner.h"
#include "shard/sharded_engine.h"
#include "test_util.h"

namespace phrasemine {
namespace {

using testing::MakeSmallEngine;

/// Terms with built word lists on `engine`, covering every term with a
/// positive df (BuildAll keeps the test independent of query harvesting).
std::vector<TermId> BuildAllLists(MiningEngine& engine) {
  std::vector<TermId> terms;
  for (TermId t = 0; t < engine.inverted().num_terms(); ++t) {
    if (engine.inverted().df(t) > 0) terms.push_back(t);
  }
  engine.EnsureWordLists(terms);
  return terms;
}

/// The df-descending (ties: smaller id) hotness order the policy pins by.
std::vector<TermId> HotnessOrder(const MiningEngine& engine,
                                 std::vector<TermId> terms) {
  std::sort(terms.begin(), terms.end(), [&](TermId a, TermId b) {
    const uint32_t da = engine.inverted().df(a);
    const uint32_t db = engine.inverted().df(b);
    if (da != db) return da > db;
    return a < b;
  });
  return terms;
}

/// A two-term OR query over the engine's highest-df terms (the synthetic
/// vocabulary is generated pseudo-words, so queries are built from term
/// ids rather than parsed text).
Query HeavyQuery(const MiningEngine& engine) {
  std::vector<TermId> terms;
  for (TermId t = 0; t < engine.inverted().num_terms(); ++t) {
    if (engine.inverted().df(t) > 0) terms.push_back(t);
  }
  std::sort(terms.begin(), terms.end(), [&](TermId a, TermId b) {
    return engine.inverted().df(a) > engine.inverted().df(b);
  });
  Query query;
  query.op = QueryOperator::kOr;
  query.terms = {terms.at(0), terms.at(1)};
  std::sort(query.terms.begin(), query.terms.end());
  return query;
}

TEST(DiskTierTest, ResidentSetPinsHottestStrictPrefix) {
  MiningEngine engine = MakeSmallEngine();
  const std::vector<TermId> terms = BuildAllLists(engine);
  ASSERT_GT(terms.size(), 4u);

  // Budget 0: everything spills.
  EXPECT_TRUE(DiskResidentLists::ResidentSet(engine.word_lists(),
                                             engine.inverted(), 0)
                  .empty());

  // Budget covering every list: everything pinned.
  const uint64_t all_bytes = engine.word_lists().InMemoryBytes();
  EXPECT_EQ(DiskResidentLists::ResidentSet(engine.word_lists(),
                                           engine.inverted(), all_bytes)
                .size(),
            terms.size());

  // A partial budget pins exactly the strict prefix of the hotness
  // order: walk the order accumulating bytes; pinning must stop at the
  // first list that does not fit and everything after must spill.
  const std::vector<TermId> order = HotnessOrder(engine, terms);
  const uint64_t budget = all_bytes / 3;
  const auto resident = DiskResidentLists::ResidentSet(
      engine.word_lists(), engine.inverted(), budget);
  EXPECT_FALSE(resident.empty());
  EXPECT_LT(resident.size(), terms.size());
  uint64_t used = 0;
  bool stopped = false;
  for (TermId t : order) {
    const uint64_t bytes =
        engine.word_lists().list(t).size() * kListEntryInMemoryBytes;
    if (!stopped && used + bytes <= budget) {
      used += bytes;
      EXPECT_TRUE(resident.contains(t)) << "hot term " << t << " not pinned";
    } else {
      stopped = true;  // cold tail: everything from here on spills
      EXPECT_FALSE(resident.contains(t)) << "cold term " << t << " pinned";
    }
  }
}

TEST(DiskTierTest, PlacementIsDeterministicAcrossIdenticalEngines) {
  MiningEngine a = MakeSmallEngine();
  MiningEngine b = MakeSmallEngine();
  BuildAllLists(a);
  BuildAllLists(b);
  const uint64_t budget = a.word_lists().InMemoryBytes() / 2;
  const auto ra =
      DiskResidentLists::ResidentSet(a.word_lists(), a.inverted(), budget);
  const auto rb =
      DiskResidentLists::ResidentSet(b.word_lists(), b.inverted(), budget);
  EXPECT_EQ(ra, rb);
  EXPECT_FALSE(ra.empty());
}

TEST(DiskTierTest, ResidentReadsChargeNothingSpilledReadsCharge) {
  MiningEngine engine = MakeSmallEngine();
  const std::vector<TermId> terms = BuildAllLists(engine);
  const std::vector<TermId> order = HotnessOrder(engine, terms);
  const TermId hottest = order.front();
  const TermId coldest = order.back();
  ASSERT_GT(engine.word_lists().list(hottest).size(), 0u);
  ASSERT_GT(engine.word_lists().list(coldest).size(), 0u);

  DiskTierOptions options;
  options.resident_budget_bytes =
      engine.word_lists().list(hottest).size() * kListEntryInMemoryBytes;
  DiskResidentLists tier(engine.word_lists(), engine.phrase_file(),
                         engine.inverted(), options);
  ASSERT_TRUE(tier.resident(hottest));
  ASSERT_FALSE(tier.resident(coldest));
  EXPECT_GT(tier.resident_bytes(), 0u);
  EXPECT_GT(tier.spilled_bytes(), 0u);

  tier.ChargeListRead(hottest, 0);
  EXPECT_EQ(tier.device().stats().page_requests, 0u);
  EXPECT_DOUBLE_EQ(tier.device().stats().cost_ms, 0.0);

  tier.ChargeListRead(coldest, 0);
  EXPECT_GT(tier.device().stats().page_requests, 0u);
  EXPECT_GT(tier.device().stats().cost_ms, 0.0);
  EXPECT_EQ(tier.device().stats().bytes_read, kListEntryBytes);
}

TEST(DiskTierTest, BudgetZeroSpillsEveryList) {
  MiningEngine engine = MakeSmallEngine();
  const std::vector<TermId> terms = BuildAllLists(engine);

  DiskResidentLists tier(engine.word_lists(), engine.phrase_file(),
                         engine.inverted(), DiskTierOptions{});
  // Budget 0 pins nothing: every non-empty list gets its own device range.
  std::size_t non_empty = 0;
  uint64_t list_bytes = 0;
  for (TermId t : terms) {
    const std::size_t entries = engine.word_lists().list(t).size();
    if (entries == 0) continue;
    ++non_empty;
    list_bytes += entries * kListEntryBytes;
  }
  ASSERT_GT(non_empty, 0u);
  EXPECT_EQ(tier.num_spilled(), non_empty);
  EXPECT_EQ(tier.spilled_bytes(), list_bytes);
  EXPECT_EQ(tier.num_resident(), 0u);
  EXPECT_EQ(tier.resident_bytes(), 0u);

  // Every read is charged: each first touch of a list is a device fetch.
  uint64_t reads = 0;
  for (TermId t : terms) {
    if (engine.word_lists().list(t).empty()) continue;
    EXPECT_FALSE(tier.resident(t));
    const double cost_before = tier.device().stats().cost_ms;
    tier.ChargeListRead(t, 0);
    ++reads;
    EXPECT_GT(tier.device().stats().cost_ms, cost_before) << "term " << t;
  }
  EXPECT_EQ(tier.device().stats().page_requests, reads);
  EXPECT_EQ(tier.device().stats().bytes_read, reads * kListEntryBytes);
}

TEST(DiskTierTest, EngineResultsIdenticalAcrossBudgets) {
  MiningEngineOptions options;
  options.disk_backed = true;
  options.disk_resident_budget = 0;
  MiningEngine engine = MiningEngine::Build(
      testing::MakeSmallSyntheticCorpus(), options);
  const Query query = HeavyQuery(engine);

  const MineResult on_disk = engine.Mine(query, Algorithm::kNraDisk);
  EXPECT_GT(on_disk.disk_ms, 0.0);
  EXPECT_GT(on_disk.disk_io.blocks_read, 0u);
  EXPECT_GT(on_disk.disk_io.bytes, 0u);
  EXPECT_GE(on_disk.disk_io.blocks_read, on_disk.disk_io.seeks);

  engine.SetDiskResidentBudget(engine.word_lists().InMemoryBytes());
  const MineResult resident = engine.Mine(query, Algorithm::kNraDisk);
  const MineResult in_memory = engine.Mine(query, Algorithm::kNra);

  // Placement moves cost, never contents: bitwise-identical ranking.
  ASSERT_FALSE(on_disk.phrases.empty());
  EXPECT_EQ(testing::RankedSignature(on_disk),
            testing::RankedSignature(resident));
  EXPECT_EQ(testing::RankedSignature(on_disk),
            testing::RankedSignature(in_memory));
  // All-resident charges only the final phrase lookups; the list reads
  // that dominated the budget-0 run are gone.
  EXPECT_LT(resident.disk_ms, on_disk.disk_ms);
  EXPECT_LT(resident.disk_io.blocks_read, on_disk.disk_io.blocks_read);
}

TEST(DiskTierTest, EngineLevelTierSurvivesShardedBuild) {
  // A tier declared only on the embedded engine options must not be
  // silently dropped by ShardedEngine::Build's fleet-level switches
  // (Build merges the two surfaces, set-wins).
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.engine.extractor.min_df = 3;
  options.engine.disk_backed = true;
  options.engine.disk_resident_budget = 0;
  ShardedEngine sharded = ShardedEngine::Build(
      testing::MakeSmallSyntheticCorpus(300), std::move(options));
  EXPECT_TRUE(sharded.options().disk_backed);
  EXPECT_TRUE(sharded.options().engine.disk_backed);

  const Query query = HeavyQuery(sharded.shard(0));
  const ShardedMineResult mined =
      sharded.Mine(query, Algorithm::kNraDisk, MineOptions{.k = 5});
  EXPECT_GT(mined.result.disk_io.blocks_read, 0u);
  EXPECT_GT(mined.result.disk_ms, 0.0);
}

TEST(DiskTierTest, PlannerRoutesDiskBackedEngineToNraDisk) {
  // Identical corpora, one engine disk-backed: the planner must offer
  // kNraDisk (never bare kNra) on the disk-backed engine and kNra on the
  // in-memory one, with placement surfaced in the gathered inputs.
  MiningEngineOptions disk_options;
  disk_options.disk_backed = true;
  disk_options.disk_resident_budget = 0;
  MiningEngine disk_engine = MiningEngine::Build(
      testing::MakeSmallSyntheticCorpus(), disk_options);
  MiningEngine mem_engine =
      MiningEngine::Build(testing::MakeSmallSyntheticCorpus());

  const Query query = HeavyQuery(disk_engine);
  disk_engine.EnsureWordLists(query.terms);
  mem_engine.EnsureWordLists(query.terms);

  CostPlanner disk_planner(&disk_engine);
  CostPlanner mem_planner(&mem_engine);

  const PlannerInputs disk_inputs =
      disk_planner.GatherInputs(query, MineOptions{});
  EXPECT_TRUE(disk_inputs.disk_backed);
  for (const TermPlanStats& t : disk_inputs.terms) {
    EXPECT_TRUE(t.on_disk) << "budget 0 must spill term " << t.term;
    EXPECT_GT(t.disk_blocks, 0u);
  }
  const PlannerInputs mem_inputs =
      mem_planner.GatherInputs(query, MineOptions{});
  EXPECT_FALSE(mem_inputs.disk_backed);
  for (const TermPlanStats& t : mem_inputs.terms) {
    EXPECT_FALSE(t.on_disk);
    EXPECT_EQ(t.disk_blocks, 0u);
  }

  const PlanDecision disk_plan = disk_planner.Plan(query, MineOptions{});
  const PlanDecision mem_plan = mem_planner.Plan(query, MineOptions{});
  for (const auto& [algorithm, cost] : disk_plan.estimated_costs) {
    EXPECT_NE(algorithm, Algorithm::kNra)
        << "disk-backed engines must cost the NRA candidate as kNraDisk";
  }
  for (const auto& [algorithm, cost] : mem_plan.estimated_costs) {
    EXPECT_NE(algorithm, Algorithm::kNraDisk);
  }
  // Pinning everything removes the I/O terms: the kNraDisk candidate's
  // cost collapses to the in-memory kNra cost (same model, new label).
  disk_engine.SetDiskResidentBudget(
      disk_engine.word_lists().InMemoryBytes());
  const PlanDecision pinned_plan = disk_planner.Plan(query, MineOptions{});
  double pinned_nra = -1.0, mem_nra = -1.0, spilled_nra = -1.0;
  for (const auto& [algorithm, cost] : pinned_plan.estimated_costs) {
    if (algorithm == Algorithm::kNraDisk) pinned_nra = cost;
  }
  for (const auto& [algorithm, cost] : mem_plan.estimated_costs) {
    if (algorithm == Algorithm::kNra) mem_nra = cost;
  }
  for (const auto& [algorithm, cost] : disk_plan.estimated_costs) {
    if (algorithm == Algorithm::kNraDisk) spilled_nra = cost;
  }
  ASSERT_GE(pinned_nra, 0.0);
  ASSERT_GE(mem_nra, 0.0);
  ASSERT_GE(spilled_nra, 0.0);
  EXPECT_DOUBLE_EQ(pinned_nra, mem_nra);
  EXPECT_GT(spilled_nra, pinned_nra);
}

}  // namespace
}  // namespace phrasemine
