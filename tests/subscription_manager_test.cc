// Unit coverage for the subscription surface: registration validation,
// the bootstrap publish, Poll's blocking drain, drop-oldest notification
// queues, change-kind classification, event-queue overflow degradation,
// the PhraseService wrappers, and the subscribe_* metric rows. The
// equal-to-re-mining proof lives in subscription_differential_test.cc;
// here the assertions are about the API contract around it.

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "subscribe/subscription_manager.h"
#include "test_util.h"
#include "testing/failpoint.h"

namespace phrasemine {
namespace {

/// Churn corpus with score headroom (see subscription_differential_test).
MiningEngine MakeChurnEngine() {
  Corpus corpus;
  corpus.AddTokenized({"alpha", "beta", "pad1"});
  corpus.AddTokenized({"alpha", "beta", "pad2"});
  corpus.AddTokenized({"beta", "gamma", "pad3"});
  corpus.AddTokenized({"beta", "gamma", "pad4"});
  corpus.AddTokenized({"beta", "delta", "pad5"});
  corpus.AddTokenized({"beta", "delta", "pad6"});
  MiningEngine::Options options;
  options.extractor.min_df = 1;
  options.extractor.max_phrase_len = 2;
  return MiningEngine::Build(std::move(corpus), options);
}

UpdateBatch OneDoc(std::vector<std::string> tokens) {
  UpdateBatch batch;
  batch.inserts.push_back(UpdateDoc{std::move(tokens), {}});
  return batch;
}

TEST(SubscriptionManagerTest, SubscribeValidatesRequests) {
  MiningEngine engine = MakeChurnEngine();
  SubscriptionManager manager(&engine);

  SubscriptionRequest no_terms;
  EXPECT_EQ(manager.Subscribe(no_terms).status().code(),
            StatusCode::kInvalidArgument);

  SubscriptionRequest zero_k;
  zero_k.terms = {"beta"};
  zero_k.k = 0;
  EXPECT_EQ(manager.Subscribe(zero_k).status().code(),
            StatusCode::kInvalidArgument);

  SubscriptionRequest unknown;
  unknown.terms = {"no_such_term"};
  EXPECT_FALSE(manager.Subscribe(unknown).ok());

  EXPECT_EQ(manager.num_subscriptions(), 0u);
}

TEST(SubscriptionManagerTest, TruncatedSmjListsAreRefused) {
  // Exactness needs full id-ordered lists; a fractional engine must be
  // rejected up front instead of silently publishing approximations.
  Corpus corpus;
  corpus.AddTokenized({"alpha", "beta"});
  corpus.AddTokenized({"alpha", "beta"});
  MiningEngine::Options options;
  options.extractor.min_df = 1;
  options.default_smj_fraction = 0.5;
  MiningEngine engine = MiningEngine::Build(std::move(corpus), options);
  SubscriptionManager manager(&engine);

  SubscriptionRequest request;
  request.terms = {"beta"};
  EXPECT_EQ(manager.Subscribe(request).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SubscriptionManagerTest, TruncatedRecordsForceRemineNotRescore) {
  // The rescore reads the engine's own id-ordered records. Once they are
  // truncated (the fraction dropped after Subscribe checked it), a batch
  // must fall back to a re-mine instead of rescoring from partial lists.
  MiningEngine engine = MakeChurnEngine();
  MetricsRegistry registry;
  SubscriptionManagerOptions options;
  options.metrics = &registry;
  SubscriptionManager manager(&engine, options);
  SubscriptionRequest request;
  request.terms = {"beta"};
  request.k = 3;
  ASSERT_TRUE(manager.Subscribe(request).ok());
  manager.Flush();

  // The first batch has no predecessor event and re-mines; with full
  // records the next one is maintained incrementally.
  engine.ApplyUpdate(OneDoc({"gamma", "beta", "pad7"}));
  manager.Flush();
  MetricsSnapshot before = registry.Snapshot();
  engine.ApplyUpdate(OneDoc({"gamma", "beta", "pad8"}));
  manager.Flush();
  MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.counter("subscribe_incremental_total"),
            before.counter("subscribe_incremental_total") + 1);
  EXPECT_EQ(after.counter("subscribe_remine_total"),
            before.counter("subscribe_remine_total"));

  // Manager idle after Flush, so the structural mutation is exclusive.
  // The full records fetched above stay exact for their structure
  // version; the rebuild retires them, so the next incremental step must
  // fetch the engine's now-truncated records, refuse them and re-mine.
  engine.SetSmjFraction(0.5);
  engine.Rebuild();
  engine.ApplyUpdate(OneDoc({"delta", "beta", "pad9"}));
  manager.Flush();
  before = registry.Snapshot();
  engine.ApplyUpdate(OneDoc({"delta", "beta", "pad10"}));
  manager.Flush();
  after = registry.Snapshot();
  EXPECT_EQ(after.counter("subscribe_incremental_total"),
            before.counter("subscribe_incremental_total"));
  EXPECT_EQ(after.counter("subscribe_remine_total"),
            before.counter("subscribe_remine_total") + 1);
}

TEST(SubscriptionManagerTest, BootstrapPublishArrivesThroughPoll) {
  MiningEngine engine = MakeChurnEngine();
  MetricsRegistry registry;
  SubscriptionManagerOptions options;
  options.metrics = &registry;
  SubscriptionManager manager(&engine, options);

  SubscriptionRequest request;
  request.terms = {"beta"};
  request.k = 3;
  auto id = manager.Subscribe(request);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(manager.num_subscriptions(), 1u);

  // Blocking Poll: the bootstrap mine runs on the worker; the wait must
  // cover it without an explicit Flush.
  auto updates = manager.Poll(id.value(), 16, /*wait_ms=*/10000.0);
  ASSERT_TRUE(updates.ok());
  ASSERT_EQ(updates.value().size(), 1u);
  const SubscriptionUpdate& boot = updates.value()[0];
  EXPECT_TRUE(boot.initial);
  EXPECT_TRUE(boot.exact);
  EXPECT_EQ(boot.subscription, id.value());
  EXPECT_EQ(boot.topk.size(), 3u);
  // Every entry of the bootstrap delta is an "entered".
  ASSERT_EQ(boot.changes.size(), boot.topk.size());
  for (const TopKChange& change : boot.changes) {
    EXPECT_EQ(change.kind, TopKChangeKind::kEntered);
    EXPECT_EQ(change.old_rank, -1);
  }

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.gauge("subscribe_subscriptions"), 1);
  EXPECT_EQ(snap.counter("subscribe_notifications_total"), 1u);
  // The bootstrap mine is not a fallback; the re-mine counter stays 0.
  EXPECT_EQ(snap.counter("subscribe_remine_total"), 0u);
}

TEST(SubscriptionManagerTest, UnsubscribeStopsDeliveryAndReportsNotFound) {
  MiningEngine engine = MakeChurnEngine();
  SubscriptionManager manager(&engine);
  EXPECT_EQ(manager.Unsubscribe(42).code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Poll(42).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Snapshot(42).status().code(), StatusCode::kNotFound);

  SubscriptionRequest request;
  request.terms = {"beta"};
  auto id = manager.Subscribe(request);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(manager.Unsubscribe(id.value()).ok());
  EXPECT_EQ(manager.num_subscriptions(), 0u);
  EXPECT_EQ(manager.Poll(id.value()).status().code(), StatusCode::kNotFound);
  // Events after the unsubscribe must not resurrect it.
  engine.ApplyUpdate(OneDoc({"gamma", "beta", "pad7"}));
  manager.Flush();
  EXPECT_EQ(manager.Snapshot(id.value()).status().code(),
            StatusCode::kNotFound);
}

TEST(SubscriptionManagerTest, SlowPollersDropOldestNotifications) {
  MiningEngine engine = MakeChurnEngine();
  MetricsRegistry registry;
  SubscriptionManagerOptions options;
  options.queue_capacity = 1;
  options.metrics = &registry;
  SubscriptionManager manager(&engine, options);

  // k = 30 covers every qualifying phrase, so each dilution batch below
  // is guaranteed to move the published state (the diluted term's
  // P(beta|term) leaves the tied 1.0 crowd and sinks within the set).
  SubscriptionRequest request;
  request.terms = {"beta"};
  request.k = 30;
  auto id = manager.Subscribe(request);
  ASSERT_TRUE(id.ok());
  manager.Flush();

  // Three publishes against a capacity-1 queue: only the newest
  // notification survives; the published Snapshot still tracks the head
  // of the stream. The Flush between batches makes the publish count
  // deterministic -- back-to-back events would let the worker's catch-up
  // re-mine cover several batches with one publish.
  engine.ApplyUpdate(OneDoc({"alpha", "pad7"}));
  manager.Flush();
  engine.ApplyUpdate(OneDoc({"gamma", "pad8"}));
  manager.Flush();
  engine.ApplyUpdate(OneDoc({"delta", "pad9"}));
  manager.Flush();

  auto updates = manager.Poll(id.value(), 16);
  ASSERT_TRUE(updates.ok());
  ASSERT_EQ(updates.value().size(), 1u);
  auto snapshot = manager.Snapshot(id.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(updates.value()[0].epoch, snapshot.value().epoch);
  EXPECT_GE(registry.Snapshot().counter("subscribe_dropped_total"), 2u);
}

TEST(SubscriptionManagerTest, ChangeKindsCoverTheWholeEnum) {
  MiningEngine engine = MakeChurnEngine();
  SubscriptionManager manager(&engine);
  // k = 30 covers every qualifying phrase (the churn corpus has ~15), so
  // diluted phrases sink WITHIN the published set instead of dropping out
  // -- the only way to observe kReordered and kRescored deterministically.
  SubscriptionRequest request;
  request.terms = {"beta"};
  request.k = 30;
  auto id = manager.Subscribe(request);
  ASSERT_TRUE(id.ok());
  manager.Flush();

  std::set<TopKChangeKind> seen;
  auto drain = [&] {
    manager.Flush();
    auto updates = manager.Poll(id.value(), 64);
    ASSERT_TRUE(updates.ok());
    for (const SubscriptionUpdate& update : updates.value()) {
      for (const TopKChange& change : update.changes) {
        seen.insert(change.kind);
        if (change.kind == TopKChangeKind::kEntered) {
          EXPECT_EQ(change.old_rank, -1);
          EXPECT_GE(change.new_rank, 0);
        }
        if (change.kind == TopKChangeKind::kLeft) {
          EXPECT_EQ(change.new_rank, -1);
          EXPECT_GE(change.old_rank, 0);
        }
      }
    }
  };
  drain();  // bootstrap: everything kEntered

  // Dilute alpha once: P(beta|alpha) drops to 2/3, alpha sinks from its
  // tie-rank to the bottom of the set -> kReordered.
  engine.ApplyUpdate(OneDoc({"alpha", "padA"}));
  drain();
  // Dilute alpha again: 2/4, already at the bottom -> same rank, new
  // score -> kRescored.
  engine.ApplyUpdate(OneDoc({"alpha", "padB"}));
  drain();
  // Remove both base alpha-beta documents: codf(alpha, beta) hits 0, so
  // alpha (and "alpha beta", "beta pad1", ...) stop qualifying -> kLeft.
  UpdateBatch cut;
  cut.deletes.push_back(0);
  cut.deletes.push_back(1);
  engine.ApplyUpdate(cut);
  drain();
  // Restore one support -> alpha qualifies again -> kEntered (again,
  // post-bootstrap this time).
  engine.ApplyUpdate(OneDoc({"alpha", "beta", "pad1"}));
  drain();

  EXPECT_EQ(seen.size(), 4u)
      << "observed only " << seen.size() << " of 4 change kinds";
  EXPECT_STREQ(TopKChangeKindName(TopKChangeKind::kEntered), "entered");
  EXPECT_STREQ(TopKChangeKindName(TopKChangeKind::kLeft), "left");
  EXPECT_STREQ(TopKChangeKindName(TopKChangeKind::kReordered), "reordered");
  EXPECT_STREQ(TopKChangeKindName(TopKChangeKind::kRescored), "rescored");
}

TEST(SubscriptionManagerTest, EventOverflowDegradesToRemineNotWrongness) {
  // A capacity-1 event queue plus an artificially slow notification
  // channel forces event drops; the contract is graceful degradation:
  // ingest never blocks, the lost-flag re-mines every subscription at the
  // next processed event, and the final state equals a fresh mine.
  MiningEngine engine = MakeChurnEngine();
  MetricsRegistry registry;
  SubscriptionManagerOptions options;
  options.event_capacity = 1;
  options.metrics = &registry;
  SubscriptionManager manager(&engine, options);

  SubscriptionRequest request;
  request.terms = {"beta"};
  request.k = 3;
  auto id = manager.Subscribe(request);
  ASSERT_TRUE(id.ok());
  manager.Flush();

  failpoint::Arm("subscribe.notify", [] {
    failpoint::Action action;
    action.delay_ms = 20.0;
    return action;
  }());
  for (int i = 0; i < 12; ++i) {
    engine.ApplyUpdate(
        OneDoc({i % 2 == 0 ? "gamma" : "delta", "beta", "padZ"}));
  }
  failpoint::DisarmAll();
  // One more batch after the storm: whatever was lost, this event's
  // processing re-mines the subscription to the live state.
  engine.ApplyUpdate(OneDoc({"alpha", "beta", "padY"}));
  manager.Flush();

  EXPECT_GE(registry.Snapshot().counter("subscribe_events_dropped_total"), 1u);
  auto snapshot = manager.Snapshot(id.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot.value().exact);
  Query query = engine.ParseQuery("beta", QueryOperator::kAnd).value();
  MineOptions mo;
  mo.k = request.k;
  MineResult fresh = engine.Mine(query, Algorithm::kSmj, mo);
  ASSERT_EQ(snapshot.value().topk.size(), fresh.phrases.size());
  for (std::size_t i = 0; i < fresh.phrases.size(); ++i) {
    EXPECT_EQ(snapshot.value().topk[i].phrase, fresh.phrases[i].phrase);
    EXPECT_EQ(snapshot.value().topk[i].score, fresh.phrases[i].score);
  }
}

TEST(SubscriptionManagerTest, BatchTraceRecordsIncrementalWork) {
  MiningEngine engine = MakeChurnEngine();
  SubscriptionManagerOptions options;
  options.trace = true;
  SubscriptionManager manager(&engine, options);
  SubscriptionRequest request;
  request.terms = {"beta"};
  auto id = manager.Subscribe(request);
  ASSERT_TRUE(id.ok());
  manager.Flush();

  engine.ApplyUpdate(OneDoc({"gamma", "beta", "padT"}));
  engine.ApplyUpdate(OneDoc({"delta", "beta", "padU"}));
  manager.Flush();

  auto trace = manager.LastBatchTrace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->name, "subscribe.batch");
  bool has_touched = false;
  for (const auto& [name, value] : trace->counters) {
    if (name == "touched") has_touched = value > 0;
  }
  EXPECT_TRUE(has_touched);
}

TEST(SubscriptionServiceTest, WrappersRouteThroughTheLazyManager) {
  MiningEngine engine = MakeChurnEngine();
  PhraseServiceOptions options;
  options.pool.num_threads = 1;
  options.enable_auto_rebuild = false;
  PhraseService service(&engine, options);

  // Before the first Subscribe there is no manager at all.
  EXPECT_EQ(service.subscriptions(), nullptr);
  EXPECT_EQ(service.Unsubscribe(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.PollSubscription(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.SubscriptionSnapshot(1).status().code(),
            StatusCode::kNotFound);

  SubscriptionRequest request;
  request.terms = {"beta"};
  request.k = 3;
  auto id = service.Subscribe(request);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_NE(service.subscriptions(), nullptr);

  auto updates = service.PollSubscription(id.value(), 16, /*wait_ms=*/10000.0);
  ASSERT_TRUE(updates.ok());
  ASSERT_EQ(updates.value().size(), 1u);
  EXPECT_TRUE(updates.value()[0].initial);

  // Ingest through the service front door reaches the manager.
  service.IngestBatch(OneDoc({"gamma", "beta", "padS"}));
  service.subscriptions()->Flush();
  auto snapshot = service.SubscriptionSnapshot(id.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().epoch, 1u);

  // The subscribe_* rows land in the service's own registry.
  MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_EQ(snap.gauge("subscribe_subscriptions"), 1);
  EXPECT_GE(snap.counter("subscribe_batches_total"), 1u);

  EXPECT_TRUE(service.Unsubscribe(id.value()).ok());
}

TEST(SubscriptionServiceTest, ShardedServiceServesSubscriptions) {
  // A fleet-backed service: the lazily created manager must target the
  // fleet, not a single shard.
  Corpus corpus = testing::MakeSmallSyntheticCorpus(120);
  const std::string term =
      corpus.vocab().TermText(corpus.doc(0).tokens[0]);
  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 2;
  sharded_options.engine.extractor.min_df = 5;  // MakeSmallEngine's options
  ShardedEngine sharded =
      ShardedEngine::Build(std::move(corpus), std::move(sharded_options));
  PhraseServiceOptions options;
  options.pool.num_threads = 2;
  options.enable_auto_rebuild = false;
  PhraseService service(&sharded, options);
  SubscriptionRequest request;
  request.terms = {term};
  request.k = 4;
  auto id = service.Subscribe(request);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  auto updates = service.PollSubscription(id.value(), 16, /*wait_ms=*/10000.0);
  ASSERT_TRUE(updates.ok());
  ASSERT_EQ(updates.value().size(), 1u);

  service.IngestBatch(OneDoc({term, term, term}));
  service.subscriptions()->Flush();
  auto snapshot = service.SubscriptionSnapshot(id.value());
  ASSERT_TRUE(snapshot.ok());
  // Composite epoch: exactly one shard absorbed the batch.
  EXPECT_EQ(snapshot.value().epoch, 1u);
  EXPECT_TRUE(snapshot.value().exact);
}

}  // namespace
}  // namespace phrasemine
