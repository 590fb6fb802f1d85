#include "service/service.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/stopwatch.h"

namespace phrasemine {

namespace {

/// Lock shards of the result cache.
constexpr std::size_t kCacheShards = 8;
/// Entries the slow-query log retains (oldest evicted first).
constexpr std::size_t kSlowQueryLogCapacity = 64;

/// Approximate bytes a cached result pins in memory.
std::size_t ResultCharge(const std::string& key,
                         const PhraseService::CachedResult& cached) {
  std::size_t bytes = key.size() + sizeof(PhraseService::CachedResult) +
                      cached.result.phrases.size() * sizeof(MinedPhrase) +
                      cached.result.shard_epochs.size() * sizeof(uint64_t) +
                      64;
  for (const std::string& text : cached.texts) bytes += text.size() + 16;
  return bytes;
}

/// Latency sample in whole microseconds (the unit service_latency_us
/// records in); sub-microsecond samples land in the histogram's first
/// bucket rather than vanishing.
uint64_t LatencyMicros(double latency_ms) {
  return static_cast<uint64_t>(std::max(1.0, latency_ms * 1000.0 + 0.5));
}

/// Injects the service's registry into the pool options (the pool then
/// publishes pool_* metrics alongside the service's own).
ThreadPoolOptions PoolOptionsWith(ThreadPoolOptions options,
                                  MetricsRegistry* registry) {
  options.registry = registry;
  return options;
}

}  // namespace

std::string ServiceStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "queries=%llu (planned=%llu forced=%llu) p50=%.3fms "
                "p95=%.3fms",
                static_cast<unsigned long long>(queries),
                static_cast<unsigned long long>(planned),
                static_cast<unsigned long long>(forced), p50_latency_ms,
                p95_latency_ms);
  std::string out = buf;
  std::snprintf(buf, sizeof(buf), " p99=%.3fms p999=%.3fms", p99_latency_ms,
                p999_latency_ms);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\n  updates: epoch=%llu ingests=%llu rebuilds=%llu "
                "pending=%zu delta=%.1f%%",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(ingests),
                static_cast<unsigned long long>(rebuilds),
                update.pending_updates, 100.0 * update.delta_fraction);
  out += buf;
  if (shed > 0 || deadline_exceeded > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\n  robustness: shed=%llu deadline_exceeded=%llu",
                  static_cast<unsigned long long>(shed),
                  static_cast<unsigned long long>(deadline_exceeded));
    out += buf;
  }
  if (placement_refreshes > 0) {
    std::snprintf(buf, sizeof(buf), " placement_refreshes=%llu",
                  static_cast<unsigned long long>(placement_refreshes));
    out += buf;
  }
  out += "\n  per-algorithm:";
  for (std::size_t i = 0; i < per_algorithm.size(); ++i) {
    if (per_algorithm[i] == 0) continue;
    std::snprintf(buf, sizeof(buf), " %s=%llu",
                  AlgorithmName(static_cast<Algorithm>(i)),
                  static_cast<unsigned long long>(per_algorithm[i]));
    out += buf;
  }
  if (disk_io.blocks_read > 0 || disk_io.bytes > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\n  disk tier: blocks=%llu seeks=%llu bytes=%llu",
                  static_cast<unsigned long long>(disk_io.blocks_read),
                  static_cast<unsigned long long>(disk_io.seeks),
                  static_cast<unsigned long long>(disk_io.bytes));
    out += buf;
  }
  out += "\n  result cache: " + FormatCacheStats(result_cache);
  out += "\n  word-list cache: " + FormatCacheStats(word_list_cache);
  std::snprintf(buf, sizeof(buf),
                "\n  pool: submitted=%llu executed=%llu rejected=%llu "
                "peak_queue=%zu",
                static_cast<unsigned long long>(pool.submitted),
                static_cast<unsigned long long>(pool.executed),
                static_cast<unsigned long long>(pool.rejected),
                pool.peak_queue_depth);
  out += buf;
  return out;
}

PhraseService::PhraseService(MiningEngine* engine,
                             PhraseServiceOptions options)
    : engine_(engine),
      options_(std::move(options)),
      planner_(std::in_place, engine, options_.planner),
      result_cache_(kCacheShards, options_.result_cache_bytes, &registry_,
                    "result_cache"),
      pool_(PoolOptionsWith(options_.pool, &registry_)) {
  InitMetrics();
}

PhraseService::PhraseService(ShardedEngine* sharded,
                             PhraseServiceOptions options)
    : sharded_(sharded),
      options_(std::move(options)),
      result_cache_(kCacheShards, options_.result_cache_bytes, &registry_,
                    "result_cache"),
      pool_(PoolOptionsWith(options_.pool, &registry_)) {
  InitMetrics();
}

void PhraseService::InitMetrics() {
  queries_total_ = registry_.GetCounter("service_queries_total");
  planned_total_ = registry_.GetCounter("service_planned_total");
  forced_total_ = registry_.GetCounter("service_forced_total");
  ingests_total_ = registry_.GetCounter("service_ingests_total");
  rebuilds_total_ = registry_.GetCounter("service_rebuilds_total");
  slow_queries_total_ = registry_.GetCounter("service_slow_queries_total");
  placement_refreshes_total_ =
      registry_.GetCounter("service_placement_refreshes_total");
  shed_total_ = registry_.GetCounter("service_shed_total");
  deadline_exceeded_total_ =
      registry_.GetCounter("service_deadline_exceeded_total");
  admission_depth_ = registry_.GetGauge("service_admission_queue_depth");
  for (std::size_t i = 0; i < algorithm_total_.size(); ++i) {
    algorithm_total_[i] = registry_.GetCounter(
        std::string("service_executions_total{algorithm=\"") +
        AlgorithmName(static_cast<Algorithm>(i)) + "\"}");
  }
  disk_blocks_total_ = registry_.GetCounter("disk_blocks_total");
  disk_seeks_total_ = registry_.GetCounter("disk_seeks_total");
  disk_bytes_total_ = registry_.GetCounter("disk_bytes_total");
  exchange_pruned_total_ =
      registry_.GetCounter("exchange_candidates_pruned_total");
  fill_slots_total_ = registry_.GetCounter("exchange_fill_slots_total");
  latency_us_ = registry_.GetHistogram("service_latency_us");
  if (sharded_ != nullptr) {
    const std::size_t n = sharded_->num_shards();
    shard_disk_blocks_.reserve(n);
    shard_disk_seeks_.reserve(n);
    shard_disk_bytes_.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
      shard_disk_blocks_.push_back(
          registry_.GetCounter("shard_disk_blocks_total" + label));
      shard_disk_seeks_.push_back(
          registry_.GetCounter("shard_disk_seeks_total" + label));
      shard_disk_bytes_.push_back(
          registry_.GetCounter("shard_disk_bytes_total" + label));
    }
  }
}

PhraseService::~PhraseService() { Shutdown(); }

void PhraseService::Shutdown() { pool_.Shutdown(); }

std::future<ServiceReply> PhraseService::Submit(ServiceRequest request) {
  auto state = std::make_shared<std::promise<ServiceReply>>();
  std::future<ServiceReply> future = state->get_future();
  // Materialize the deadline at submit time so queue wait counts against
  // it -- a DeadlineExceeded reply then reflects user-perceived time, not
  // just execution time.
  if (request.cancel == nullptr && request.deadline_ms > 0.0) {
    request.cancel = std::make_shared<CancelToken>(
        CancelToken::AfterMillis(request.deadline_ms));
  }
  if (Status shed = AdmissionCheck(request); !shed.ok()) {
    shed_total_->Increment();
    ServiceReply reply;
    reply.status = std::move(shed);
    state->set_value(std::move(reply));
    return future;
  }
  const bool accepted = pool_.Submit([this, state, request] {
    try {
      state->set_value(Execute(request));
    } catch (...) {
      state->set_exception(std::current_exception());
    }
  });
  if (!accepted) {
    // The pool's contract: false means the task will NEVER run, so the
    // promise is ours to resolve -- with a typed error, not inline
    // execution (a shut-down service stops doing work). shutting_down()
    // is racy by design; the worst case is a rejection storm during
    // shutdown reporting Unavailable, which is still a typed refusal.
    shed_total_->Increment();
    ServiceReply reply;
    reply.status = pool_.shutting_down()
                       ? Status::Unavailable("service is shut down")
                       : Status::ResourceExhausted(
                             "thread pool rejected the submission");
    state->set_value(std::move(reply));
  }
  return future;
}

std::vector<std::future<ServiceReply>> PhraseService::SubmitBatch(
    std::vector<ServiceRequest> requests) {
  std::vector<std::future<ServiceReply>> futures;
  futures.reserve(requests.size());
  for (ServiceRequest& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  return futures;
}

ServiceReply PhraseService::MineSync(const ServiceRequest& request) {
  // Same deadline materialization as Submit, minus admission control (the
  // caller runs on their own thread; there is no queue to shed from).
  if (request.cancel == nullptr && request.deadline_ms > 0.0) {
    ServiceRequest timed = request;
    timed.cancel = std::make_shared<CancelToken>(
        CancelToken::AfterMillis(request.deadline_ms));
    return Execute(timed);
  }
  return Execute(request);
}

Status PhraseService::AdmissionCheck(const ServiceRequest& request) {
  const AdmissionOptions& adm = options_.admission;
  if (adm.max_queue_depth == 0) return Status::OK();
  const std::size_t depth = pool_.queue_depth();
  // Sampled at every gate decision; the gauge's Max() is the high-water
  // depth the shed decisions actually saw.
  admission_depth_->Set(static_cast<int64_t>(depth));
  if (depth >= adm.max_queue_depth) {
    return Status::ResourceExhausted(
        "admission queue full (depth " + std::to_string(depth) +
        " >= bound " + std::to_string(adm.max_queue_depth) + ")");
  }
  if (request.cancel == nullptr || !request.cancel->has_deadline()) {
    return Status::OK();
  }
  const double remaining = request.cancel->remaining_ms();
  if (remaining <= 0.0) {
    return Status::ResourceExhausted("deadline already expired at admission");
  }
  const double ewma_ms =
      static_cast<double>(ewma_latency_us_.load(std::memory_order_relaxed)) /
      1000.0;
  if (ewma_ms <= 0.0) return Status::OK();  // no latency signal yet: admit
  // The EWMA prices both the queued tasks ahead and this request itself.
  const double wait_ms = static_cast<double>(depth) * ewma_ms /
                         static_cast<double>(pool_.num_threads());
  if (wait_ms + ewma_ms > remaining) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "hopeless under deadline: projected %.1fms wait + %.1fms "
                  "execute > %.1fms remaining",
                  wait_ms, ewma_ms, remaining);
    return Status::ResourceExhausted(buf);
  }
  return Status::OK();
}

Status PhraseService::ValidateRequest(const Query& canonical,
                                      const MineOptions& options) {
  if (canonical.terms.empty()) {
    return Status::InvalidArgument("query has no terms");
  }
  if (options.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  return Status::OK();
}

ServiceReply PhraseService::Execute(const ServiceRequest& request) {
  StopWatch watch;
  ServiceReply reply;
  // The request's span tree hangs off the reply, never the cached result;
  // every layer below holds a TraceSpan* that is null when tracing is off
  // (the null-safe helpers then do nothing -- no allocations).
  if (request.options.trace) {
    reply.trace = std::make_shared<TraceSpan>();
    reply.trace->name = "query";
  }
  TraceSpan* troot = reply.trace.get();
  // Stamps the reply's latency and the trace root's wall time.
  auto finish = [&] {
    reply.latency_ms = watch.ElapsedMillis();
    if (troot != nullptr) troot->wall_ms = reply.latency_ms;
  };
  const Query canonical = CanonicalizeQuery(request.query);
  if (Status invalid = ValidateRequest(canonical, request.options);
      !invalid.ok()) {
    reply.status = std::move(invalid);
    finish();
    return reply;
  }
  // Thread the request's token into the mine options every layer below
  // receives (on a fleet, one shared token cancels every shard leg); the
  // cache key serializer ignores the pointer, so deadline and no-deadline
  // spellings of a query share cache entries.
  MineOptions mine_options = request.options;
  if (request.cancel != nullptr) mine_options.cancel = request.cancel.get();
  // Caller-supplied delta overlays are external mutable state and never
  // cached; the engines' own overlays are immutable per epoch, so their
  // results cache fine under the epoch-stamped key. A fleet applies its
  // own per-shard overlays (and would refuse an external one), so it
  // drops the caller's and says so in the plan.
  const bool caller_delta = mine_options.delta != nullptr;
  if (sharded_ != nullptr) mine_options.delta = nullptr;
  if (CancelExpired(mine_options.cancel)) {
    deadline_exceeded_total_->Increment();
    reply.status =
        Status::DeadlineExceeded("deadline expired before execution");
    finish();
    return reply;
  }
  CountTermQueries(canonical);

  // One freshness snapshot per request, fetched before planning so a
  // racing Ingest can only move this request to a *newer* epoch. A single
  // engine's update snapshot: the epoch keys the result cache and the
  // overlay feeds the planner (the engine's mine takes its own snapshot
  // under its structure lock, so a cached result may be fresher than its
  // key, never staler). A fleet's composite epoch vector: the full vector
  // keys the result cache, so an ingest to any shard strands that shard's
  // stale entries by unreachability.
  EpochDelta snap;
  std::vector<uint64_t> shard_epochs;
  if (sharded_ != nullptr) {
    shard_epochs = sharded_->epochs();
  } else {
    snap = engine_->delta_snapshot();
  }

  {
    TraceSpan* plan_span = AddSpan(troot, "plan");
    SpanTimer plan_timer(plan_span);
    if (request.algorithm.has_value()) {
      reply.plan.algorithm = *request.algorithm;
      reply.plan.op = canonical.op;
      reply.plan.k = mine_options.k;
      reply.plan.reason = "forced by caller";
    } else if (sharded_ != nullptr) {
      // Per-shard inputs are gathered by the sharded engine under its
      // fleet lock -- the service must never cache per-shard planners,
      // which would dangle across a dictionary refresh.
      reply.plan = CostPlanner::PlanAcrossShards(
          sharded_->GatherPlannerInputs(canonical, mine_options),
          options_.planner);
    } else {
      reply.plan = planner_->Plan(canonical, mine_options, snap);
    }
    if (sharded_ != nullptr && caller_delta) {
      reply.plan.reason +=
          " (caller delta ignored: sharded engines apply per-shard overlays)";
    }
    plan_timer.Stop();
    SetDetail(plan_span, reply.plan.ToString());
  }
  const Algorithm algorithm = reply.plan.algorithm;

  const bool cacheable = options_.enable_result_cache && !caller_delta;
  std::string key;
  if (cacheable) {
    // The engine's SMJ construction fraction keys SMJ results (fleet
    // shards are pinned to full lists).
    key = ResultCacheKey(canonical, algorithm, mine_options,
                         sharded_ != nullptr ? 1.0 : engine_->smj_fraction(),
                         snap.epoch, shard_epochs);
    TraceSpan* cache_span = AddSpan(troot, "cache_lookup");
    SpanTimer cache_timer(cache_span);
    auto hit = result_cache_.Get(key);
    cache_timer.Stop();
    AddCounter(cache_span, "hit", hit.has_value() ? 1.0 : 0.0);
    if (hit) {
      reply.result = (*hit)->result;
      reply.phrase_texts = (*hit)->texts;
      reply.epoch = reply.result.epoch;
      reply.result_cache_hit = true;
      finish();
      RecordQuery(algorithm, request.algorithm.has_value(),
                  /*executed=*/false, reply.latency_ms);
      MaybeLogSlowQuery(canonical, algorithm, reply);
      return reply;
    }
  }

  if (sharded_ != nullptr) {
    ShardedMineResult mined =
        sharded_->Mine(canonical, algorithm, mine_options);
    reply.result = std::move(mined.result);
    reply.phrase_texts = std::move(mined.texts);
    // Fleet-level registry counters: threshold-exchange effectiveness plus
    // the per-shard disk-tier split (the aggregate disk counters are
    // accumulated by RecordQuery below).
    exchange_pruned_total_->Add(reply.result.candidates_pruned);
    fill_slots_total_->Add(mined.fill_slots);
    for (std::size_t s = 0;
         s < mined.shard_disk_io.size() && s < shard_disk_blocks_.size();
         ++s) {
      const DiskIoStats& io = mined.shard_disk_io[s];
      if (io.blocks_read == 0 && io.bytes == 0) continue;
      shard_disk_blocks_[s]->Add(io.blocks_read);
      shard_disk_seeks_[s]->Add(io.seeks);
      shard_disk_bytes_[s]->Add(io.bytes);
    }
  } else {
    // The engine stamps epoch and guarantee from the snapshot it mined
    // under, which is never older than `snap`. A caller-supplied overlay
    // is external state the engine knows nothing about -- its results
    // keep epoch 0, matching the engine's own contract.
    reply.result = engine_->Mine(canonical, algorithm, mine_options);
  }
  reply.epoch = reply.result.epoch;
  // A non-OK mine (deadline fired mid-merge, disk tier latched an error)
  // surfaces on the reply; the partial result is accounting, not a
  // ranking, and must never be cached.
  reply.status = reply.result.status;
  if (reply.status.code() == StatusCode::kDeadlineExceeded) {
    deadline_exceeded_total_->Increment();
  }
  // Re-root the mine's trace under the request span and strip it from the
  // result: the result may be cached below, and a cached trace would
  // replay a stale execution story on every hit.
  if (troot != nullptr && reply.result.trace != nullptr) {
    troot->children.push_back(std::move(reply.result.trace));
  }
  reply.result.trace.reset();
  if (cacheable && reply.status.ok()) {
    auto shared = std::make_shared<const CachedResult>(
        CachedResult{reply.result, reply.phrase_texts});
    result_cache_.Put(key, shared, ResultCharge(key, *shared));
  }
  finish();
  RecordQuery(algorithm, request.algorithm.has_value(), /*executed=*/true,
              reply.latency_ms, reply.result.disk_io);
  MaybeLogSlowQuery(canonical, algorithm, reply);
  return reply;
}

UpdateStats PhraseService::Ingest(UpdateDoc doc) {
  UpdateBatch batch;
  batch.inserts.push_back(std::move(doc));
  return IngestBatch(batch);
}

UpdateStats PhraseService::IngestBatch(const UpdateBatch& batch) {
  if (sharded_ != nullptr) {
    ShardedUpdateStats stats = sharded_->ApplyUpdate(batch);
    ingests_total_->Increment();
    if (stats.total.rebuild_recommended && options_.enable_auto_rebuild) {
      MaybeScheduleRebuild(std::move(stats.rebuild_recommended));
    }
    return stats.total;
  }
  const UpdateStats stats = engine_->ApplyUpdate(batch);
  ingests_total_->Increment();
  if (stats.rebuild_recommended && options_.enable_auto_rebuild) {
    MaybeScheduleRebuild();
  }
  return stats;
}

Result<uint64_t> PhraseService::Subscribe(const SubscriptionRequest& request) {
  std::scoped_lock lock(subscriptions_mu_);
  if (subscriptions_ == nullptr) {
    SubscriptionManagerOptions opts = options_.subscriptions;
    opts.metrics = &registry_;  // subscribe_* metrics live with service_*
    subscriptions_ =
        sharded_ != nullptr
            ? std::make_unique<SubscriptionManager>(sharded_, opts)
            : std::make_unique<SubscriptionManager>(engine_, opts);
    subscriptions_ptr_.store(subscriptions_.get(), std::memory_order_release);
  }
  return subscriptions_->Subscribe(request);
}

Status PhraseService::Unsubscribe(uint64_t subscription) {
  SubscriptionManager* manager = subscriptions();
  if (manager == nullptr) {
    return Status::NotFound("unknown subscription " +
                            std::to_string(subscription));
  }
  return manager->Unsubscribe(subscription);
}

Result<std::vector<SubscriptionUpdate>> PhraseService::PollSubscription(
    uint64_t subscription, std::size_t max_updates, double wait_ms) {
  SubscriptionManager* manager = subscriptions();
  if (manager == nullptr) {
    return Status::NotFound("unknown subscription " +
                            std::to_string(subscription));
  }
  return manager->Poll(subscription, max_updates, wait_ms);
}

Result<SubscriptionState> PhraseService::SubscriptionSnapshot(
    uint64_t subscription) const {
  SubscriptionManager* manager = subscriptions();
  if (manager == nullptr) {
    return Status::NotFound("unknown subscription " +
                            std::to_string(subscription));
  }
  return manager->Snapshot(subscription);
}

void PhraseService::MaybeScheduleRebuild(std::vector<uint8_t> shard_flags) {
  if (rebuild_inflight_.exchange(true)) return;
  auto rebuild = [this, flags = std::move(shard_flags)] {
    if (sharded_ != nullptr) {
      // Only the shards that crossed their threshold rebuild; each one
      // counts as one completed rebuild (that is the blast-radius story:
      // queries lose at most one shard's freshness at a time).
      for (std::size_t s = 0; s < flags.size(); ++s) {
        if (!flags[s]) continue;
        sharded_->RebuildShard(s);
        rebuilds_total_->Increment();
      }
    } else {
      engine_->Rebuild();
      rebuilds_total_->Increment();
    }
    rebuild_inflight_.store(false);
  };
  // Pool shut down: rebuild inline so the recommendation is not lost.
  if (!pool_.Submit(rebuild)) rebuild();
}

void PhraseService::CountTermQueries(const Query& canonical) {
  {
    // The handle map is tiny (distinct queried terms) and the critical
    // section is pointer lookups plus relaxed atomic adds; GetCounter is
    // find-or-create, so every term keeps one stable registry counter
    // under the labels-in-name convention.
    std::scoped_lock lock(term_counts_mu_);
    for (TermId t : canonical.terms) {
      Counter*& counter = term_counters_[t];
      if (counter == nullptr) {
        counter = registry_.GetCounter("service_term_queries_total{term=\"" +
                                       std::to_string(t) + "\"}");
      }
      counter->Increment();
    }
  }
  const std::size_t interval = options_.placement_refresh_interval;
  if (interval == 0) return;
  if (queries_since_refresh_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      interval) {
    // Benign race: two threads crossing the boundary together both reset
    // and both refresh -- the second install sees an empty window and
    // keeps the placement, so the cadence never double-moves the tier.
    queries_since_refresh_.store(0, std::memory_order_relaxed);
    RefreshPlacement();
  }
}

bool PhraseService::RefreshPlacement() {
  auto observed = std::make_shared<TermPopularity>();
  {
    std::scoped_lock lock(term_counts_mu_);
    for (const auto& [term, counter] : term_counters_) {
      // Window counts: only demand since the previous refresh moves the
      // placement, so the tier tracks hot-set drift instead of being
      // anchored by stale cumulative history.
      const uint64_t total = counter->Value();
      const uint64_t installed = installed_counts_[term];
      if (total > installed) (*observed)[term] = total - installed;
    }
    if (observed->empty()) return false;  // no new traffic: keep placement
    for (const auto& [term, delta] : *observed) {
      installed_counts_[term] += delta;
    }
  }
  if (sharded_ != nullptr) {
    sharded_->SetTermPopularity(std::move(observed));
  } else {
    engine_->SetTermPopularity(std::move(observed));
  }
  placement_refreshes_total_->Increment();
  return true;
}

void PhraseService::RecordQuery(Algorithm algorithm, bool forced,
                                bool executed, double latency_ms,
                                const DiskIoStats& disk_io) {
  // Registry handles only: each update is a relaxed striped-atomic add,
  // so concurrent queries never serialize on a stats mutex here.
  queries_total_->Increment();
  (forced ? forced_total_ : planned_total_)->Increment();
  if (executed) {
    // EWMA of executed latency (alpha 1/8) for the admission deadline gate;
    // the load/store race can drop an update, never corrupt the value.
    const uint64_t sample = LatencyMicros(latency_ms);
    const uint64_t old = ewma_latency_us_.load(std::memory_order_relaxed);
    ewma_latency_us_.store(old == 0 ? sample : (old * 7 + sample) / 8,
                           std::memory_order_relaxed);
    const auto index = static_cast<std::size_t>(algorithm);
    if (index < algorithm_total_.size()) algorithm_total_[index]->Increment();
    if (disk_io.blocks_read > 0 || disk_io.bytes > 0) {
      disk_blocks_total_->Add(disk_io.blocks_read);
      disk_seeks_total_->Add(disk_io.seeks);
      disk_bytes_total_->Add(disk_io.bytes);
    }
  }
  latency_us_->Record(LatencyMicros(latency_ms));
}

void PhraseService::MaybeLogSlowQuery(const Query& canonical,
                                      Algorithm algorithm,
                                      const ServiceReply& reply) {
  if (options_.slow_query_ms <= 0.0 ||
      reply.latency_ms < options_.slow_query_ms) {
    return;
  }
  slow_queries_total_->Increment();
  SlowQueryEntry entry;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %s k=%zu terms=[",
                AlgorithmName(algorithm),
                canonical.op == QueryOperator::kAnd ? "AND" : "OR",
                reply.plan.k);
  entry.description = buf;
  for (std::size_t i = 0; i < canonical.terms.size(); ++i) {
    if (i > 0) entry.description += ',';
    entry.description += std::to_string(canonical.terms[i]);
  }
  entry.description += ']';
  if (reply.result_cache_hit) entry.description += " (cache hit)";
  entry.latency_ms = reply.latency_ms;
  if (reply.trace != nullptr) entry.explain = reply.trace->Explain();
  std::scoped_lock lock(slow_mu_);
  slow_log_.push_back(std::move(entry));
  while (slow_log_.size() > kSlowQueryLogCapacity) {
    slow_log_.pop_front();
  }
}

std::vector<PhraseService::SlowQueryEntry> PhraseService::slow_queries()
    const {
  std::scoped_lock lock(slow_mu_);
  return {slow_log_.begin(), slow_log_.end()};
}

ServiceStats PhraseService::stats() const {
  ServiceStats stats;
  // One registry snapshot is the single source for every counter the
  // service publishes; the struct is just a typed view over it.
  const MetricsSnapshot snap = registry_.Snapshot();
  stats.queries = snap.counter("service_queries_total");
  stats.planned = snap.counter("service_planned_total");
  stats.forced = snap.counter("service_forced_total");
  stats.ingests = snap.counter("service_ingests_total");
  stats.rebuilds = snap.counter("service_rebuilds_total");
  stats.placement_refreshes =
      snap.counter("service_placement_refreshes_total");
  stats.shed = snap.counter("service_shed_total");
  stats.deadline_exceeded = snap.counter("service_deadline_exceeded_total");
  for (std::size_t i = 0; i < stats.per_algorithm.size(); ++i) {
    stats.per_algorithm[i] = snap.counter(
        std::string("service_executions_total{algorithm=\"") +
        AlgorithmName(static_cast<Algorithm>(i)) + "\"}");
  }
  stats.disk_io.blocks_read = snap.counter("disk_blocks_total");
  stats.disk_io.seeks = snap.counter("disk_seeks_total");
  stats.disk_io.bytes = snap.counter("disk_bytes_total");
  if (const HistogramSnapshot* latency = snap.histogram("service_latency_us");
      latency != nullptr) {
    stats.p50_latency_ms = latency->Quantile(0.50) / 1000.0;
    stats.p95_latency_ms = latency->Quantile(0.95) / 1000.0;
    stats.p99_latency_ms = latency->Quantile(0.99) / 1000.0;
    stats.p999_latency_ms = latency->Quantile(0.999) / 1000.0;
  }
  if (sharded_ != nullptr) {
    stats.epoch = sharded_->epoch();
    stats.update = sharded_->update_stats();
  } else {
    stats.epoch = engine_->epoch();
    stats.update = engine_->update_stats();
  }
  stats.result_cache = result_cache_.stats();
  stats.word_list_cache = sharded_ != nullptr ? sharded_->list_store_stats()
                                              : engine_->list_store_stats();
  stats.pool = pool_.stats();
  return stats;
}

}  // namespace phrasemine
