#ifndef PHRASEMINE_SERVICE_CACHE_H_
#define PHRASEMINE_SERVICE_CACHE_H_

#include <cstdint>
#include <span>
#include <string>

#include "common/sharded_lru_cache.h"
#include "core/engine.h"
#include "core/miner.h"
#include "core/query.h"

namespace phrasemine {

/// Renders "hits=... misses=... hit_rate=..%" for logs and benchmarks.
std::string FormatCacheStats(const CacheStats& stats);

/// Returns `query` with terms sorted and deduplicated. Phrase mining is
/// defined over term *sets* (Section 3), so canonicalizing makes every
/// spelling of the same set share one cache entry and one deterministic
/// execution order.
Query CanonicalizeQuery(const Query& query);

/// Cache key for a full MineResult: canonicalized query terms + operator +
/// algorithm + every MineOptions knob that affects the ranked output.
/// `smj_fraction` is the engine's construction fraction of the id-ordered
/// lists -- it determines kSmj output (MineOptions::list_fraction is
/// ignored there), so it keys kSmj results; every other algorithm's key
/// ignores it. `epoch` is the engine update epoch the
/// result is valid for: stamping it into the key makes an Ingest
/// atomically unreachable-invalidate every stale entry without a global
/// flush (old-epoch entries age out of the LRU). Queries carrying a
/// caller-supplied delta overlay must not be cached (that overlay is
/// external mutable state); PhraseService skips the cache for those.
/// `shard_epochs` is the composite epoch vector of a ShardedEngine mine:
/// the full vector enters the key (two different vectors can share one
/// epoch sum, so the scalar alone would alias distinct freshness states);
/// leave it empty for single-engine results.
std::string ResultCacheKey(const Query& canonical_query, Algorithm algorithm,
                           const MineOptions& options,
                           double smj_fraction = -1.0, uint64_t epoch = 0,
                           std::span<const uint64_t> shard_epochs = {});

}  // namespace phrasemine

#endif  // PHRASEMINE_SERVICE_CACHE_H_
