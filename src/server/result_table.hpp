// The result table of `mio serve`: one keyed table of query executions
// that both coalesces and caches. The engine is deterministic: two
// queries with identical (r, k, use_labels) against the same loaded
// dataset produce bit-identical top-k lists. An entry is in flight until
// its execution is published — identical requests that join meanwhile
// follow it and receive its result — and a published complete OK result
// stays in the table as that key's cache entry, replayed to every later
// request until LRU eviction drops it.
//
// Sharing rules keep every path bit-identical to uncoalesced execution:
// only COMPLETE, OK results are shared or cached. A result degraded by a
// guardrail (deadline, cancel, shed work) or refused by admission
// reflects that one request's limits, not the query's true answer, so
// followers of such an execution re-execute for themselves and the entry
// leaves the table. `threads` is part of the key: thread count never
// changes the answer, but keeping it in the key means a follower's
// response echoes an execution with its own requested parallelism
// profile.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/query_result.hpp"

namespace mio {
namespace server {

/// Identity of a query execution for coalescing/caching purposes.
struct CoalesceKey {
  double r = 0.0;
  std::uint64_t k = 1;
  int threads = 1;
  bool use_labels = false;

  bool operator==(const CoalesceKey& o) const {
    return r == o.r && k == o.k && threads == o.threads &&
           use_labels == o.use_labels;
  }
};

struct CoalesceKeyHash {
  std::size_t operator()(const CoalesceKey& key) const {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(key.r));
    __builtin_memcpy(&bits, &key.r, sizeof(bits));
    std::uint64_t h = bits * 0x9E3779B97F4A7C15ULL;
    h ^= key.k + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h ^= static_cast<std::uint64_t>(key.threads) * 0x100000001B3ULL;
    h ^= key.use_labels ? 0x517CC1B727220A95ULL : 0;
    return static_cast<std::size_t>(h);
  }
};

/// One execution of a query: resolved once by whoever ran it, awaited by
/// every request that holds it (its own, followers, cache hits).
class Execution {
 public:
  /// Stores the result and wakes every waiter. Called exactly once.
  void Resolve(QueryResult result, double wall_seconds);

  /// Blocks until Resolve, then copies the result out. Returns true when
  /// the result is complete and OK — safe to hand to another request. A
  /// request's own execution is its answer either way.
  bool Await(QueryResult* result, double* wall_seconds);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  QueryResult result_;
  double wall_seconds_ = 0.0;
};

/// In-flight executions and finished (cached) results under one lock.
class ResultTable {
 public:
  /// At most `capacity` finished entries; 0 still coalesces in-flight
  /// executions but caches nothing.
  explicit ResultTable(std::size_t capacity) : capacity_(capacity) {}

  enum class Role {
    kCached,    ///< a finished entry: the result is final
    kFollower,  ///< an in-flight entry: await its leader
    kLeader,    ///< a new entry: run the query, then Publish
  };
  struct Ticket {
    Role role = Role::kLeader;
    std::shared_ptr<Execution> exec;
  };

  /// Looks `key` up and joins it: a finished entry is a cache hit (and
  /// moves to the LRU front), an in-flight one makes the caller a
  /// follower, and a missing one enters the table with the caller as its
  /// leader. Counts server.cache_hits, server.cache_misses (only when
  /// capacity > 0) and server.coalesced.
  Ticket Join(const CoalesceKey& key);

  /// Resolves `exec` with `result` and settles the table: a complete OK
  /// result becomes `key`'s finished entry (evicting the least recently
  /// used finished entries beyond capacity); anything else removes the
  /// entry when it is `exec`'s in-flight one. A leader must call this
  /// exactly once, even on failure — otherwise its followers block until
  /// drain. A solo run (an `exec` not in the table) offers its result the
  /// same way.
  void Publish(const CoalesceKey& key, const std::shared_ptr<Execution>& exec,
               QueryResult result, double wall_seconds);

  /// Finished entries (the `cache_entries` of the stats op).
  std::size_t cached() const;

 private:
  struct Entry {
    std::shared_ptr<Execution> exec;
    bool finished = false;
    /// Position in lru_, valid when finished.
    std::list<CoalesceKey>::iterator lru;
  };

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<CoalesceKey, Entry, CoalesceKeyHash> entries_;
  /// Finished keys only, front = most recently used.
  std::list<CoalesceKey> lru_;
};

}  // namespace server
}  // namespace mio
