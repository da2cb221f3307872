#include "server/result_table.hpp"

#include "obs/metrics.hpp"

namespace mio {
namespace server {

namespace {

bool Shareable(const QueryResult& result) {
  return result.status.ok() && result.complete;
}

}  // namespace

void Execution::Resolve(QueryResult result, double wall_seconds) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    result_ = std::move(result);
    wall_seconds_ = wall_seconds;
    done_ = true;
  }
  cv_.notify_all();
}

bool Execution::Await(QueryResult* result, double* wall_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  *result = result_;
  *wall_seconds = wall_seconds_;
  return Shareable(result_);
}

ResultTable::Ticket ResultTable::Join(const CoalesceKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(key);
  Entry& entry = it->second;
  if (entry.finished) {
    lru_.splice(lru_.begin(), lru_, entry.lru);
    obs::Add(obs::Counter::kServerCacheHits);
    return Ticket{Role::kCached, entry.exec};
  }
  if (capacity_ > 0) obs::Add(obs::Counter::kServerCacheMisses);
  if (!inserted) {
    obs::Add(obs::Counter::kServerCoalesced);
    return Ticket{Role::kFollower, entry.exec};
  }
  entry.exec = std::make_shared<Execution>();
  return Ticket{Role::kLeader, entry.exec};
}

void ResultTable::Publish(const CoalesceKey& key,
                          const std::shared_ptr<Execution>& exec,
                          QueryResult result, double wall_seconds) {
  const bool keep = capacity_ > 0 && Shareable(result);
  {
    // The table settles before the execution resolves: a request that
    // joins in between is a cache hit whose Await waits out the resolve,
    // never a second leader.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (!keep) {
      if (it != entries_.end() && it->second.exec == exec) entries_.erase(it);
    } else {
      if (it == entries_.end()) it = entries_.try_emplace(key).first;
      Entry& entry = it->second;
      entry.exec = exec;
      if (entry.finished) {
        lru_.splice(lru_.begin(), lru_, entry.lru);
      } else {
        lru_.push_front(key);
        entry.lru = lru_.begin();
        entry.finished = true;
      }
      while (lru_.size() > capacity_) {
        entries_.erase(lru_.back());
        lru_.pop_back();
      }
    }
  }
  exec->Resolve(std::move(result), wall_seconds);
}

std::size_t ResultTable::cached() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace server
}  // namespace mio
