// Cost-budgeted LRU cache (scalewall::cache).
//
// The reproduction's result caches (CubrickServer partial-result cache,
// CubrickProxy merged-result cache) both need the same container: a
// bounded map evicting least-recently-used entries once the sum of
// entry *costs* (approximate bytes) exceeds a budget. Shark-style
// partial-aggregate reuse only pays off if the cache can never grow
// without bound — dashboards repeat a small working set of queries, so
// LRU over a bytes budget is the natural policy.
//
// Thread-safe: a scalewall_node server runs ExecutePartial on several
// handler threads at once, so lookups and inserts race. A single mutex
// is plenty — a hit copies the value out while holding it, which is
// still orders of magnitude cheaper than the brick scan it replaces.

#ifndef SCALEWALL_CACHE_LRU_CACHE_H_
#define SCALEWALL_CACHE_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <utility>

namespace scalewall::cache {

// Keys need operator< (entries index through a std::map: no hash
// requirement, deterministic iteration). Values are copied out on Get.
template <typename Key, typename Value>
class LruCache {
 public:
  // Point-in-time counters (all monotonic except entries/bytes).
  struct Snapshot {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t invalidations = 0;  // explicit Erase/Clear removals
    size_t entries = 0;
    size_t bytes = 0;
  };

  // `max_bytes` is the cost budget; 0 disables insertion entirely (every
  // Put is refused), which lets callers keep one code path.
  explicit LruCache(size_t max_bytes) : max_bytes_(max_bytes) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  // Copies the value into `*out` and marks the entry most recently used.
  bool Get(const Key& key, Value* out) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    // Splice to the front: most recently used first.
    entries_.splice(entries_.begin(), entries_, it->second);
    ++hits_;
    *out = it->second->value;
    return true;
  }

  bool Contains(const Key& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_.count(key) > 0;
  }

  // Inserts (or replaces) `key`. Entries costing more than the whole
  // budget are refused — a single oversized result must not wipe the
  // working set. Returns whether the entry was stored.
  bool Put(const Key& key, Value value, size_t cost) {
    std::lock_guard<std::mutex> lock(mu_);
    // A zero budget refuses everything, including zero-cost entries.
    if (max_bytes_ == 0 || cost > max_bytes_) return false;
    auto it = index_.find(key);
    if (it != index_.end()) {
      bytes_ -= it->second->cost;
      entries_.erase(it->second);
      index_.erase(it);
    }
    entries_.push_front(Entry{key, std::move(value), cost});
    index_[key] = entries_.begin();
    bytes_ += cost;
    while (bytes_ > max_bytes_ && entries_.size() > 1) {
      const Entry& lru = entries_.back();
      bytes_ -= lru.cost;
      index_.erase(lru.key);
      entries_.pop_back();
      ++evictions_;
    }
    return true;
  }

  // Removes one entry (an epoch-invalidated result). Returns whether it
  // was present; counted as an invalidation, not an eviction.
  bool Erase(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    bytes_ -= it->second->cost;
    entries_.erase(it->second);
    index_.erase(it);
    ++invalidations_;
    return true;
  }

  // Drops everything (server reset / table drop). Each dropped entry
  // counts as an invalidation.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    invalidations_ += static_cast<int64_t>(entries_.size());
    entries_.clear();
    index_.clear();
    bytes_ = 0;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  size_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }
  size_t max_bytes() const { return max_bytes_; }

  Snapshot snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Snapshot{hits_,          misses_,         evictions_,
                    invalidations_, entries_.size(), bytes_};
  }

 private:
  struct Entry {
    Key key;
    Value value;
    size_t cost = 0;
  };

  const size_t max_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> entries_;  // MRU first
  std::map<Key, typename std::list<Entry>::iterator> index_;
  size_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t invalidations_ = 0;
};

}  // namespace scalewall::cache

#endif  // SCALEWALL_CACHE_LRU_CACHE_H_
