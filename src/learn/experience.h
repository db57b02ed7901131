#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "runtime/tt.h"
#include "util/status.h"

namespace ifgen {
namespace learn {

namespace learn_internal {
// Function-local statics in inline functions are shared across TUs, so every
// store in the process feeds the same registry counters (tt.h idiom).
inline obs::Counter& StoreHitsMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_learn_store_hits_total",
      "ExperienceStore probes that found a record");
  return *c;
}
inline obs::Counter& StoreMissesMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_learn_store_misses_total",
      "ExperienceStore probes that found nothing");
  return *c;
}
inline obs::Counter& SeededMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_learn_seeded_total",
      "Experience records handed to a searcher as warm-start seed");
  return *c;
}
inline obs::Counter& RecordedMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_learn_recorded_total",
      "Experience records merged into a store from finished searches");
  return *c;
}
inline obs::Counter& SavesMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_learn_saves_total", "ExperienceStore file saves");
  return *c;
}
inline obs::Counter& LoadsMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_learn_loads_total",
      "ExperienceStore file loads (cold starts count too)");
  return *c;
}
}  // namespace learn_internal

/// \brief One unit of persisted search experience: for a canonical state
/// under one cost identity (`schema_fp`, the service's TtStoreKey), the best
/// sampled cost seen, the canonical hash of the successor the search
/// preferred, how often the state was visited, and the store epoch that last
/// improved it.
///
/// `best_cost` is the state's OWN sampled cost. Under
/// `EvalOptions::state_keyed_sampling` that cost is a pure function of
/// (state, options, seed), which is what makes replaying it into a
/// `TranspositionTable` via `SeedCost` sound: a seeded entry changes how
/// much work a later search does, never which values it observes.
struct ExperienceRecord {
  uint64_t schema_fp = 0;
  uint64_t canonical = 0;
  /// Canonical hash of the best known successor state (0 = none recorded).
  uint64_t best_action = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  uint64_t visits = 0;
  /// Store epoch (process generation) that last lowered `best_cost`.
  uint64_t epoch = 0;

  bool operator==(const ExperienceRecord& o) const {
    return schema_fp == o.schema_fp && canonical == o.canonical &&
           best_action == o.best_action && best_cost == o.best_cost &&
           visits == o.visits && epoch == o.epoch;
  }
};

/// \brief Sharded, persistent store of search experience, shared by every
/// job of a `GenerationService` and (via save/load) by every generation of a
/// worker process.
///
/// Concurrency: a ShardedMap keyed by HashCombine(schema_fp, canonical);
/// Record/Probe/Snapshot/SaveTo are all safe to call concurrently with a
/// running search. Merging is best-cost-wins (a lower sampled cost replaces
/// action + cost + epoch; visit counts accumulate), so loading a file into a
/// warm store and re-loading the same file are both idempotent-safe.
///
/// Persistence: versioned little-endian binary ("IFEX" magic, version,
/// count, payload checksum), written atomically via tmp + rename. A missing,
/// truncated, bit-flipped, or wrong-version file loads as a clean cold start
/// with a Warning log — never a crash, never partial state (the payload is
/// fully validated before the first record is merged). See docs/learning.md.
class ExperienceStore {
 public:
  explicit ExperienceStore(size_t num_shards = 16) : map_(num_shards) {}

  ExperienceStore(const ExperienceStore&) = delete;
  ExperienceStore& operator=(const ExperienceStore&) = delete;

  /// Merges `rec` (best-cost-wins; visits accumulate). Records with a
  /// non-finite best cost are dropped — TranspositionTable::SeedCost
  /// rejects them anyway.
  void Record(const ExperienceRecord& rec);

  /// The record for (schema_fp, canonical), if any. Counts a store hit or
  /// miss either way.
  std::optional<ExperienceRecord> Probe(uint64_t schema_fp,
                                        uint64_t canonical) const;

  /// Up to `limit` records for `schema_fp`, most-visited first (canonical
  /// ascending as the deterministic tie-break) — the warm-start seed batch
  /// for one search. Only root records carry visits (a search exports its
  /// sampled costs with 0 visits), so root records come first and every
  /// other record follows by canonical hash.
  std::vector<ExperienceRecord> Snapshot(uint64_t schema_fp,
                                         size_t limit) const;

  /// All records, sorted by (schema_fp, canonical) — the deterministic
  /// serialization order used by SaveTo and the round-trip tests.
  std::vector<ExperienceRecord> All() const;

  /// Writes every record to `path` atomically (tmp + rename). Safe while
  /// searches are recording: the snapshot is taken shard-by-shard.
  Status SaveTo(const std::string& path) const;

  /// Merges records from `path`. Returns the number of records merged: 0 on
  /// a missing file (silent cold start) and 0 with a Warning log on a
  /// corrupt/truncated/wrong-version file — validation happens before any
  /// merge, so a bad file never leaves partial state behind. On success the
  /// store's epoch advances past the highest epoch seen in the file.
  Result<size_t> LoadFrom(const std::string& path);

  /// Current process-generation epoch, stamped into records via Record by
  /// callers that pass `epoch() `. Starts at 1 for a cold store.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  size_t size() const { return map_.size(); }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t recorded() const { return recorded_.load(std::memory_order_relaxed); }
  uint64_t saves() const { return saves_.load(std::memory_order_relaxed); }
  uint64_t loads() const { return loads_.load(std::memory_order_relaxed); }

 private:
  void Merge(const ExperienceRecord& rec);

  ShardedMap<ExperienceRecord> map_;
  std::atomic<uint64_t> epoch_{1};
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> recorded_{0};
  mutable std::atomic<uint64_t> saves_{0};
  std::atomic<uint64_t> loads_{0};
};

}  // namespace learn
}  // namespace ifgen
