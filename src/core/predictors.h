// Predictors behind the client-time product (§5.3):
//  - DurationPredictor: from historical incident durations, the expected
//    additional duration of an ongoing issue given it has lasted t so far
//    (Σ_T P(T|t)·T with T in 5-minute increments), and
//  - ClientVolumePredictor: expected active clients on a BGP path, the mean
//    of the same 5-minute window over the past few days (which the paper
//    found beats recent-history extrapolation).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/encoding.h"
#include "util/flat_table.h"
#include "util/time.h"

namespace blameit::core {

class DurationPredictor {
 public:
  /// `horizon_buckets` caps the expected-remaining sum (T_max).
  explicit DurationPredictor(int horizon_buckets = 48);

  /// Records a closed incident's total duration (in 5-min buckets) for an
  /// aggregate key (packed ⟨location, BGP path⟩).
  void record_duration(std::uint64_t key, int duration_buckets);

  /// E[T_extra | lasted elapsed_buckets], in buckets. Uses the key's own
  /// duration history when it has enough closed incidents, else the global
  /// pool across keys; with no history at all, returns a prior of one
  /// bucket (optimistically short — most issues are fleeting, §2.3).
  [[nodiscard]] double expected_remaining(std::uint64_t key,
                                          int elapsed_buckets) const;

  /// P(duration > elapsed + extra | duration > elapsed) from the pool that
  /// would be used for `key`. Exposed for tests.
  [[nodiscard]] double conditional_survival(std::uint64_t key,
                                            int elapsed_buckets,
                                            int extra_buckets) const;

  [[nodiscard]] std::size_t history_count(std::uint64_t key) const;

  /// Appends the full duration history (key-sorted normal form; the global
  /// pool keeps its arrival order, which restore reproduces exactly).
  void save(std::string& out) const;
  /// Replaces the history from `in`; commits only after a clean parse.
  void restore(store::ByteReader& in);

 private:
  /// One duration pool: the durations in arrival order (what save writes)
  /// and a survival index kept current by add() — the distinct durations
  /// ascending, each with how many durations are >= it — so a query counts
  /// survivors by lookup instead of rescanning the pool per horizon step.
  struct Pool {
    std::vector<int> durations;
    std::vector<int> distinct;
    std::vector<std::size_t> at_least;  ///< per `distinct` entry

    void add(int duration);
    /// Index into `distinct` of the first duration >= v.
    [[nodiscard]] std::size_t first_at_least(int v) const;
    /// Durations >= distinct[i]; 0 past the end.
    [[nodiscard]] std::size_t count_from(std::size_t i) const noexcept {
      return i < at_least.size() ? at_least[i] : 0;
    }
  };

  [[nodiscard]] const Pool& pool_for(std::uint64_t key) const;
  [[nodiscard]] static double expected_remaining_from(const Pool& pool,
                                                      int elapsed,
                                                      int horizon);

  int horizon_;
  std::unordered_map<std::uint64_t, Pool> per_key_;
  Pool global_;
  /// Minimum closed incidents before a key's own history is trusted.
  static constexpr std::size_t kMinKeyHistory = 8;
};

class ClientVolumePredictor {
 public:
  /// `window_days` is how many past days contribute (§5.3 uses 3).
  explicit ClientVolumePredictor(int window_days = 3);

  /// Records the observed active clients for `key` in `bucket` (fed every
  /// bucket, incident or not). Buckets before time zero are rejected.
  void observe(std::uint64_t key, util::TimeBucket bucket, double users);

  /// Mean users for the same bucket-of-day over the past window_days days;
  /// 0 when no history. Excludes the current day.
  [[nodiscard]] double predict(std::uint64_t key,
                               util::TimeBucket bucket) const;

  /// Drops observations older than the window (call once per day).
  void evict_stale(int current_day);

  /// Appends every fed ⟨key, bucket-of-day⟩ slot's history in key-sorted
  /// normal form (arrival order preserved within a slot).
  void save(std::string& out) const;
  /// Replaces the history from `in`; commits only after a clean parse.
  void restore(store::ByteReader& in);

 private:
  /// One observation of a slot.
  struct Cell {
    int day = 0;
    double users = 0.0;
  };

  /// Row layout: per key, kBucketsPerDay slots of window_days + 1 cells
  /// (the most a slot ever keeps) plus one length per slot. Paths are fed
  /// every bucket, so a dense row wastes little and needs no per-slot node.
  [[nodiscard]] std::size_t slot_index(std::uint32_t row, int bod) const {
    return static_cast<std::size_t>(row) * util::kBucketsPerDay +
           static_cast<std::size_t>(bod);
  }
  [[nodiscard]] Cell* slot_cells(std::size_t slot) {
    return cells_.data() + slot * slot_cells_;
  }
  [[nodiscard]] const Cell* slot_cells(std::size_t slot) const {
    return cells_.data() + slot * slot_cells_;
  }
  /// Appends a zeroed row for a newly inserted key.
  void add_row();

  int window_days_;
  std::size_t slot_cells_;  ///< window_days + 1
  /// key -> row number (the value is the key itself, for save()).
  util::FlatTable<std::uint64_t> rows_;
  /// Per slot, its cells (oldest first); cells past the length are unused.
  std::vector<Cell> cells_;
  /// Per slot, how many cells hold history; -1 = the slot was never fed,
  /// 0 = fed but every cell since evicted (still saved).
  std::vector<std::int32_t> lengths_;
};

}  // namespace blameit::core
