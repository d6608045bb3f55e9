// Rolling expected-RTT learner (§4.3): the median of the past 14 days of RTT
// observations, learned separately per cloud location and per ⟨cloud
// location, BGP path⟩, each split by device class. Algorithm 1 compares
// against these learned values — not the badness thresholds — when computing
// the bad fraction of a cloud node or middle segment, which is what lets it
// catch shifts that stay below the region target (the paper's 40 ms→55 ms
// worked example).
//
// State: one open-addressing util::FlatTable from key to its history (the
// key stored beside a day-ascending vector of per-day reservoirs). A table
// with no erase suits this feed: keys go stale only at day rollover, when
// evict_stale() drops them all in one rebuild.
//
// The pooled median is memoized per ⟨key, query day⟩: the 14-day window only
// changes at day rollover, yet expected() is consulted once per group per
// 5-minute bucket, so without the cache the same pool was rebuilt and
// re-medianed hundreds of times a day. The cache is invalidated by observe()
// when an observation could fall inside a cached window (only possible when
// the cached query day lies ahead of the observation day) and by
// evict_stale() whenever it drops reservoirs.
//
// Threading contract: all calls externally serialized — even expected(),
// which fills the memo.
#pragma once

#include <climits>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/bgp.h"
#include "net/cloud.h"
#include "net/device.h"
#include "obs/registry.h"
#include "store/snapshot.h"
#include "util/flat_table.h"
#include "util/rng.h"
#include "util/time.h"

namespace blameit::analysis {

/// Opaque learner key; build with cloud_key / middle_key.
struct ExpectedRttKey {
  std::uint64_t packed = 0;
  bool operator==(const ExpectedRttKey&) const = default;
};

[[nodiscard]] ExpectedRttKey cloud_key(net::CloudLocationId location,
                                       net::DeviceClass device) noexcept;
[[nodiscard]] ExpectedRttKey middle_key(net::CloudLocationId location,
                                        net::MiddleSegmentId middle,
                                        net::DeviceClass device) noexcept;

/// Where an expected-RTT value came from, carried through Algorithm 1 so a
/// verdict can say how churn-degraded its baseline was.
enum class BaselineProvenance : std::uint8_t {
  kNone,         ///< no usable expectation at all
  kFresh,        ///< pooled median of the key's own window history
  kTransferred,  ///< inherited from another key after a churn event
};

/// An expectation with its provenance (expected_with_provenance()).
struct GradedExpectation {
  std::optional<double> value;
  BaselineProvenance provenance = BaselineProvenance::kNone;
};

struct ExpectedRttConfig {
  int window_days = 14;          ///< paper uses the past 14 days
  int reservoir_per_day = 256;   ///< bounded per-day sample memory
  /// Multiplier applied to a transferred baseline when it is served — the
  /// freshness discount: the new path is ASSUMED a bit worse than the old
  /// path's median until real history accumulates, so borderline groups
  /// don't flap to bad on inherited optimism. Compounds across chained
  /// transfers.
  double transfer_discount = 1.1;
  /// Transfers older than this many days stop being served (and are evicted)
  /// — by then the window either has real history or the path is gone.
  int transfer_max_age_days = 3;
  /// Optional metrics sink (memoization hit/miss, evictions, tracked keys);
  /// null = no instrumentation, zero overhead.
  obs::Registry* registry = nullptr;
};

/// Learns expected RTTs as the median over a sliding multi-day window of
/// per-day reservoir samples. Deterministic given the feed order; the memo
/// cache never changes results, only their cost.
class ExpectedRttLearner {
 public:
  explicit ExpectedRttLearner(ExpectedRttConfig config = {});

  ExpectedRttLearner(const ExpectedRttLearner&) = delete;
  ExpectedRttLearner& operator=(const ExpectedRttLearner&) = delete;

  /// Feeds one observation (a quartet's mean RTT) for `key` on `day`.
  void observe(ExpectedRttKey key, int day, double rtt_ms);

  /// Median over days [day - window, day - 1]; nullopt when no history.
  /// The current day is excluded so an ongoing incident cannot teach the
  /// learner its own inflation. O(1) when the ⟨key, day⟩ cache is warm.
  [[nodiscard]] std::optional<double> expected(ExpectedRttKey key,
                                               int day) const;

  /// Number of historical observations backing expected(key, day).
  [[nodiscard]] std::size_t history_size(ExpectedRttKey key, int day) const;

  /// expected() plus provenance: the key's own window median when it has
  /// one (kFresh), else a live transferred baseline with the freshness
  /// discount applied (kTransferred), else {nullopt, kNone}.
  [[nodiscard]] GradedExpectation expected_with_provenance(ExpectedRttKey key,
                                                           int day) const;

  /// Seeds `to_key`'s expectation from `from_key`, keyed on a churn event
  /// observed on `day`. The source value is captured EAGERLY — the source's
  /// fresh median at transfer time (or its own live transferred value, with
  /// one more discount compounded) — so the transfer survives the source
  /// being evicted later. Recorded even when the target has real window
  /// history (fresh history always wins at serve time; the entry then acts
  /// purely as the recently_churned() mark). No-ops (returns false) when
  /// the source has nothing usable or the target holds a strictly fresher
  /// transfer.
  bool transfer_baseline(ExpectedRttKey from_key, ExpectedRttKey to_key,
                         int day);

  /// True while `key` holds a live (non-expired, non-future) transfer entry
  /// — i.e. a churn event re-routed traffic onto this key within the last
  /// transfer_max_age_days. The passive phase uses this as corroboration
  /// that a sub-threshold group shift is path-shaped (§13 soft badness).
  [[nodiscard]] bool recently_churned(ExpectedRttKey key, int day) const;

  /// Live transfer entries (observability + tests).
  [[nodiscard]] std::size_t transfer_count() const noexcept {
    return transfers_.size();
  }

  /// Drops per-day reservoirs older than `day - window` (memory bound) and
  /// erases keys whose history becomes empty — without the erase, churned
  /// keys (BGP paths that stop being used) would grow the table forever.
  /// One pass over the tracked keys, plus one table rebuild when a key
  /// emptied; the pipeline calls it once per day.
  void evict_stale(int day);

  /// Keys with at least one live reservoir (memory-regression observability).
  [[nodiscard]] std::size_t tracked_keys() const noexcept {
    return histories_.size();
  }

  /// Writes the full reservoir state as snapshot section "learner". Memo
  /// caches are not persisted (recomputation yields identical values).
  void save_state(store::SnapshotWriter& writer) const;
  /// Replaces the reservoir state from a snapshot. A section written by the
  /// removed columnar backend (layout tag 1) is rejected by name.
  void restore_state(const store::SnapshotReader& reader);

 private:
  struct DayReservoir {
    int day = -1;
    std::uint64_t seen = 0;
    std::vector<double> sample;
  };
  struct KeyHistory {
    std::uint64_t key = 0;  ///< packed ExpectedRttKey (rebuilds re-insert it)
    std::vector<DayReservoir> days;  // ascending by day
    // Memoized expected() result for query day cache_day (mutable because
    // filling the cache is logically const).
    mutable int cache_day = INT_MIN;
    mutable std::optional<double> cache_value;
  };
  /// One inherited baseline: the (undiscounted) value captured from the
  /// source at transfer time. Held outside the reservoirs: they stay
  /// day-ordered observations only, never seeded past days.
  struct TransferEntry {
    int day = -1;                ///< day the transfer was recorded
    double value = 0.0;          ///< source median at transfer time
    std::uint64_t from_key = 0;  ///< provenance (diagnostics + snapshots)
  };

  /// Pools the window's reservoirs into a reused scratch buffer and takes
  /// the median (nth_element, no per-call allocation).
  [[nodiscard]] std::optional<double> pooled_median(const KeyHistory& history,
                                                    int day) const;

  /// The history of `key`, or null.
  [[nodiscard]] const KeyHistory* find(ExpectedRttKey key) const;

  ExpectedRttConfig config_;
  util::FlatTable<KeyHistory> histories_;
  /// Key → inherited baseline. std::map: deterministic iteration order makes
  /// the snapshot bytes reproducible.
  std::map<std::uint64_t, TransferEntry> transfers_;

  // Instruments (null without a registry).
  obs::Counter* memo_hits_c_ = nullptr;
  obs::Counter* memo_misses_c_ = nullptr;
  obs::Counter* evictions_c_ = nullptr;
  obs::Gauge* tracked_keys_g_ = nullptr;
};

}  // namespace blameit::analysis
