// Quartets — the paper's unit of analysis (§2.1): RTT measurements bundled by
// ⟨client IP-/24, cloud location, device class, 5-minute bucket⟩, classified
// good/bad against region- and device-specific thresholds, and annotated with
// the BGP middle segment used (resolved against the routing state, mirroring
// the IP-AS/BGP-table join of Fig 7).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/record.h"
#include "net/bgp.h"
#include "net/topology.h"
#include "util/stats.h"
#include "util/time.h"

namespace blameit::analysis {

struct QuartetKey {
  net::Slash24 block;
  net::CloudLocationId location;
  net::DeviceClass device{};
  util::TimeBucket bucket;

  bool operator==(const QuartetKey&) const = default;
};

struct QuartetKeyHash {
  std::size_t operator()(const QuartetKey& k) const noexcept {
    std::uint64_t h = k.block.block;
    h = util::hash_combine(h, k.location.value);
    h = util::hash_combine(h, static_cast<std::uint64_t>(k.device));
    h = util::hash_combine(h, static_cast<std::uint64_t>(k.bucket.index));
    return h;
  }
};

/// One finalized quartet, ready for Algorithm 1.
struct Quartet {
  QuartetKey key;
  int sample_count = 0;
  double mean_rtt_ms = 0.0;
  net::MiddleSegmentId middle;  ///< BGP path (middle ASes) in effect
  net::AsId client_as;
  net::Region region{};
  bool bad = false;  ///< mean RTT above the badness threshold

  /// Exact (bit-level for the mean) equality; the localizer's differential
  /// test relies on this.
  bool operator==(const Quartet&) const = default;
};

/// Region- and device-specific badness thresholds (Azure's RTT targets).
class BadnessThresholds {
 public:
  /// Defaults derive from the built-in RegionProfiles.
  BadnessThresholds();

  [[nodiscard]] double threshold(net::Region region,
                                 net::DeviceClass device) const noexcept;

  /// Overrides one region/device threshold (tests, what-if analyses).
  void set(net::Region region, net::DeviceClass device, double ms);

 private:
  std::array<std::array<double, 2>, 7> thresholds_{};
};

struct QuartetBuilderConfig {
  /// Minimum RTT samples for a quartet to be classified (§2.1 uses 10).
  int min_samples = 10;
};

/// Accumulates RttRecords and finalizes per-bucket quartets.
class QuartetBuilder {
 public:
  QuartetBuilder(const net::Topology* topology, BadnessThresholds thresholds,
                 QuartetBuilderConfig config = {});

  /// Adds one record. Records for unknown client blocks are counted and
  /// dropped (production sees traffic from unannounced space too).
  void add(const RttRecord& record);

  /// Adds a pre-aggregated quartet (the fast simulation path, which skips
  /// per-record accumulation). The mean/count are taken as-is.
  void add_aggregate(const QuartetKey& key, int sample_count,
                     double mean_rtt_ms);

  /// Finalizes and removes all quartets of `bucket`. Quartets with fewer
  /// than min_samples are dropped (classification needs confidence).
  [[nodiscard]] std::vector<Quartet> take_bucket(util::TimeBucket bucket);

  [[nodiscard]] std::size_t pending() const noexcept { return acc_.size(); }
  [[nodiscard]] std::uint64_t dropped_unknown_blocks() const noexcept {
    return dropped_unknown_;
  }
  /// Quartets discarded at take_bucket time for having fewer than
  /// min_samples records (and the records they carried).
  [[nodiscard]] std::uint64_t dropped_min_samples() const noexcept {
    return dropped_min_samples_;
  }
  [[nodiscard]] std::uint64_t dropped_min_samples_records() const noexcept {
    return dropped_min_samples_records_;
  }
  [[nodiscard]] const BadnessThresholds& thresholds() const noexcept {
    return thresholds_;
  }

 private:
  struct Accumulator {
    int count = 0;
    double sum = 0.0;
  };

  const net::Topology* topology_;
  BadnessThresholds thresholds_;
  QuartetBuilderConfig config_;
  std::unordered_map<QuartetKey, Accumulator, QuartetKeyHash> acc_;
  std::uint64_t dropped_unknown_ = 0;
  std::uint64_t dropped_min_samples_ = 0;
  std::uint64_t dropped_min_samples_records_ = 0;
};

/// Splits a quartet's samples in two halves and checks they are drawn from
/// the same distribution (the §2.1 KS self-check). Exposed as a free
/// function over raw samples since finalized quartets only keep the mean.
[[nodiscard]] bool quartet_samples_homogeneous(
    std::span<const double> samples, double alpha = 0.05);

}  // namespace blameit::analysis
