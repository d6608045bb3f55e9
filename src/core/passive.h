// Algorithm 1 — coarse-grained fault localization from passive RTT data.
//
// Hierarchical elimination over one 5-minute bucket of quartets: start with
// the cloud node (richest aggregate), fall through to the middle BGP path,
// then the client, emitting "insufficient" when a group is too thin and
// "ambiguous" when the same /24 simultaneously saw good RTT at another
// location. Bad fractions compare against the *learned* expected RTTs
// (14-day medians), not the badness thresholds — §4.3 explains why.
//
// One serial kernel, two loops over the bucket in input order:
//   Loop 1 — finds or adds each quartet's cloud and middle group in a flat
//     open-addressing table (the learner is consulted once per group, on its
//     first quartet), counts the group fractions, remembers the two group
//     positions per quartet, and records per /24 the first location with a
//     good quartet plus whether a second one followed.
//   Loop 2 — blames each bad (and §13 soft-bad) quartet from the remembered
//     positions, with no further group hashing.
// The tables live in the localizer and are reused across calls: once they
// have grown to the largest bucket seen, a bucket's only allocation is its
// result vector.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "analysis/expected_rtt.h"
#include "analysis/quartet.h"
#include "core/blame.h"
#include "core/config.h"
#include "net/topology.h"
#include "obs/registry.h"

namespace blameit::core {

/// /24s currently shielded from Cloud blame at a location because a recent
/// SteerShift churn event moved them there: entries are packed
/// (location << 32) | /24 block. Assembled by the pipeline from the churn
/// feed (config.churn_steer_shield); empty or null = no shielding, and
/// localize() is bit-identical to the churn-blind pipeline.
using SteerShield = std::unordered_set<std::uint64_t>;

[[nodiscard]] constexpr std::uint64_t steer_shield_key(
    net::CloudLocationId location, net::Slash24 block) noexcept {
  return (std::uint64_t{location.value} << 32) | block.block;
}

class PassiveLocalizer {
 public:
  PassiveLocalizer(const net::Topology* topology,
                   const analysis::ExpectedRttLearner* learner,
                   BlameItConfig config = {},
                   obs::Registry* registry = nullptr);
  ~PassiveLocalizer();

  /// Runs Algorithm 1 over one bucket's quartets (good and bad; the good
  /// ones shape the group fractions and the ambiguity signal). Returns one
  /// BlameResult per *bad* quartet, in input order. `day` selects the
  /// learner's history window. A non-empty `shield` makes Cloud blame for
  /// shielded ⟨location, /24⟩ quartets require corroboration from the
  /// location's UN-shielded quartets (§13's re-steer rule); un-shielded
  /// quartets of an affected group likewise judge the cloud check on the
  /// un-steered evidence only. Reuses the localizer's scratch tables, so
  /// calls on one instance must not overlap.
  [[nodiscard]] std::vector<BlameResult> localize(
      std::span<const analysis::Quartet> quartets, int day,
      const SteerShield* shield = nullptr) const;

  /// The comparison value used for group bad-fractions: the learned expected
  /// RTT when history exists, else the badness threshold (bootstrap
  /// fallback). Exposed for tests and the ablation bench.
  [[nodiscard]] double comparison_rtt(analysis::ExpectedRttKey key, int day,
                                      net::Region region,
                                      net::DeviceClass device) const;

  [[nodiscard]] const BlameItConfig& config() const noexcept {
    return config_;
  }

 private:
  const net::Topology* topology_;
  const analysis::ExpectedRttLearner* learner_;
  BlameItConfig config_;
  analysis::BadnessThresholds thresholds_;
  struct Scratch;  ///< localize()'s reusable tables (passive.cc)
  std::unique_ptr<Scratch> scratch_;

  // Instruments (null without a registry).
  obs::Histogram* localize_ms_h_ = nullptr;
  std::array<obs::Counter*, kAllBlames.size()> blame_c_{};
};

}  // namespace blameit::core
