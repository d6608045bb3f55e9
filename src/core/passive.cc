#include "core/passive.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "util/flat_table.h"

namespace blameit::core {

namespace {

/// One cloud or middle group of a bucket: the counts behind its bad
/// fraction and the expectation they compare against.
struct Group {
  int quartets = 0;
  int bad_vs_expected = 0;  ///< quartets whose mean exceeds `expected`
  // Un-shielded subgroup (cloud groups only, maintained only while a steer
  // shield is active): the group's evidence minus the quartets a SteerShift
  // event just moved in. For a group with no shielded members these equal
  // the full counters.
  int unshielded_quartets = 0;
  int unshielded_bad = 0;
  double expected = 0.0;
  /// `expected` came from a transferred baseline (drives BlameResult::grade).
  bool transferred = false;
  /// A churn event recently re-routed traffic onto the group's key
  /// (soft-badness corroboration).
  bool churned = false;

  [[nodiscard]] double bad_fraction() const noexcept {
    return quartets == 0
               ? 0.0
               : static_cast<double>(bad_vs_expected) / quartets;
  }
  [[nodiscard]] double unshielded_fraction() const noexcept {
    return unshielded_quartets == 0
               ? 0.0
               : static_cast<double>(unshielded_bad) / unshielded_quartets;
  }
  [[nodiscard]] BaselineGrade grade() const noexcept {
    return transferred ? BaselineGrade::Transferred : BaselineGrade::Fresh;
  }
};

/// Sets `g`'s expected RTT. Prefers the learned 14-day median; with
/// `churn_aware` (churn_baseline_transfer) on, a live transferred baseline
/// (already discounted) comes next; before any history accrues, `fallback`,
/// the region target (deployment bootstrap; also exercised by the
/// expected-RTT ablation bench).
void set_expected(Group& g, const analysis::ExpectedRttLearner& learner,
                  bool churn_aware, analysis::ExpectedRttKey key, int day,
                  double fallback) {
  std::optional<double> value;
  if (churn_aware) {
    const auto graded = learner.expected_with_provenance(key, day);
    value = graded.value;
    g.transferred =
        graded.provenance == analysis::BaselineProvenance::kTransferred;
    g.churned = learner.recently_churned(key, day);
  } else {
    value = learner.expected(key, day);
  }
  g.expected = value.value_or(fallback);
}

std::uint64_t cloud_group(const analysis::Quartet& q) noexcept {
  return (std::uint64_t{q.key.location.value} << 8) |
         static_cast<std::uint64_t>(q.key.device);
}

std::uint64_t middle_group(const analysis::Quartet& q) noexcept {
  return (std::uint64_t{1} << 62) |
         (std::uint64_t{q.key.location.value} << 40) |
         (std::uint64_t{q.middle.value} << 8) |
         static_cast<std::uint64_t>(q.key.device);
}

/// Where a /24 saw good quartets this bucket: the first such location, and
/// whether a different one followed.
struct GoodAt {
  std::uint16_t first = 0;
  bool multi = false;
};

}  // namespace

struct PassiveLocalizer::Scratch {
  util::FlatTable<Group> groups;  ///< keyed by cloud_group / middle_group
  util::FlatTable<GoodAt> good;   ///< keyed by /24 block; good quartets only
  /// Per quartet: positions of its cloud and middle group in `groups`.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> group_of;
};

PassiveLocalizer::~PassiveLocalizer() = default;

PassiveLocalizer::PassiveLocalizer(
    const net::Topology* topology,
    const analysis::ExpectedRttLearner* learner, BlameItConfig config,
    obs::Registry* registry)
    : topology_(topology),
      learner_(learner),
      config_(config),
      scratch_(std::make_unique<Scratch>()) {
  if (!topology_ || !learner_) {
    throw std::invalid_argument{"PassiveLocalizer: null dependency"};
  }
  if (config_.tau <= 0.0 || config_.tau > 1.0 ||
      config_.min_group_quartets < 1) {
    throw std::invalid_argument{"BlameItConfig: invalid tau or min quartets"};
  }
  localize_ms_h_ = obs::histogram(registry, "passive.localize_ms");
  for (std::size_t i = 0; i < kAllBlames.size(); ++i) {
    blame_c_[i] = obs::counter(
        registry,
        std::string{"passive.blame."} + std::string{to_string(kAllBlames[i])});
  }
}

double PassiveLocalizer::comparison_rtt(analysis::ExpectedRttKey key, int day,
                                        net::Region region,
                                        net::DeviceClass device) const {
  Group g;
  set_expected(g, *learner_, config_.churn_baseline_transfer, key, day,
               thresholds_.threshold(region, device));
  return g.expected;
}

std::vector<BlameResult> PassiveLocalizer::localize(
    std::span<const analysis::Quartet> quartets, int day,
    const SteerShield* shield) const {
  const obs::ScopedTimer span{localize_ms_h_};
  const std::size_t n = quartets.size();
  const bool shield_on = shield && !shield->empty();
  Scratch& s = *scratch_;
  s.groups.clear();
  s.good.clear();
  s.group_of.resize(n);

  // The learner is consulted once per group, on the group's first quartet
  // in input order, whose region picks the threshold fallback.
  const auto learn = [&](std::uint32_t group, analysis::ExpectedRttKey key,
                         const analysis::Quartet& q) {
    set_expected(s.groups[group], *learner_, config_.churn_baseline_transfer,
                 key, day, thresholds_.threshold(q.region, q.key.device));
  };

  // Loop 1: group statistics against the learned expected RTTs, plus where
  // each /24 was good for the ambiguity rule.
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& q = quartets[i];
    const auto [c, new_cloud] = s.groups.insert(cloud_group(q));
    if (new_cloud) {
      learn(c, analysis::cloud_key(q.key.location, q.key.device), q);
    }
    const auto [m, new_middle] = s.groups.insert(middle_group(q));
    if (new_middle) {
      learn(m, analysis::middle_key(q.key.location, q.middle, q.key.device),
            q);
    }
    s.group_of[i] = {c, m};

    // §4.2 subtlety: fractions count quartets, NOT RTT samples — a handful
    // of high-volume "good" /24s must not mask widespread badness.
    Group& cg = s.groups[c];
    const bool cloud_bad = q.mean_rtt_ms > cg.expected;
    ++cg.quartets;
    cg.bad_vs_expected += cloud_bad;
    if (shield_on &&
        !shield->contains(steer_shield_key(q.key.location, q.key.block))) {
      ++cg.unshielded_quartets;
      cg.unshielded_bad += cloud_bad;
    }
    Group& mg = s.groups[m];
    ++mg.quartets;
    mg.bad_vs_expected += q.mean_rtt_ms > mg.expected;

    if (q.bad) {
      ++bad;
      continue;
    }
    const auto [b, new_block] = s.good.insert(q.key.block.block);
    GoodAt& at = s.good[b];
    if (new_block) {
      at.first = q.key.location.value;
    } else {
      at.multi |= at.first != q.key.location.value;
    }
  }

  // Loop 2: hierarchical blame per bad quartet, in input order.
  std::vector<BlameResult> results;
  results.reserve(bad);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& q = quartets[i];
    const Group& cg = s.groups[s.group_of[i].first];
    const Group& mg = s.groups[s.group_of[i].second];
    if (!q.bad) {
      // §13 soft badness: a route change can move a whole middle group to
      // a longer path whose RTT stays under the absolute region target —
      // invisible to the per-quartet threshold, but exactly what the
      // expectation comparison exists to catch. Only RECENTLY CHURNED
      // groups qualify (a live churn event re-routed traffic onto this
      // key): there, "the group crossed τ against its expectation" is a
      // path-shaped signal corroborated by the routing plane, while the
      // same crossing on an unchurned group can equally be a client-side
      // fault inflating a small group (so co-group quartets must keep
      // seed's abstain behavior). Soft-bad quartets are blamed Middle
      // directly and never touch the cloud or client branches.
      if (!config_.churn_baseline_transfer || !mg.churned) continue;
      if (mg.quartets <= config_.min_group_quartets) continue;
      if (mg.bad_fraction() < config_.tau) continue;
      if (q.mean_rtt_ms <= mg.expected) continue;
      results.push_back(BlameResult{
          .quartet = q, .blame = Blame::Middle, .grade = mg.grade()});
      continue;
    }
    BlameResult result{.quartet = q};

    // With a steer shield active, the cloud check runs on the group's
    // UN-shielded evidence: a destination-edge shift that is only visible
    // through just-re-steered /24s has no corroborating cloud-side signal
    // and must fall through to the middle checks. Groups untouched by the
    // shield have unshielded == full counters, so this is the original
    // rule for them; with the shield off it is the original rule for all.
    const bool cloud_blamed =
        shield_on
            ? (cg.unshielded_quartets > config_.min_group_quartets &&
               cg.unshielded_fraction() >= config_.tau)
            : cg.bad_fraction() >= config_.tau;
    if (cg.quartets <= config_.min_group_quartets) {
      result.blame = Blame::Insufficient;
    } else if (cloud_blamed) {
      result.blame = Blame::Cloud;
      result.faulty_as = topology_->cloud_as();
    } else if (mg.quartets <= config_.min_group_quartets) {
      result.blame = Blame::Insufficient;
    } else if (mg.bad_fraction() >= config_.tau) {
      result.blame = Blame::Middle;  // active phase refines to an AS
      result.grade = mg.grade();
    } else {
      // Good somewhere else: at a second location, or at one that is not
      // this quartet's.
      const auto b = s.good.find(q.key.block.block);
      const bool good_elsewhere =
          b != util::FlatTable<GoodAt>::kAbsent &&
          (s.good[b].multi || s.good[b].first != q.key.location.value);
      if (good_elsewhere) {
        result.blame = Blame::Ambiguous;
      } else {
        result.blame = Blame::Client;
        result.faulty_as = q.client_as;
      }
    }
    results.push_back(std::move(result));
  }

  if (blame_c_[0]) {
    for (const auto& r : results) {
      blame_c_[static_cast<std::size_t>(r.blame)]->add();
    }
  }
  return results;
}

}  // namespace blameit::core
