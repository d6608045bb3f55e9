#include "core/background.h"

#include <algorithm>
#include <stdexcept>

#include "core/prioritizer.h"
#include "sim/chaos.h"
#include "util/rng.h"

namespace blameit::core {

void BaselineStore::update(net::CloudLocationId location,
                           net::MiddleSegmentId middle, Baseline baseline) {
  auto& history = baselines_[middle_issue_key(location, middle)];
  history.push_back(std::move(baseline));
  if (history.size() > kHistory) {
    history.erase(history.begin());
  }
}

const Baseline* BaselineStore::get(net::CloudLocationId location,
                                   net::MiddleSegmentId middle) const {
  const auto it = baselines_.find(middle_issue_key(location, middle));
  if (it == baselines_.end() || it->second.empty()) return nullptr;
  return &it->second.back();
}

const Baseline* BaselineStore::get_before(net::CloudLocationId location,
                                          net::MiddleSegmentId middle,
                                          util::MinuteTime when) const {
  const auto it = baselines_.find(middle_issue_key(location, middle));
  if (it == baselines_.end() || it->second.empty()) return nullptr;
  const Baseline* best = nullptr;
  for (const auto& baseline : it->second) {  // oldest first
    if (baseline.when < when) best = &baseline;
  }
  // No baseline predates `when`: every retained probe ran during (or after)
  // the incident and would show the inflated path as "normal", yielding a
  // culprit increase of ~0 — a silent miss. Let the caller take the
  // explicit low-confidence no-baseline path instead.
  return best;
}

void BaselineStore::save(std::string& out) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(baselines_.size());
  for (const auto& [key, history] : baselines_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  store::put_varint(out, keys.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t key : keys) {
    store::put_varint(out, key - prev);
    prev = key;
    const auto& history = baselines_.at(key);
    store::put_varint(out, history.size());
    for (const Baseline& baseline : history) {
      store::put_svarint(out, baseline.when.minutes);
      store::put_f64(out, baseline.cloud_ms);
      store::put_varint(out, baseline.contributions.size());
      for (const auto& [as, ms] : baseline.contributions) {
        store::put_varint(out, as.value);
        store::put_f64(out, ms);
      }
    }
  }
}

void BaselineStore::restore(store::ByteReader& in) {
  std::unordered_map<std::uint64_t, std::vector<Baseline>> baselines;
  const std::uint64_t n_keys = in.varint();
  // A key record is at least 2 bytes (key delta, history length).
  if (n_keys > in.remaining() / 2) {
    in.fail("baseline key count exceeds section");
  }
  baselines.reserve(static_cast<std::size_t>(n_keys));
  std::uint64_t prev = 0;
  for (std::uint64_t k = 0; k < n_keys; ++k) {
    prev = in.next_key(prev, k == 0);
    const std::uint64_t n = in.varint();
    if (n > kHistory) in.fail("baseline history exceeds retention");
    auto& history = baselines[prev];
    history.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      Baseline baseline;
      baseline.when.minutes = in.svarint();
      baseline.cloud_ms = in.f64();
      const std::uint64_t n_contrib = in.varint();
      if (n_contrib > (std::uint64_t{1} << 20)) {
        in.fail("contribution count absurd");
      }
      baseline.contributions.reserve(static_cast<std::size_t>(n_contrib));
      for (std::uint64_t c = 0; c < n_contrib; ++c) {
        const net::AsId as{static_cast<std::uint32_t>(in.varint())};
        const double ms = in.f64();
        baseline.contributions.emplace_back(as, ms);
      }
      history.push_back(std::move(baseline));
    }
  }
  baselines_ = std::move(baselines);
}

BackgroundProber::BackgroundProber(const net::Topology* topology,
                                   sim::TracerouteEngine* engine,
                                   BaselineStore* store, BlameItConfig config,
                                   obs::Registry* registry)
    : topology_(topology), engine_(engine), store_(store), config_(config) {
  if (!topology_ || !engine_ || !store_) {
    throw std::invalid_argument{"BackgroundProber: null dependency"};
  }
  if (config_.background_period_minutes < util::kBucketMinutes) {
    throw std::invalid_argument{
        "BackgroundProber: period shorter than a bucket"};
  }
  probes_c_ = obs::counter(registry, "background.probes");
  churn_probes_c_ = obs::counter(registry, "background.churn_probes");
  unreached_c_ = obs::counter(registry, "background.unreached");
  targets_g_ = obs::gauge(registry, "background.targets");
  baselines_g_ = obs::gauge(registry, "background.baseline_paths");
}

void BackgroundProber::rebuild_targets(util::MinuteTime now) {
  targets_.clear();
  // One representative client /24 per ⟨location, middle segment⟩ under the
  // routes currently installed. Phase-staggered by a hash so the fleet's
  // periodic probes spread across the period instead of spiking together.
  std::unordered_map<std::uint64_t, bool> seen;
  for (const auto& loc : topology_->locations()) {
    for (const auto& block : topology_->blocks()) {
      const auto* route =
          topology_->routing().route_for(loc.id, block.block, now);
      if (!route) continue;
      const auto key = middle_issue_key(loc.id, route->middle);
      if (seen.emplace(key, true).second) {
        targets_.push_back(Target{
            .location = loc.id,
            .middle = route->middle,
            .block = block.block,
            .phase_minutes = static_cast<int>(
                util::hash_combine(key, 0x9E3779B9u) %
                static_cast<std::uint64_t>(
                    config_.background_period_minutes))});
      }
    }
  }
  targets_dirty_ = false;
}

void BackgroundProber::probe(const Target& target, util::MinuteTime now) {
  const auto result = engine_->trace(target.location, target.block, now);
  obs::add(probes_c_);
  if (!result.reached) {
    obs::add(unreached_c_);
    return;
  }
  store_->update(target.location, target.middle,
                 Baseline{.when = now,
                          .cloud_ms = result.cloud_ms,
                          .contributions = result.contributions()});
}

int BackgroundProber::step(util::MinuteTime prev, util::MinuteTime now) {
  if (now <= prev) return 0;
  int probes = 0;

  // Churn-triggered probes first: they also tell us the target list changed.
  // The feed goes through the chaos layer (§13): with control-plane chaos
  // configured, some events are dropped or delivered late; without it this
  // is the raw listener feed verbatim.
  const auto churn = sim::fetch_churn(topology_->routing(), engine_->chaos(),
                                      prev.plus_minutes(1),
                                      now.plus_minutes(1));
  for (const auto& event : churn) {
    // SteerShift moves clients, not routes: the ⟨location, path⟩ target list
    // and its baselines are both still valid, so the prober ignores steers
    // entirely (and churn-blind configs stay bit-identical to the pre-steer
    // feed).
    if (event.kind != net::ChurnKind::SteerShift) {
      targets_dirty_ = true;
      break;
    }
  }
  if (targets_dirty_) rebuild_targets(now);

  if (config_.churn_triggered_probes) {
    for (const auto& event : churn) {
      if (event.kind == net::ChurnKind::SteerShift) continue;
      if (event.kind == net::ChurnKind::Announce &&
          event.time == util::MinuteTime{0}) {
        continue;  // initial table load, not real churn
      }
      if (!event.new_route) continue;
      // Probe a /24 inside the affected prefix from the listening location.
      const net::Slash24 block{event.prefix.network >> 8};
      const auto result = engine_->trace(event.location, block, now);
      ++probes;
      obs::add(probes_c_);
      obs::add(churn_probes_c_);
      if (result.reached) {
        store_->update(event.location, event.new_route->middle,
                       Baseline{.when = now,
                                .cloud_ms = result.cloud_ms,
                                .contributions = result.contributions()});
      } else {
        obs::add(unreached_c_);
      }
    }
  }

  // Periodic probes whose phase fell inside (prev, now].
  const int period = config_.background_period_minutes;
  for (const auto& target : targets_) {
    // Fire at every time T with T % period == phase, T in (prev, now].
    std::int64_t t =
        (prev.minutes / period) * period + target.phase_minutes;
    while (t <= prev.minutes) t += period;
    for (; t <= now.minutes; t += period) {
      probe(target, util::MinuteTime{t});
      ++probes;
    }
  }
  obs::set(targets_g_, static_cast<double>(targets_.size()));
  obs::set(baselines_g_, static_cast<double>(store_->size()));
  return probes;
}

std::uint64_t BackgroundProber::periodic_probes_per_day() const {
  // Count exactly what the firing loop in step() issues over one day
  // (0, kMinutesPerDay]: target t fires at every T ≡ phase (mod period) in
  // the window. Truncating kMinutesPerDay / period instead under-reports
  // whenever the period doesn't divide a day (e.g. 7 h → 3.43 firings/day,
  // and targets whose phase falls early in the day fire 4 times).
  const std::int64_t period = config_.background_period_minutes;
  std::uint64_t total = 0;
  for (const auto& target : targets_) {
    const std::int64_t phase = target.phase_minutes;
    total += static_cast<std::uint64_t>(
        phase == 0 ? util::kMinutesPerDay / period
                   : (util::kMinutesPerDay - phase) / period + 1);
  }
  return total;
}

}  // namespace blameit::core
