#include "analysis/expected_rtt.h"

#include <algorithm>
#include <stdexcept>

#include "util/stats.h"

namespace blameit::analysis {

namespace {

// Second varint of the "learner" section. Tag 1 marked the columnar
// backend's layout, which has since been removed.
constexpr std::uint64_t kHashMapLayoutTag = 0;
constexpr std::uint64_t kRemovedColumnarLayoutTag = 1;

}  // namespace

ExpectedRttKey cloud_key(net::CloudLocationId location,
                         net::DeviceClass device) noexcept {
  return ExpectedRttKey{(std::uint64_t{1} << 62) |
                        (std::uint64_t{location.value} << 8) |
                        static_cast<std::uint64_t>(device)};
}

ExpectedRttKey middle_key(net::CloudLocationId location,
                          net::MiddleSegmentId middle,
                          net::DeviceClass device) noexcept {
  return ExpectedRttKey{(std::uint64_t{2} << 62) |
                        (std::uint64_t{location.value} << 40) |
                        (std::uint64_t{middle.value} << 8) |
                        static_cast<std::uint64_t>(device)};
}

ExpectedRttLearner::ExpectedRttLearner(ExpectedRttConfig config)
    : config_(config) {
  if (config_.window_days < 1 || config_.reservoir_per_day < 1) {
    throw std::invalid_argument{"ExpectedRttConfig: invalid window/reservoir"};
  }
  if (config_.transfer_discount < 1.0 || config_.transfer_max_age_days < 1) {
    throw std::invalid_argument{
        "ExpectedRttConfig: transfer discount must be >= 1 and max age >= 1"};
  }
  memo_hits_c_ = obs::counter(config_.registry, "learner.memo_hits");
  memo_misses_c_ = obs::counter(config_.registry, "learner.memo_misses");
  evictions_c_ = obs::counter(config_.registry, "learner.reservoir_evictions");
  tracked_keys_g_ = obs::gauge(config_.registry, "learner.tracked_keys");
}

void ExpectedRttLearner::observe(ExpectedRttKey key, int day, double rtt_ms) {
  if (day < 0 || rtt_ms < 0.0) {
    throw std::invalid_argument{"ExpectedRttLearner: negative day or RTT"};
  }
  const auto [pos, added] = histories_.insert(key.packed);
  KeyHistory& history = histories_[pos];
  if (added) {
    history.key = key.packed;
    obs::set(tracked_keys_g_, static_cast<double>(histories_.size()));
  }
  if (history.days.empty() || history.days.back().day < day) {
    history.days.push_back(DayReservoir{.day = day, .seen = 0, .sample = {}});
  } else if (history.days.back().day > day) {
    throw std::invalid_argument{
        "ExpectedRttLearner: observations must arrive day-ordered"};
  }
  // A cached median for query day q pools days [q - window, q - 1]; this
  // observation lands on `day`, inside that window only when q > day. The
  // steady state — cache and observations both on the current day — keeps
  // the cache warm, which is the whole point.
  if (history.cache_day > day) history.cache_day = INT_MIN;
  auto& reservoir = history.days.back();
  ++reservoir.seen;
  const auto cap = static_cast<std::size_t>(config_.reservoir_per_day);
  if (reservoir.sample.size() < cap) {
    reservoir.sample.push_back(rtt_ms);
  } else {
    // Algorithm R: keep a uniform sample of the day's stream, deterministic
    // via a counter-seeded hash rather than shared RNG state.
    const std::uint64_t slot =
        util::hash_combine(key.packed,
                           util::hash_combine(
                               static_cast<std::uint64_t>(day),
                               reservoir.seen)) %
        reservoir.seen;
    if (slot < cap) reservoir.sample[static_cast<std::size_t>(slot)] = rtt_ms;
  }
}

std::optional<double> ExpectedRttLearner::pooled_median(
    const KeyHistory& history, int day) const {
  static thread_local std::vector<double> pool;
  pool.clear();
  for (const auto& reservoir : history.days) {
    if (reservoir.day >= day || reservoir.day < day - config_.window_days) {
      continue;
    }
    pool.insert(pool.end(), reservoir.sample.begin(), reservoir.sample.end());
  }
  if (pool.empty()) return std::nullopt;
  return util::median_inplace(pool);
}

const ExpectedRttLearner::KeyHistory* ExpectedRttLearner::find(
    ExpectedRttKey key) const {
  const std::uint32_t pos = histories_.find(key.packed);
  return pos == util::FlatTable<KeyHistory>::kAbsent ? nullptr
                                                      : &histories_[pos];
}

std::optional<double> ExpectedRttLearner::expected(ExpectedRttKey key,
                                                   int day) const {
  const KeyHistory* found = find(key);
  if (!found) return std::nullopt;
  const KeyHistory& history = *found;
  if (history.cache_day != day) {
    obs::add(memo_misses_c_);
    history.cache_value = pooled_median(history, day);
    history.cache_day = day;
  } else {
    obs::add(memo_hits_c_);
  }
  return history.cache_value;
}

GradedExpectation ExpectedRttLearner::expected_with_provenance(
    ExpectedRttKey key, int day) const {
  if (auto fresh = expected(key, day)) {
    return GradedExpectation{fresh, BaselineProvenance::kFresh};
  }
  const auto it = transfers_.find(key.packed);
  if (it != transfers_.end() &&
      day - it->second.day <= config_.transfer_max_age_days) {
    return GradedExpectation{it->second.value * config_.transfer_discount,
                             BaselineProvenance::kTransferred};
  }
  return GradedExpectation{};
}

bool ExpectedRttLearner::transfer_baseline(ExpectedRttKey from_key,
                                           ExpectedRttKey to_key, int day) {
  if (from_key == to_key) return false;
  // Capture the source value NOW — eager capture is what makes the transfer
  // survive the source path's history being evicted afterwards.
  double value = 0.0;
  if (const auto fresh = expected(from_key, day)) {
    value = *fresh;
  } else if (const auto it = transfers_.find(from_key.packed);
             it != transfers_.end() &&
             day - it->second.day <= config_.transfer_max_age_days) {
    // Chained transfer (the path churned twice inside the age limit): one
    // more discount compounds at read time.
    value = it->second.value * config_.transfer_discount;
  } else {
    return false;  // source has nothing usable
  }
  // No-clobber: a strictly fresher transfer must not be overwritten by a
  // replayed or late-delivered churn event. A target with real window
  // history still gets the entry recorded — serving always prefers the
  // fresh median (expected_with_provenance), so the entry cannot clobber
  // anything, but it marks the key as recently churned (the soft-badness
  // corroboration signal) and survives the fresh history being evicted.
  if (const auto it = transfers_.find(to_key.packed);
      it != transfers_.end() && it->second.day > day) {
    return false;
  }
  transfers_[to_key.packed] =
      TransferEntry{.day = day, .value = value, .from_key = from_key.packed};
  return true;
}

bool ExpectedRttLearner::recently_churned(ExpectedRttKey key, int day) const {
  const auto it = transfers_.find(key.packed);
  return it != transfers_.end() && it->second.day <= day &&
         day - it->second.day <= config_.transfer_max_age_days;
}

std::size_t ExpectedRttLearner::history_size(ExpectedRttKey key,
                                             int day) const {
  const KeyHistory* history = find(key);
  if (!history) return 0;
  std::size_t n = 0;
  for (const auto& reservoir : history->days) {
    if (reservoir.day >= day || reservoir.day < day - config_.window_days) {
      continue;
    }
    n += reservoir.sample.size();
  }
  return n;
}

void ExpectedRttLearner::evict_stale(int day) {
  // Transfers past the age limit stopped being served already; drop them so
  // churned-away paths don't grow the side table forever.
  for (auto it = transfers_.begin(); it != transfers_.end();) {
    if (day - it->second.day > config_.transfer_max_age_days) {
      it = transfers_.erase(it);
    } else {
      ++it;
    }
  }
  const int cutoff = day - config_.window_days;
  bool emptied = false;
  for (KeyHistory& history : histories_.values()) {
    const auto live = std::find_if(
        history.days.begin(), history.days.end(),
        [cutoff](const DayReservoir& r) { return r.day >= cutoff; });
    if (live == history.days.begin()) continue;
    obs::add(evictions_c_,
             static_cast<std::uint64_t>(live - history.days.begin()));
    history.days.erase(history.days.begin(), live);
    // A popped reservoir may sit inside the window of a cached (older)
    // query day, so any cached value is suspect now.
    history.cache_day = INT_MIN;
    emptied |= history.days.empty();
  }
  if (emptied) {
    // Keys that churned away must not leak: rebuild the table from the
    // keys that still hold a reservoir.
    std::vector<KeyHistory> live;
    live.reserve(histories_.size());
    for (KeyHistory& history : histories_.values()) {
      if (!history.days.empty()) live.push_back(std::move(history));
    }
    histories_.clear();
    for (KeyHistory& history : live) {
      histories_[histories_.insert(history.key).first] = std::move(history);
    }
    obs::set(tracked_keys_g_, static_cast<double>(histories_.size()));
  }
}

void ExpectedRttLearner::save_state(store::SnapshotWriter& writer) const {
  std::string& out = writer.section("learner");
  // Format 2 = format 1 + the trailing transfer side table (std::map order,
  // so transferred provenance round-trips bit-identically).
  store::put_varint(out, 2);  // learner payload format
  store::put_varint(out, kHashMapLayoutTag);
  std::vector<const KeyHistory*> sorted;
  sorted.reserve(histories_.size());
  for (const KeyHistory& history : histories_.values()) {
    sorted.push_back(&history);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const KeyHistory* a, const KeyHistory* b) {
              return a->key < b->key;
            });
  store::put_varint(out, sorted.size());
  std::uint64_t prev = 0;
  for (const KeyHistory* history : sorted) {
    store::put_varint(out, history->key - prev);
    prev = history->key;
    store::put_varint(out, history->days.size());
    for (const DayReservoir& reservoir : history->days) {
      store::put_svarint(out, reservoir.day);
      store::put_varint(out, reservoir.seen);
      store::put_varint(out, reservoir.sample.size());
      for (const double v : reservoir.sample) store::put_f64(out, v);
    }
  }
  store::put_varint(out, transfers_.size());
  prev = 0;
  for (const auto& [key, entry] : transfers_) {
    store::put_varint(out, key - prev);
    prev = key;
    store::put_svarint(out, entry.day);
    store::put_f64(out, entry.value);
    store::put_varint(out, entry.from_key);
  }
}

void ExpectedRttLearner::restore_state(const store::SnapshotReader& reader) {
  store::ByteReader in = reader.section("learner");
  const std::uint64_t format = in.varint();
  if (format != 1 && format != 2) {
    in.fail("unsupported learner payload format " + std::to_string(format));
  }
  const std::uint64_t layout = in.varint();
  if (layout == kRemovedColumnarLayoutTag) {
    in.fail("written by the removed columnar state backend; that layout "
            "is no longer readable");
  }
  if (layout != kHashMapLayoutTag) {
    in.fail("unknown learner layout tag " + std::to_string(layout));
  }
  util::FlatTable<KeyHistory> histories;
  const std::uint64_t n_keys = in.varint();
  if (n_keys > (std::uint64_t{1} << 40)) in.fail("key count absurd");
  std::uint64_t prev = 0;
  for (std::uint64_t k = 0; k < n_keys; ++k) {
    prev = in.next_key(prev, k == 0);
    KeyHistory& history = histories[histories.insert(prev).first];
    history.key = prev;
    const std::uint64_t n_days = in.varint();
    if (n_days == 0) in.fail("key without reservoirs");
    if (n_days > (std::uint64_t{1} << 32)) in.fail("day count absurd");
    int last_day = INT_MIN;
    for (std::uint64_t d = 0; d < n_days; ++d) {
      DayReservoir reservoir;
      const std::int64_t day64 = in.svarint();
      if (day64 < 0 || day64 > INT_MAX) in.fail("reservoir day out of range");
      reservoir.day = static_cast<int>(day64);
      if (reservoir.day <= last_day) {
        in.fail("reservoir days not strictly ascending");
      }
      last_day = reservoir.day;
      reservoir.seen = in.varint();
      const std::uint64_t n_samples = in.varint();
      if (n_samples >
          static_cast<std::uint64_t>(config_.reservoir_per_day)) {
        in.fail("sample count exceeds reservoir cap");
      }
      reservoir.sample.reserve(static_cast<std::size_t>(n_samples));
      for (std::uint64_t s = 0; s < n_samples; ++s) {
        reservoir.sample.push_back(in.f64());
      }
      history.days.push_back(std::move(reservoir));
    }
  }
  std::map<std::uint64_t, TransferEntry> transfers;
  if (format >= 2) {
    const std::uint64_t n = in.varint();
    if (n > (std::uint64_t{1} << 40)) in.fail("transfer count absurd");
    prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      prev = in.next_key(prev, i == 0);
      TransferEntry entry;
      const std::int64_t day64 = in.svarint();
      if (day64 < 0 || day64 > INT_MAX) in.fail("transfer day out of range");
      entry.day = static_cast<int>(day64);
      entry.value = in.f64();
      entry.from_key = in.varint();
      transfers.emplace_hint(transfers.end(), prev, entry);
    }
  }
  in.expect_done();
  histories_ = std::move(histories);
  transfers_ = std::move(transfers);
  obs::set(tracked_keys_g_, static_cast<double>(histories_.size()));
}

}  // namespace blameit::analysis
