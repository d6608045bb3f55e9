#include "core/predictors.h"

#include <algorithm>
#include <climits>
#include <stdexcept>

namespace blameit::core {

DurationPredictor::DurationPredictor(int horizon_buckets)
    : horizon_(horizon_buckets) {
  if (horizon_ < 1) {
    throw std::invalid_argument{"DurationPredictor: horizon must be >= 1"};
  }
}

void DurationPredictor::Pool::add(int duration) {
  durations.push_back(duration);
  const std::size_t pos = first_at_least(duration);
  if (pos == distinct.size() || distinct[pos] != duration) {
    const auto at = static_cast<std::ptrdiff_t>(pos);
    at_least.insert(at_least.begin() + at, count_from(pos));
    distinct.insert(distinct.begin() + at, duration);
  }
  for (std::size_t i = 0; i <= pos; ++i) ++at_least[i];
}

std::size_t DurationPredictor::Pool::first_at_least(int v) const {
  return static_cast<std::size_t>(
      std::lower_bound(distinct.begin(), distinct.end(), v) -
      distinct.begin());
}

void DurationPredictor::record_duration(std::uint64_t key,
                                        int duration_buckets) {
  if (duration_buckets < 1) {
    throw std::invalid_argument{"DurationPredictor: duration must be >= 1"};
  }
  per_key_[key].add(duration_buckets);
  global_.add(duration_buckets);
}

const DurationPredictor::Pool& DurationPredictor::pool_for(
    std::uint64_t key) const {
  const auto it = per_key_.find(key);
  if (it != per_key_.end() && it->second.durations.size() >= kMinKeyHistory) {
    return it->second;
  }
  return global_;
}

double DurationPredictor::expected_remaining_from(const Pool& pool,
                                                  int elapsed, int horizon) {
  // An issue observed bad for `elapsed` buckets is consistent with any total
  // duration D >= elapsed (it may end exactly now). Then
  //   E[T_extra | D >= elapsed] = Σ_{T=1..horizon} P(D >= elapsed+T | D >=
  //   elapsed)
  // — the paper's Σ P(T|t)·T written as a survival sum. The thresholds only
  // rise, so one cursor walks the survival index once: O(log n + horizon).
  std::size_t i = pool.first_at_least(elapsed);
  const std::size_t alive = pool.count_from(i);
  if (alive == 0) return 1.0;  // outlasted all precedent: assume one more
  double expected = 0.0;
  for (int extra = 1; extra <= horizon; ++extra) {
    while (i < pool.distinct.size() && pool.distinct[i] < elapsed + extra) {
      ++i;
    }
    const std::size_t surviving = pool.count_from(i);
    expected += static_cast<double>(surviving) / static_cast<double>(alive);
    if (surviving == 0) break;
  }
  return expected;
}

double DurationPredictor::expected_remaining(std::uint64_t key,
                                             int elapsed_buckets) const {
  if (elapsed_buckets < 1) elapsed_buckets = 1;
  const Pool& pool = pool_for(key);
  if (pool.durations.empty()) return 1.0;
  return expected_remaining_from(pool, elapsed_buckets, horizon_);
}

double DurationPredictor::conditional_survival(std::uint64_t key,
                                               int elapsed_buckets,
                                               int extra_buckets) const {
  const Pool& pool = pool_for(key);
  const std::size_t alive =
      pool.count_from(pool.first_at_least(elapsed_buckets));
  const std::size_t surviving =
      pool.count_from(pool.first_at_least(elapsed_buckets + extra_buckets));
  if (alive == 0) return 0.0;
  return static_cast<double>(surviving) / static_cast<double>(alive);
}

std::size_t DurationPredictor::history_count(std::uint64_t key) const {
  const auto it = per_key_.find(key);
  return it == per_key_.end() ? 0 : it->second.durations.size();
}

void DurationPredictor::save(std::string& out) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(per_key_.size());
  for (const auto& [key, pool] : per_key_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  store::put_varint(out, keys.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t key : keys) {
    store::put_varint(out, key - prev);
    prev = key;
    const auto& durations = per_key_.at(key).durations;
    store::put_varint(out, durations.size());
    for (const int d : durations) store::put_svarint(out, d);
  }
  store::put_varint(out, global_.durations.size());
  for (const int d : global_.durations) store::put_svarint(out, d);
}

void DurationPredictor::restore(store::ByteReader& in) {
  std::unordered_map<std::uint64_t, Pool> per_key;
  const std::uint64_t n_keys = in.varint();
  if (n_keys > (std::uint64_t{1} << 40)) in.fail("duration key count absurd");
  std::uint64_t prev = 0;
  for (std::uint64_t k = 0; k < n_keys; ++k) {
    prev = in.next_key(prev, k == 0);
    const std::uint64_t n = in.varint();
    if (n > (std::uint64_t{1} << 32)) in.fail("duration history absurd");
    Pool& pool = per_key[prev];
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::int64_t d = in.svarint();
      if (d < 1 || d > INT_MAX) in.fail("duration out of range");
      pool.add(static_cast<int>(d));
    }
  }
  const std::uint64_t n_global = in.varint();
  if (n_global > (std::uint64_t{1} << 40)) in.fail("global pool absurd");
  Pool global;
  for (std::uint64_t i = 0; i < n_global; ++i) {
    const std::int64_t d = in.svarint();
    if (d < 1 || d > INT_MAX) in.fail("duration out of range");
    global.add(static_cast<int>(d));
  }
  per_key_ = std::move(per_key);
  global_ = std::move(global);
}

ClientVolumePredictor::ClientVolumePredictor(int window_days)
    : window_days_(window_days),
      slot_cells_(static_cast<std::size_t>(window_days) + 1) {
  if (window_days_ < 1) {
    throw std::invalid_argument{"ClientVolumePredictor: window must be >= 1"};
  }
}

void ClientVolumePredictor::add_row() {
  cells_.resize(cells_.size() + util::kBucketsPerDay * slot_cells_);
  lengths_.resize(lengths_.size() + util::kBucketsPerDay, -1);
}

void ClientVolumePredictor::observe(std::uint64_t key, util::TimeBucket bucket,
                                    double users) {
  if (bucket.index < 0) {
    throw std::invalid_argument{"ClientVolumePredictor: negative bucket"};
  }
  const auto [row, added] = rows_.insert(key);
  if (added) {
    rows_[row] = key;
    add_row();
  }
  const std::size_t slot = slot_index(row, bucket.bucket_of_day());
  std::int32_t& length = lengths_[slot];
  Cell* cells = slot_cells(slot);
  const int day = bucket.day();
  if (length > 0 && cells[length - 1].day == day) {
    // Multiple observations within one bucket (e.g. re-feeds): keep the max.
    cells[length - 1].users = std::max(cells[length - 1].users, users);
    return;
  }
  if (length < 0) length = 0;
  if (static_cast<std::size_t>(length) == slot_cells_) {
    // Full: the oldest observation leaves the window.
    std::copy(cells + 1, cells + length, cells);
    --length;
  }
  cells[length++] = Cell{.day = day, .users = users};
}

double ClientVolumePredictor::predict(std::uint64_t key,
                                      util::TimeBucket bucket) const {
  const std::uint32_t row = rows_.find(key);
  if (row == util::FlatTable<std::uint64_t>::kAbsent || bucket.index < 0) {
    return 0.0;
  }
  const std::size_t slot = slot_index(row, bucket.bucket_of_day());
  const Cell* cells = slot_cells(slot);
  double sum = 0.0;
  int n = 0;
  for (std::int32_t c = 0; c < lengths_[slot]; ++c) {
    const int day = cells[c].day;
    if (day >= bucket.day() || day < bucket.day() - window_days_) continue;
    sum += cells[c].users;
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

void ClientVolumePredictor::evict_stale(int current_day) {
  for (std::size_t slot = 0; slot < lengths_.size(); ++slot) {
    std::int32_t& length = lengths_[slot];
    Cell* cells = slot_cells(slot);
    std::int32_t stale = 0;
    while (stale < length && cells[stale].day < current_day - window_days_) {
      ++stale;
    }
    if (stale == 0) continue;
    std::copy(cells + stale, cells + length, cells);
    length -= stale;
  }
}

void ClientVolumePredictor::save(std::string& out) const {
  std::vector<std::uint32_t> rows(rows_.size());
  for (std::uint32_t row = 0; row < rows.size(); ++row) rows[row] = row;
  std::sort(rows.begin(), rows.end(), [&](std::uint32_t a, std::uint32_t b) {
    return rows_[a] < rows_[b];
  });
  store::put_varint(out, rows.size());
  std::uint64_t prev = 0;
  for (const std::uint32_t row : rows) {
    store::put_varint(out, rows_[row] - prev);
    prev = rows_[row];
    const auto fed = static_cast<std::uint64_t>(std::count_if(
        lengths_.begin() + static_cast<std::ptrdiff_t>(slot_index(row, 0)),
        lengths_.begin() +
            static_cast<std::ptrdiff_t>(slot_index(row + 1, 0)),
        [](std::int32_t length) { return length >= 0; }));
    store::put_varint(out, fed);
    for (int bod = 0; bod < util::kBucketsPerDay; ++bod) {
      const std::size_t slot = slot_index(row, bod);
      if (lengths_[slot] < 0) continue;
      store::put_svarint(out, bod);
      store::put_varint(out, static_cast<std::uint64_t>(lengths_[slot]));
      const Cell* cells = slot_cells(slot);
      for (std::int32_t c = 0; c < lengths_[slot]; ++c) {
        store::put_svarint(out, cells[c].day);
        store::put_f64(out, cells[c].users);
      }
    }
  }
}

void ClientVolumePredictor::restore(store::ByteReader& in) {
  ClientVolumePredictor restored{window_days_};
  const std::uint64_t n_keys = in.varint();
  // Each key costs a dense row, so its count is checked against the input
  // before any row exists: a key record is at least 4 bytes (key delta,
  // slot count, one slot's bucket-of-day and length).
  if (n_keys > in.remaining() / 4) in.fail("client key count exceeds section");
  std::uint64_t prev = 0;
  for (std::uint64_t k = 0; k < n_keys; ++k) {
    prev = in.next_key(prev, k == 0);
    const std::uint32_t row = restored.rows_.insert(prev).first;
    restored.rows_[row] = prev;
    restored.add_row();
    const std::uint64_t n_slots = in.varint();
    if (n_slots == 0) in.fail("client key without slots");
    if (n_slots > static_cast<std::uint64_t>(util::kBucketsPerDay)) {
      in.fail("slot count exceeds buckets per day");
    }
    for (std::uint64_t s = 0; s < n_slots; ++s) {
      const std::int64_t bod = in.svarint();
      if (bod < 0 || bod >= util::kBucketsPerDay) {
        in.fail("bucket-of-day out of range");
      }
      const std::size_t slot = restored.slot_index(row, static_cast<int>(bod));
      if (restored.lengths_[slot] >= 0) in.fail("duplicate bucket-of-day");
      const std::uint64_t n = in.varint();
      if (n > slot_cells_) in.fail("slot history longer than window + 1");
      Cell* cells = restored.slot_cells(slot);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::int64_t day = in.svarint();
        if (day < 0 || day > INT_MAX) in.fail("history day out of range");
        cells[i] = Cell{.day = static_cast<int>(day), .users = in.f64()};
      }
      restored.lengths_[slot] = static_cast<std::int32_t>(n);
    }
  }
  *this = std::move(restored);
}

}  // namespace blameit::core
