// The learn stage against reference oracles: ExpectedRttLearner and
// ClientVolumePredictor (flat tables, dense rows) must reproduce, exactly,
// learners written with node maps and deques the way the paper describes
// them — same reservoir decisions, medians, predictions and snapshot bytes.
// Also: the snapshot readers of the learn stage reject hostile key lists.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/expected_rtt.h"
#include "core/predictors.h"
#include "core/prioritizer.h"
#include "store/snapshot.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace blameit::core {
namespace {

using analysis::BaselineProvenance;
using analysis::ExpectedRttConfig;
using analysis::ExpectedRttKey;
using analysis::ExpectedRttLearner;
using analysis::GradedExpectation;

/// Reference expected-RTT learner: a hash map from key to a deque of
/// per-day reservoirs, a day -> keys eviction index, no memo, and the
/// "learner" snapshot section (format 2, layout tag 0).
class OracleLearner {
 public:
  explicit OracleLearner(ExpectedRttConfig config) : config_(config) {}

  void observe(ExpectedRttKey key, int day, double rtt_ms) {
    auto& days = histories_[key.packed];
    if (days.empty() || days.back().day < day) {
      days.push_back(Reservoir{.day = day, .seen = 0, .sample = {}});
      keys_by_day_[day].push_back(key.packed);
    } else if (days.back().day > day) {
      throw std::invalid_argument{"oracle: observations out of day order"};
    }
    auto& reservoir = days.back();
    ++reservoir.seen;
    const auto cap = static_cast<std::size_t>(config_.reservoir_per_day);
    if (reservoir.sample.size() < cap) {
      reservoir.sample.push_back(rtt_ms);
      return;
    }
    const std::uint64_t slot =
        util::hash_combine(key.packed,
                           util::hash_combine(static_cast<std::uint64_t>(day),
                                              reservoir.seen)) %
        reservoir.seen;
    if (slot < cap) reservoir.sample[static_cast<std::size_t>(slot)] = rtt_ms;
  }

  [[nodiscard]] std::optional<double> expected(ExpectedRttKey key,
                                               int day) const {
    const auto it = histories_.find(key.packed);
    if (it == histories_.end()) return std::nullopt;
    std::vector<double> pool;
    for (const auto& r : it->second) {
      if (r.day >= day || r.day < day - config_.window_days) continue;
      pool.insert(pool.end(), r.sample.begin(), r.sample.end());
    }
    if (pool.empty()) return std::nullopt;
    return util::median_inplace(pool);
  }

  [[nodiscard]] std::size_t history_size(ExpectedRttKey key, int day) const {
    const auto it = histories_.find(key.packed);
    if (it == histories_.end()) return 0;
    std::size_t n = 0;
    for (const auto& r : it->second) {
      if (r.day >= day || r.day < day - config_.window_days) continue;
      n += r.sample.size();
    }
    return n;
  }

  [[nodiscard]] GradedExpectation expected_with_provenance(ExpectedRttKey key,
                                                           int day) const {
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

  bool transfer_baseline(ExpectedRttKey from, ExpectedRttKey to, int day) {
    if (from == to) return false;
    double value = 0.0;
    if (const auto fresh = expected(from, day)) {
      value = *fresh;
    } else if (const auto it = transfers_.find(from.packed);
               it != transfers_.end() &&
               day - it->second.day <= config_.transfer_max_age_days) {
      value = it->second.value * config_.transfer_discount;
    } else {
      return false;
    }
    if (const auto it = transfers_.find(to.packed);
        it != transfers_.end() && it->second.day > day) {
      return false;
    }
    transfers_[to.packed] = Transfer{day, value, from.packed};
    return true;
  }

  [[nodiscard]] bool recently_churned(ExpectedRttKey key, int day) const {
    const auto it = transfers_.find(key.packed);
    return it != transfers_.end() && it->second.day <= day &&
           day - it->second.day <= config_.transfer_max_age_days;
  }

  void evict_stale(int day) {
    std::erase_if(transfers_, [&](const auto& entry) {
      return day - entry.second.day > config_.transfer_max_age_days;
    });
    const int cutoff = day - config_.window_days;
    for (auto bucket = keys_by_day_.begin();
         bucket != keys_by_day_.end() && bucket->first < cutoff;) {
      for (const std::uint64_t key : bucket->second) {
        const auto it = histories_.find(key);
        if (it == histories_.end()) continue;
        while (!it->second.empty() && it->second.front().day < cutoff) {
          it->second.pop_front();
        }
        if (it->second.empty()) histories_.erase(it);
      }
      bucket = keys_by_day_.erase(bucket);
    }
  }

  [[nodiscard]] std::size_t tracked_keys() const { return histories_.size(); }
  [[nodiscard]] std::size_t transfer_count() const {
    return transfers_.size();
  }

  void save_state(store::SnapshotWriter& writer) const {
    std::string& out = writer.section("learner");
    store::put_varint(out, 2);
    store::put_varint(out, 0);
    std::vector<std::uint64_t> keys;
    for (const auto& [key, days] : histories_) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    store::put_varint(out, keys.size());
    std::uint64_t prev = 0;
    for (const std::uint64_t key : keys) {
      store::put_varint(out, key - prev);
      prev = key;
      const auto& days = histories_.at(key);
      store::put_varint(out, days.size());
      for (const auto& r : days) {
        store::put_svarint(out, r.day);
        store::put_varint(out, r.seen);
        store::put_varint(out, r.sample.size());
        for (const double v : r.sample) store::put_f64(out, v);
      }
    }
    store::put_varint(out, transfers_.size());
    prev = 0;
    for (const auto& [key, t] : transfers_) {
      store::put_varint(out, key - prev);
      prev = key;
      store::put_svarint(out, t.day);
      store::put_f64(out, t.value);
      store::put_varint(out, t.from);
    }
  }

  /// Trusts its input: only ever fed what save_state() wrote.
  void restore_state(const store::SnapshotReader& reader) {
    store::ByteReader in = reader.section("learner");
    static_cast<void>(in.varint());  // format
    static_cast<void>(in.varint());  // layout tag
    histories_.clear();
    keys_by_day_.clear();
    transfers_.clear();
    const std::uint64_t n_keys = in.varint();
    std::uint64_t prev = 0;
    for (std::uint64_t k = 0; k < n_keys; ++k) {
      prev += in.varint();
      auto& days = histories_[prev];
      const std::uint64_t n_days = in.varint();
      for (std::uint64_t d = 0; d < n_days; ++d) {
        Reservoir r;
        r.day = static_cast<int>(in.svarint());
        r.seen = in.varint();
        const std::uint64_t n = in.varint();
        for (std::uint64_t s = 0; s < n; ++s) r.sample.push_back(in.f64());
        keys_by_day_[r.day].push_back(prev);
        days.push_back(std::move(r));
      }
    }
    const std::uint64_t n_transfers = in.varint();
    prev = 0;
    for (std::uint64_t i = 0; i < n_transfers; ++i) {
      prev += in.varint();
      Transfer t;
      t.day = static_cast<int>(in.svarint());
      t.value = in.f64();
      t.from = in.varint();
      transfers_[prev] = t;
    }
    in.expect_done();
  }

 private:
  struct Reservoir {
    int day = -1;
    std::uint64_t seen = 0;
    std::vector<double> sample;
  };
  struct Transfer {
    int day = -1;
    double value = 0.0;
    std::uint64_t from = 0;
  };
  ExpectedRttConfig config_;
  std::unordered_map<std::uint64_t, std::deque<Reservoir>> histories_;
  std::map<int, std::vector<std::uint64_t>> keys_by_day_;
  std::map<std::uint64_t, Transfer> transfers_;
};

/// Reference client-volume predictor: key -> bucket-of-day -> deque of
/// (day, users), and the "clients" section bytes.
class OracleClients {
 public:
  explicit OracleClients(int window_days) : window_days_(window_days) {}

  void observe(std::uint64_t key, util::TimeBucket bucket, double users) {
    auto& history = data_[key][bucket.bucket_of_day()];
    if (!history.empty() && history.back().first == bucket.day()) {
      history.back().second = std::max(history.back().second, users);
      return;
    }
    history.emplace_back(bucket.day(), users);
    while (history.size() > static_cast<std::size_t>(window_days_ + 1)) {
      history.pop_front();
    }
  }

  [[nodiscard]] double predict(std::uint64_t key,
                               util::TimeBucket bucket) const {
    const auto kit = data_.find(key);
    if (kit == data_.end()) return 0.0;
    const auto sit = kit->second.find(bucket.bucket_of_day());
    if (sit == kit->second.end()) return 0.0;
    double sum = 0.0;
    int n = 0;
    for (const auto& [day, users] : sit->second) {
      if (day >= bucket.day() || day < bucket.day() - window_days_) continue;
      sum += users;
      ++n;
    }
    return n == 0 ? 0.0 : sum / n;
  }

  void evict_stale(int current_day) {
    for (auto& [key, slots] : data_) {
      for (auto& [bod, history] : slots) {
        while (!history.empty() &&
               history.front().first < current_day - window_days_) {
          history.pop_front();
        }
      }
    }
  }

  void save(std::string& out) const {
    std::vector<std::uint64_t> keys;
    for (const auto& [key, slots] : data_) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    store::put_varint(out, keys.size());
    std::uint64_t prev = 0;
    for (const std::uint64_t key : keys) {
      store::put_varint(out, key - prev);
      prev = key;
      const std::map<int, std::deque<std::pair<int, double>>> slots(
          data_.at(key).begin(), data_.at(key).end());
      store::put_varint(out, slots.size());
      for (const auto& [bod, history] : slots) {
        store::put_svarint(out, bod);
        store::put_varint(out, history.size());
        for (const auto& [day, users] : history) {
          store::put_svarint(out, day);
          store::put_f64(out, users);
        }
      }
    }
  }

  /// Trusts its input: only ever fed what save() wrote.
  void restore(store::ByteReader& in) {
    data_.clear();
    const std::uint64_t n_keys = in.varint();
    std::uint64_t prev = 0;
    for (std::uint64_t k = 0; k < n_keys; ++k) {
      prev += in.varint();
      auto& slots = data_[prev];
      const std::uint64_t n_slots = in.varint();
      for (std::uint64_t s = 0; s < n_slots; ++s) {
        auto& history = slots[static_cast<int>(in.svarint())];
        const std::uint64_t n = in.varint();
        for (std::uint64_t i = 0; i < n; ++i) {
          const auto day = static_cast<int>(in.svarint());
          history.emplace_back(day, in.f64());
        }
      }
    }
  }

 private:
  int window_days_;
  std::unordered_map<std::uint64_t,
                     std::unordered_map<int, std::deque<std::pair<int, double>>>>
      data_;
};

std::string learner_bytes(const ExpectedRttLearner& learner) {
  store::SnapshotWriter writer;
  learner.save_state(writer);
  return writer.serialize();
}
std::string learner_bytes(const OracleLearner& learner) {
  store::SnapshotWriter writer;
  learner.save_state(writer);
  return writer.serialize();
}

/// Saves both sides, checks the sections are byte-identical, and replaces
/// both with instances restored from their own bytes.
void save_and_restore(const ExpectedRttConfig& cfg, int client_days,
                      std::unique_ptr<ExpectedRttLearner>& learner,
                      OracleLearner& oracle_learner,
                      std::unique_ptr<ClientVolumePredictor>& clients,
                      OracleClients& oracle_clients) {
  const std::string bytes = learner_bytes(*learner);
  ASSERT_EQ(bytes, learner_bytes(oracle_learner));
  std::string client_section;
  clients->save(client_section);
  std::string oracle_section;
  oracle_clients.save(oracle_section);
  ASSERT_EQ(client_section, oracle_section);

  store::SnapshotWriter writer;
  writer.section("clients") = client_section;
  const auto reader =
      store::SnapshotReader::from_bytes(writer.serialize(), "<oracle>");
  learner = std::make_unique<ExpectedRttLearner>(cfg);
  learner->restore_state(
      store::SnapshotReader::from_bytes(bytes, "<learner>"));
  oracle_learner.restore_state(
      store::SnapshotReader::from_bytes(bytes, "<learner>"));
  clients = std::make_unique<ClientVolumePredictor>(client_days);
  store::ByteReader in = reader.section("clients");
  clients->restore(in);
  in.expect_done();
  store::ByteReader oracle_in = reader.section("clients");
  oracle_clients.restore(oracle_in);
  ASSERT_EQ(learner_bytes(*learner), bytes);  // restore is lossless
}

TEST(LearnStageOracle, RandomStreamsMatchExactly) {
  constexpr int kStreams = 120;
  std::size_t emptied_keys = 0;
  std::size_t restores = 0;
  std::size_t refeeds = 0;
  std::size_t transferred = 0;
  for (int stream = 0; stream < kStreams; ++stream) {
    util::Rng rng{static_cast<std::uint64_t>(9000 + stream)};
    ExpectedRttConfig cfg;
    cfg.window_days = static_cast<int>(rng.uniform_int(1, 5));
    cfg.reservoir_per_day = static_cast<int>(rng.uniform_int(1, 12));
    cfg.transfer_max_age_days = static_cast<int>(rng.uniform_int(1, 3));
    const int client_days = static_cast<int>(rng.uniform_int(1, 4));
    auto learner = std::make_unique<ExpectedRttLearner>(cfg);
    OracleLearner oracle_learner{cfg};
    auto clients = std::make_unique<ClientVolumePredictor>(client_days);
    OracleClients oracle_clients{client_days};

    // A key universe where each key is live for a random span of days:
    // churn makes keys appear, go silent, empty out and come back.
    const int n_keys = static_cast<int>(rng.uniform_int(1, 40));
    const int n_days = static_cast<int>(rng.uniform_int(3, 16));
    struct Key {
      ExpectedRttKey learner_key;
      std::uint64_t path;
      int first_day;
      int last_day;
    };
    std::vector<Key> keys;
    for (int k = 0; k < n_keys; ++k) {
      const net::CloudLocationId location{
          static_cast<std::uint16_t>(rng.uniform_int(0, 30))};
      const net::MiddleSegmentId middle{
          static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20))};
      const auto device = rng.chance(0.5) ? net::DeviceClass::Mobile
                                          : net::DeviceClass::NonMobile;
      const int first = static_cast<int>(rng.uniform_int(0, n_days - 1));
      const int last = static_cast<int>(rng.uniform_int(first, n_days - 1));
      keys.push_back(Key{
          rng.chance(0.3) ? analysis::cloud_key(location, device)
                          : analysis::middle_key(location, middle, device),
          middle_issue_key(location, middle), first, last});
    }
    // A few buckets of the day, so slots see history across days.
    std::vector<int> bods{0, util::kBucketsPerDay - 1};
    for (int b = 0; b < 3; ++b) {
      bods.push_back(
          static_cast<int>(rng.uniform_int(1, util::kBucketsPerDay - 2)));
    }
    std::sort(bods.begin(), bods.end());
    bods.erase(std::unique(bods.begin(), bods.end()), bods.end());
    const int restore_day = static_cast<int>(rng.uniform_int(1, n_days - 1));

    for (int day = 0; day < n_days; ++day) {
      if (day == restore_day) {
        save_and_restore(cfg, client_days, learner, oracle_learner, clients,
                         oracle_clients);
        if (HasFatalFailure()) return;
        ++restores;
      }
      if (rng.chance(0.8)) {
        const std::size_t before = oracle_learner.tracked_keys();
        learner->evict_stale(day);
        oracle_learner.evict_stale(day);
        clients->evict_stale(day);
        oracle_clients.evict_stale(day);
        emptied_keys += before - oracle_learner.tracked_keys();
      }
      for (const int bod : bods) {
        if (rng.chance(0.15)) continue;  // a bucket with no data
        const util::TimeBucket bucket{
            static_cast<std::int64_t>(day) * util::kBucketsPerDay + bod};
        for (const Key& key : keys) {
          if (day < key.first_day || day > key.last_day) continue;
          const auto n = rng.uniform_int(0, 2 * cfg.reservoir_per_day);
          for (std::int64_t i = 0; i < n; ++i) {
            const double rtt = std::round(rng.uniform(5.0, 400.0) * 8) / 8;
            learner->observe(key.learner_key, day, rtt);
            oracle_learner.observe(key.learner_key, day, rtt);
          }
          // Re-feeds within one bucket keep the max.
          const int feeds = rng.chance(0.2) ? 2 : 1;
          refeeds += feeds - 1;
          for (int f = 0; f < feeds; ++f) {
            const double users = rng.uniform(0.0, 1000.0);
            clients->observe(key.path, bucket, users);
            oracle_clients.observe(key.path, bucket, users);
          }
        }
        if (rng.chance(0.2)) {
          const Key& from = keys[rng() % keys.size()];
          const Key& to = keys[rng() % keys.size()];
          const bool moved =
              learner->transfer_baseline(from.learner_key, to.learner_key, day);
          ASSERT_EQ(moved, oracle_learner.transfer_baseline(
                               from.learner_key, to.learner_key, day));
          transferred += moved;
        }
        // Queries across past, current and future days, in random order so
        // that the learner's memo is left holding any of them.
        std::vector<int> query_days;
        for (int q = day - cfg.window_days - 1; q <= day + 2; ++q) {
          query_days.push_back(q);
        }
        for (const Key& key : keys) {
          std::shuffle(query_days.begin(), query_days.end(), rng);
          for (const int q : query_days) {
            const auto k = key.learner_key;
            ASSERT_EQ(learner->expected(k, q), oracle_learner.expected(k, q))
                << "stream " << stream << " day " << day << " q " << q;
            const auto got = learner->expected_with_provenance(k, q);
            const auto want = oracle_learner.expected_with_provenance(k, q);
            ASSERT_EQ(got.value, want.value);
            ASSERT_EQ(got.provenance, want.provenance);
            ASSERT_EQ(learner->history_size(k, q),
                      oracle_learner.history_size(k, q));
            ASSERT_EQ(learner->recently_churned(k, q),
                      oracle_learner.recently_churned(k, q));
            const util::TimeBucket at{static_cast<std::int64_t>(q) *
                                          util::kBucketsPerDay +
                                      bod};
            if (q >= 0) {
              ASSERT_EQ(clients->predict(key.path, at),
                        oracle_clients.predict(key.path, at))
                  << "stream " << stream << " day " << day << " q " << q;
            }
          }
        }
        ASSERT_EQ(learner->tracked_keys(), oracle_learner.tracked_keys());
        ASSERT_EQ(learner->transfer_count(), oracle_learner.transfer_count());
      }
    }
    std::string client_section;
    clients->save(client_section);
    std::string oracle_section;
    oracle_clients.save(oracle_section);
    ASSERT_EQ(client_section, oracle_section) << "stream " << stream;
    ASSERT_EQ(learner_bytes(*learner), learner_bytes(oracle_learner))
        << "stream " << stream;
  }
  // The streams reached every path the flat layout has to get right.
  EXPECT_GT(emptied_keys, 100u);
  EXPECT_EQ(restores, static_cast<std::size_t>(kStreams));
  EXPECT_GT(refeeds, 100u);
  EXPECT_GT(transferred, 50u);
}

// --- Hostile learn-stage snapshot sections ------------------------------

/// Writes one section and returns the restore error (empty if none).
std::string restore_error(const std::string& section,
                          const std::string& payload) {
  store::SnapshotWriter writer;
  writer.section(section) = payload;
  const auto reader =
      store::SnapshotReader::from_bytes(writer.serialize(), "<hostile>");
  try {
    if (section == "learner") {
      ExpectedRttLearner learner;
      learner.restore_state(reader);
    } else {
      store::ByteReader in = reader.section(section);
      if (section == "clients") {
        ClientVolumePredictor clients{3};
        clients.restore(in);
      } else {
        DurationPredictor durations;
        durations.restore(in);
      }
      in.expect_done();
    }
  } catch (const store::SnapshotError& e) {
    return e.what();
  }
  return "";
}

/// One learner key record: a single reservoir on `day` with one sample.
void put_learner_key(std::string& out, std::uint64_t delta, int day) {
  store::put_varint(out, delta);
  store::put_varint(out, 1);  // reservoirs
  store::put_svarint(out, day);
  store::put_varint(out, 1);  // seen
  store::put_varint(out, 1);  // samples
  store::put_f64(out, 40.0);
}

/// One clients key record with one slot of `history` cells.
void put_client_key(std::string& out, std::uint64_t delta, std::int64_t bod,
                    int history) {
  store::put_varint(out, delta);
  store::put_varint(out, 1);  // slots
  store::put_svarint(out, bod);
  store::put_varint(out, static_cast<std::uint64_t>(history));
  for (int i = 0; i < history; ++i) {
    store::put_svarint(out, i);
    store::put_f64(out, 10.0);
  }
}

TEST(LearnStageSnapshot, HostileSectionsAreRejectedByName) {
  struct Row {
    const char* name;
    std::string section;
    std::string payload;
    std::string message;  ///< "" = must restore cleanly
  };
  std::vector<Row> rows;
  {
    std::string ok;
    store::put_varint(ok, 2);
    store::put_varint(ok, 0);
    store::put_varint(ok, 2);
    put_learner_key(ok, 5, 3);
    put_learner_key(ok, 1, 4);
    store::put_varint(ok, 0);  // transfers
    rows.push_back({"learner well formed", "learner", ok, ""});

    // A zero delta would read as a second record for key 5: its reservoir
    // (day 2) would land behind day 3, out of day order.
    std::string dup;
    store::put_varint(dup, 2);
    store::put_varint(dup, 0);
    store::put_varint(dup, 2);
    put_learner_key(dup, 5, 3);
    put_learner_key(dup, 0, 2);
    store::put_varint(dup, 0);
    rows.push_back({"learner duplicate key", "learner", dup,
                    "duplicate or out-of-order key"});

    std::string wrap;
    store::put_varint(wrap, 2);
    store::put_varint(wrap, 0);
    store::put_varint(wrap, 2);
    put_learner_key(wrap, 5, 3);
    put_learner_key(wrap, ~std::uint64_t{0} - 3, 2);  // wraps to key 1
    store::put_varint(wrap, 0);
    rows.push_back({"learner key delta wraps", "learner", wrap,
                    "duplicate or out-of-order key"});

    std::string dup_transfer;
    store::put_varint(dup_transfer, 2);
    store::put_varint(dup_transfer, 0);
    store::put_varint(dup_transfer, 0);  // keys
    store::put_varint(dup_transfer, 2);  // transfers
    for (const std::uint64_t delta : {7u, 0u}) {
      store::put_varint(dup_transfer, delta);
      store::put_svarint(dup_transfer, 1);
      store::put_f64(dup_transfer, 30.0);
      store::put_varint(dup_transfer, 3);
    }
    rows.push_back({"learner duplicate transfer", "learner", dup_transfer,
                    "duplicate or out-of-order key"});
  }
  {
    std::string ok;
    store::put_varint(ok, 2);
    put_client_key(ok, 9, 0, 4);  // window 3 keeps up to 4 cells
    put_client_key(ok, 1, util::kBucketsPerDay - 1, 1);
    rows.push_back({"clients well formed", "clients", ok, ""});

    std::string dup;
    store::put_varint(dup, 2);
    put_client_key(dup, 9, 0, 1);
    put_client_key(dup, 0, 1, 1);
    rows.push_back({"clients duplicate key", "clients", dup,
                    "duplicate or out-of-order key"});

    std::string bod;
    store::put_varint(bod, 1);
    put_client_key(bod, 9, util::kBucketsPerDay, 1);
    rows.push_back({"clients bucket-of-day past the day", "clients", bod,
                    "bucket-of-day out of range"});

    std::string dup_bod;
    store::put_varint(dup_bod, 1);
    store::put_varint(dup_bod, 9);
    store::put_varint(dup_bod, 2);  // two slots, same bucket-of-day
    for (int s = 0; s < 2; ++s) {
      store::put_svarint(dup_bod, 17);
      store::put_varint(dup_bod, 0);
    }
    rows.push_back({"clients duplicate bucket-of-day", "clients", dup_bod,
                    "duplicate bucket-of-day"});

    std::string long_history;
    store::put_varint(long_history, 1);
    put_client_key(long_history, 9, 0, 5);
    rows.push_back({"clients history past window + 1", "clients",
                    long_history, "slot history longer than window + 1"});
  }
  {
    std::string ok;
    store::put_varint(ok, 2);
    for (const std::uint64_t delta : {4u, 1u}) {
      store::put_varint(ok, delta);
      store::put_varint(ok, 1);
      store::put_svarint(ok, 3);
    }
    store::put_varint(ok, 0);  // global pool
    rows.push_back({"durations well formed", "durations", ok, ""});

    std::string dup;
    store::put_varint(dup, 2);
    for (const std::uint64_t delta : {4u, 0u}) {
      store::put_varint(dup, delta);
      store::put_varint(dup, 1);
      store::put_svarint(dup, 3);
    }
    store::put_varint(dup, 0);
    rows.push_back({"durations duplicate key", "durations", dup,
                    "duplicate or out-of-order key"});
  }

  for (const Row& row : rows) {
    const std::string error = restore_error(row.section, row.payload);
    if (row.message.empty()) {
      EXPECT_EQ(error, "") << row.name;
      continue;
    }
    EXPECT_NE(error.find(row.message), std::string::npos)
        << row.name << ": " << error;
    EXPECT_NE(error.find("section \"" + row.section + "\""),
              std::string::npos)
        << row.name << ": " << error;
  }
}

TEST(LearnStageSnapshot, ClientKeyCountIsBoundedByTheSection) {
  // Each declared key would cost a dense row of kBucketsPerDay x (window+1)
  // cells; 2^30 keys over a few bytes must fail before the first row.
  std::string huge;
  store::put_varint(huge, std::uint64_t{1} << 30);
  put_client_key(huge, 9, 0, 1);
  const std::string error = restore_error("clients", huge);
  EXPECT_NE(error.find("client key count exceeds section"), std::string::npos)
      << error;
  EXPECT_NE(error.find("section \"clients\""), std::string::npos) << error;

  // A count the bytes can hold still restores.
  std::string ok;
  store::put_varint(ok, 1);
  put_client_key(ok, 9, 0, 1);
  EXPECT_EQ(restore_error("clients", ok), "");
}

TEST(LearnStageSnapshot, FailedRestoreKeepsPreviousState) {
  ClientVolumePredictor clients{3};
  const util::TimeBucket bucket{5 * util::kBucketsPerDay + 7};
  clients.observe(11, bucket, 100.0);
  std::string before;
  clients.save(before);

  std::string hostile;
  store::put_varint(hostile, 2);
  put_client_key(hostile, 9, 0, 1);
  put_client_key(hostile, 1, util::kBucketsPerDay + 3, 1);
  store::SnapshotWriter writer;
  writer.section("clients") = hostile;
  const auto reader =
      store::SnapshotReader::from_bytes(writer.serialize(), "<hostile>");
  store::ByteReader in = reader.section("clients");
  EXPECT_THROW(clients.restore(in), store::SnapshotError);
  std::string after;
  clients.save(after);
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace blameit::core
