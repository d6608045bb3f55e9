#include "analysis/expected_rtt.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace blameit::analysis {
namespace {

const auto kLoc = net::CloudLocationId{3};
const auto kKey = cloud_key(kLoc, net::DeviceClass::NonMobile);

TEST(ExpectedRttKeys, DistinctNamespaces) {
  const auto ck = cloud_key(kLoc, net::DeviceClass::NonMobile);
  const auto mk =
      middle_key(kLoc, net::MiddleSegmentId{0}, net::DeviceClass::NonMobile);
  EXPECT_NE(ck, mk);
  EXPECT_NE(cloud_key(kLoc, net::DeviceClass::Mobile), ck);
  EXPECT_NE(middle_key(kLoc, net::MiddleSegmentId{1},
                       net::DeviceClass::NonMobile),
            mk);
  EXPECT_NE(middle_key(net::CloudLocationId{4}, net::MiddleSegmentId{0},
                       net::DeviceClass::NonMobile),
            mk);
}

TEST(ExpectedRttLearner, MedianOverWindow) {
  ExpectedRttLearner learner;
  for (int day = 0; day < 14; ++day) {
    for (int i = 0; i < 20; ++i) {
      learner.observe(kKey, day, 40.0 + day * 0.1);
    }
  }
  const auto expected = learner.expected(kKey, 14);
  ASSERT_TRUE(expected.has_value());
  EXPECT_NEAR(*expected, 40.65, 0.1);  // median across days 0..13
}

TEST(ExpectedRttLearner, NoHistoryGivesNullopt) {
  ExpectedRttLearner learner;
  EXPECT_FALSE(learner.expected(kKey, 5).has_value());
  learner.observe(kKey, 5, 40.0);
  // Day 5 itself is excluded when asking about day 5.
  EXPECT_FALSE(learner.expected(kKey, 5).has_value());
  EXPECT_TRUE(learner.expected(kKey, 6).has_value());
}

TEST(ExpectedRttLearner, CurrentDayExcluded) {
  // An ongoing incident must not teach the learner its own inflation.
  ExpectedRttLearner learner;
  for (int i = 0; i < 50; ++i) learner.observe(kKey, 0, 40.0);
  for (int i = 0; i < 50; ++i) learner.observe(kKey, 1, 400.0);  // incident
  const auto expected = learner.expected(kKey, 1);
  ASSERT_TRUE(expected.has_value());
  EXPECT_DOUBLE_EQ(*expected, 40.0);
}

TEST(ExpectedRttLearner, WindowSlidesForward) {
  ExpectedRttConfig cfg;
  cfg.window_days = 3;
  ExpectedRttLearner learner{cfg};
  for (int i = 0; i < 10; ++i) learner.observe(kKey, 0, 10.0);
  for (int i = 0; i < 10; ++i) learner.observe(kKey, 5, 90.0);
  // At day 6, only day 5 is inside the 3-day window.
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 6).value(), 90.0);
  // At day 2, only day 0 is inside.
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 2).value(), 10.0);
  // At day 9, nothing is inside.
  EXPECT_FALSE(learner.expected(kKey, 9).has_value());
}

TEST(ExpectedRttLearner, ReservoirBoundsMemory) {
  ExpectedRttConfig cfg;
  cfg.reservoir_per_day = 32;
  ExpectedRttLearner learner{cfg};
  for (int i = 0; i < 10000; ++i) learner.observe(kKey, 0, 40.0 + i % 7);
  EXPECT_EQ(learner.history_size(kKey, 1), 32u);
  const auto expected = learner.expected(kKey, 1);
  ASSERT_TRUE(expected.has_value());
  EXPECT_GT(*expected, 39.0);
  EXPECT_LT(*expected, 47.0);
}

TEST(ExpectedRttLearner, ReservoirKeepsRepresentativeMedian) {
  ExpectedRttConfig cfg;
  cfg.reservoir_per_day = 64;
  ExpectedRttLearner learner{cfg};
  // Stream with true median 50.
  for (int i = 0; i < 5000; ++i) {
    learner.observe(kKey, 0, static_cast<double>(i % 101));
  }
  EXPECT_NEAR(learner.expected(kKey, 1).value(), 50.0, 12.0);
}

TEST(ExpectedRttLearner, CacheInvalidatedAtDayRollover) {
  ExpectedRttLearner learner;
  for (int i = 0; i < 20; ++i) learner.observe(kKey, 0, 10.0);
  // Prime the ⟨key, day 1⟩ cache.
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 1).value(), 10.0);
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 1).value(), 10.0);  // cached
  // Day rolls over: new observations land on day 1, queries move to day 2;
  // a stale cache would keep answering 10.
  for (int i = 0; i < 1000; ++i) learner.observe(kKey, 1, 100.0);
  const auto expected = learner.expected(kKey, 2);
  ASSERT_TRUE(expected.has_value());
  EXPECT_GT(*expected, 50.0);  // pooled over both days, dominated by day 1
  // The day-1 view is still served (recomputed) correctly.
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 1).value(), 10.0);
}

TEST(ExpectedRttLearner, CacheInvalidatedByEvictStale) {
  ExpectedRttConfig cfg;
  cfg.window_days = 2;
  ExpectedRttLearner learner{cfg};
  learner.observe(kKey, 0, 10.0);
  learner.observe(kKey, 6, 20.0);
  // Prime the cache for query day 2 (sees only day 0).
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 2).value(), 10.0);
  // Evicting day 0 must flush that cached value, not serve it stale.
  learner.evict_stale(6);
  EXPECT_FALSE(learner.expected(kKey, 2).has_value());
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 7).value(), 20.0);
}

TEST(ExpectedRttLearner, MemoizationDoesNotChangeResults) {
  // One learner answers every query from its (repeatedly warmed and
  // invalidated) cache; each answer must equal a cold learner fed the same
  // observations and asked only that one query, so its cache is never warm.
  ExpectedRttLearner cached;
  std::vector<std::pair<int, double>> fed;  // (day, rtt) in feed order
  util::Rng rng{11};
  for (int day = 0; day < 6; ++day) {
    for (int i = 0; i < 400; ++i) {  // overflows the reservoir too
      const double rtt = rng.uniform(20.0, 90.0);
      cached.observe(kKey, day, rtt);
      fed.emplace_back(day, rtt);
    }
    for (int q = 0; q <= day + 1; ++q) {
      ExpectedRttLearner cold;
      for (const auto& [d, rtt] : fed) cold.observe(kKey, d, rtt);
      ASSERT_EQ(cached.expected(kKey, q), cold.expected(kKey, q))
          << "day " << day << " query " << q;
    }
  }
}

TEST(ExpectedRttLearner, EvictErasesEmptiedKeys) {
  ExpectedRttConfig cfg;
  cfg.window_days = 2;
  ExpectedRttLearner learner{cfg};
  // 64 churned keys (seen once, never again) + one live key.
  for (std::uint16_t loc = 0; loc < 64; ++loc) {
    learner.observe(cloud_key(net::CloudLocationId{loc},
                              net::DeviceClass::Mobile),
                    0, 40.0);
  }
  learner.observe(kKey, 0, 40.0);
  EXPECT_EQ(learner.tracked_keys(), 65u);
  learner.observe(kKey, 9, 41.0);
  learner.evict_stale(9);
  // Only the key with a live reservoir survives; a learner that keeps empty
  // histories around would still report 65 and grow without bound.
  EXPECT_EQ(learner.tracked_keys(), 1u);
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 10).value(), 41.0);
  learner.evict_stale(9 + cfg.window_days + 1);
  EXPECT_EQ(learner.tracked_keys(), 0u);
}

TEST(ExpectedRttLearner, EvictStaleFreesOldDays) {
  ExpectedRttConfig cfg;
  cfg.window_days = 2;
  ExpectedRttLearner learner{cfg};
  learner.observe(kKey, 0, 1.0);
  learner.observe(kKey, 1, 2.0);
  learner.observe(kKey, 5, 3.0);
  learner.evict_stale(5);
  EXPECT_EQ(learner.history_size(kKey, 2), 0u);  // day 0/1 evicted
  EXPECT_EQ(learner.history_size(kKey, 6), 1u);  // day 5 kept
}

TEST(ExpectedRttLearner, RejectsDisorderedAndInvalid) {
  ExpectedRttLearner learner;
  learner.observe(kKey, 5, 1.0);
  EXPECT_THROW(learner.observe(kKey, 4, 1.0), std::invalid_argument);
  EXPECT_THROW(learner.observe(kKey, 6, -1.0), std::invalid_argument);
  EXPECT_THROW(learner.observe(kKey, -1, 1.0), std::invalid_argument);
}

TEST(ExpectedRttLearner, KeysAreIndependent) {
  ExpectedRttLearner learner;
  const auto other = cloud_key(net::CloudLocationId{9},
                               net::DeviceClass::NonMobile);
  learner.observe(kKey, 0, 10.0);
  learner.observe(other, 0, 99.0);
  EXPECT_DOUBLE_EQ(learner.expected(kKey, 1).value(), 10.0);
  EXPECT_DOUBLE_EQ(learner.expected(other, 1).value(), 99.0);
}

// Paper §4.3 worked example: historical RTTs uniform in [35,45] (median
// ~40); after a cloud fault the distribution moves to [40,70]. With τ=0.8,
// comparing against the *learned* 40 ms flags every quartet; comparing
// against the 50 ms region target would flag only ~1/3.
TEST(ExpectedRttLearner, WorkedExampleFromPaper) {
  ExpectedRttLearner learner;
  util::Rng rng{7};
  for (int day = 0; day < 14; ++day) {
    for (int i = 0; i < 100; ++i) {
      learner.observe(kKey, day, rng.uniform(35.0, 45.0));
    }
  }
  const double learned = learner.expected(kKey, 14).value();
  EXPECT_NEAR(learned, 40.0, 1.0);

  int bad_by_learned = 0;
  int bad_by_target = 0;
  const double target = 50.0;
  for (int i = 0; i < 3000; ++i) {
    const double rtt = rng.uniform(40.0, 70.0);
    bad_by_learned += rtt > learned;
    bad_by_target += rtt > target;
  }
  EXPECT_GT(bad_by_learned / 3000.0, 0.95);  // everything above 40
  EXPECT_NEAR(bad_by_target / 3000.0, 2.0 / 3.0, 0.05);
}

// --- Snapshot save/restore. ---

ExpectedRttConfig small_config() {
  ExpectedRttConfig cfg;
  cfg.reservoir_per_day = 8;  // small cap so Algorithm R actually evicts
  cfg.window_days = 3;        // short window so evict_stale() really drops
  return cfg;
}

/// A day-ordered stream over many keys: sample counts past the reservoir
/// cap (so slot arithmetic matters), day gaps, and an eviction partway
/// through.
void churny_feed(ExpectedRttLearner& learner) {
  for (int day = 0; day < 20; ++day) {
    if (day == 7) continue;  // a silent day
    for (int k = 0; k < 6; ++k) {
      const auto key = middle_key(net::CloudLocationId{7},
                                  net::MiddleSegmentId{(unsigned)k},
                                  net::DeviceClass::NonMobile);
      const int samples = 3 + 5 * k;  // some keys overflow the cap of 8
      for (int s = 0; s < samples; ++s) {
        learner.observe(key, day, 30.0 + k * 7 + day * 0.25 + s * 0.125);
      }
    }
    if (day == 12) learner.evict_stale(day - 6);
  }
}

TEST(ExpectedRttSnapshot, SaveRestoreRoundTrips) {
  ExpectedRttLearner learner{small_config()};
  churny_feed(learner);

  store::SnapshotWriter writer;
  learner.save_state(writer);
  const auto reader =
      store::SnapshotReader::from_bytes(writer.serialize(), "<rt>");

  ExpectedRttLearner restored{small_config()};
  restored.restore_state(reader);
  EXPECT_EQ(restored.tracked_keys(), learner.tracked_keys());
  for (int k = 0; k < 6; ++k) {
    const auto key = middle_key(net::CloudLocationId{7},
                                net::MiddleSegmentId{(unsigned)k},
                                net::DeviceClass::NonMobile);
    for (int day = 18; day <= 21; ++day) {
      EXPECT_EQ(learner.expected(key, day), restored.expected(key, day))
          << "key " << k << " day " << day;
    }
  }
}

/// A snapshot whose "learner" section is laid out by hand: payload format 2,
/// the given layout tag, one key with one single-sample reservoir, no
/// transfers.
std::string handmade_learner_snapshot(std::uint64_t layout_tag) {
  store::SnapshotWriter writer;
  std::string& out = writer.section("learner");
  store::put_varint(out, 2);  // payload format
  store::put_varint(out, layout_tag);
  store::put_varint(out, 1);  // key count
  store::put_varint(out, kKey.packed);
  store::put_varint(out, 1);   // reservoirs
  store::put_svarint(out, 4);  // day
  store::put_varint(out, 1);   // seen
  store::put_varint(out, 1);   // samples
  store::put_f64(out, 42.5);
  store::put_varint(out, 0);  // transfers
  return writer.serialize();
}

TEST(ExpectedRttSnapshot, HashMapLayoutTagStillRestores) {
  const auto reader = store::SnapshotReader::from_bytes(
      handmade_learner_snapshot(0), "<tag0>");
  ExpectedRttLearner learner;
  learner.restore_state(reader);
  EXPECT_EQ(learner.tracked_keys(), 1u);
  EXPECT_EQ(learner.expected(kKey, 5), 42.5);
}

TEST(ExpectedRttSnapshot, ColumnarLayoutTagIsRejectedByName) {
  const auto reader = store::SnapshotReader::from_bytes(
      handmade_learner_snapshot(1), "<tag1>");
  ExpectedRttLearner learner;
  try {
    learner.restore_state(reader);
    FAIL() << "expected SnapshotError";
  } catch (const store::SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("learner"), std::string::npos) << what;
    EXPECT_NE(what.find("columnar"), std::string::npos) << what;
    EXPECT_NE(what.find("no longer readable"), std::string::npos) << what;
  }
  EXPECT_EQ(learner.tracked_keys(), 0u);  // nothing half-restored
}

// --- §13 churn-aware baseline transfer ---------------------------------

const auto kOldPath =
    middle_key(kLoc, net::MiddleSegmentId{10}, net::DeviceClass::NonMobile);
const auto kNewPath =
    middle_key(kLoc, net::MiddleSegmentId{11}, net::DeviceClass::NonMobile);

TEST(BaselineTransfer, SeedsColdKeyWithDiscount) {
  ExpectedRttLearner learner;
  for (int day = 0; day < 5; ++day) learner.observe(kOldPath, day, 40.0);
  ASSERT_TRUE(learner.transfer_baseline(kOldPath, kNewPath, 5));

  // Plain expected() is untouched — the seed lives in the side table.
  EXPECT_FALSE(learner.expected(kNewPath, 5).has_value());
  const auto graded = learner.expected_with_provenance(kNewPath, 5);
  ASSERT_TRUE(graded.value.has_value());
  EXPECT_DOUBLE_EQ(*graded.value, 40.0 * 1.1);  // default discount
  EXPECT_EQ(graded.provenance, BaselineProvenance::kTransferred);
  EXPECT_TRUE(learner.recently_churned(kNewPath, 5));
  EXPECT_FALSE(learner.recently_churned(kOldPath, 5));
}

TEST(BaselineTransfer, SurvivesSourceEvictionThenExpires) {
  ExpectedRttConfig cfg;
  cfg.window_days = 2;
  cfg.transfer_max_age_days = 3;
  ExpectedRttLearner learner{cfg};
  learner.observe(kOldPath, 0, 50.0);
  ASSERT_TRUE(learner.transfer_baseline(kOldPath, kNewPath, 1));

  // Evicting the source's history must not lose the eagerly captured value.
  learner.evict_stale(3);  // drops the day-0 reservoir, keeps the transfer
  EXPECT_FALSE(learner.expected_with_provenance(kOldPath, 4).value);
  const auto graded = learner.expected_with_provenance(kNewPath, 4);
  ASSERT_TRUE(graded.value.has_value());
  EXPECT_DOUBLE_EQ(*graded.value, 50.0 * cfg.transfer_discount);

  // Past the age limit the transfer stops being served, and evict_stale
  // drops the entry from the side table.
  EXPECT_FALSE(learner.expected_with_provenance(kNewPath, 5).value);
  EXPECT_FALSE(learner.recently_churned(kNewPath, 5));
  EXPECT_EQ(learner.transfer_count(), 1u);
  learner.evict_stale(5);
  EXPECT_EQ(learner.transfer_count(), 0u);
}

TEST(BaselineTransfer, DoesNotClobberFresherBaseline) {
  ExpectedRttLearner learner;
  for (int day = 0; day < 4; ++day) {
    learner.observe(kOldPath, day, 80.0);
    learner.observe(kNewPath, day, 30.0);
  }
  // The target has real window history: the transfer is recorded (it marks
  // the key recently churned) but the served value stays the fresh median.
  EXPECT_TRUE(learner.transfer_baseline(kOldPath, kNewPath, 4));
  const auto graded = learner.expected_with_provenance(kNewPath, 4);
  ASSERT_TRUE(graded.value.has_value());
  EXPECT_DOUBLE_EQ(*graded.value, 30.0);
  EXPECT_EQ(graded.provenance, BaselineProvenance::kFresh);
  EXPECT_TRUE(learner.recently_churned(kNewPath, 4));
}

TEST(BaselineTransfer, ReplayedEventCannotOverwriteFresherTransfer) {
  ExpectedRttLearner learner;
  learner.observe(kOldPath, 0, 40.0);
  const auto other =
      middle_key(kLoc, net::MiddleSegmentId{12}, net::DeviceClass::NonMobile);
  learner.observe(other, 0, 90.0);
  ASSERT_TRUE(learner.transfer_baseline(kOldPath, kNewPath, 3));
  // A late-delivered (older-day) churn event for the same target loses.
  EXPECT_FALSE(learner.transfer_baseline(other, kNewPath, 2));
  EXPECT_DOUBLE_EQ(*learner.expected_with_provenance(kNewPath, 3).value,
                   40.0 * 1.1);
}

TEST(BaselineTransfer, NoOpWithoutUsableSource) {
  // Churn for an untracked path (no learner history on either end, e.g. a
  // /24 the pipeline never saw traffic from): nothing to seed, no crash,
  // no side-table growth.
  ExpectedRttLearner learner;
  EXPECT_FALSE(learner.transfer_baseline(kOldPath, kNewPath, 3));
  EXPECT_FALSE(learner.transfer_baseline(kOldPath, kOldPath, 3));
  EXPECT_EQ(learner.transfer_count(), 0u);
  EXPECT_FALSE(learner.recently_churned(kNewPath, 3));
}

TEST(BaselineTransfer, ChainedTransferCompoundsDiscount) {
  ExpectedRttLearner learner;
  learner.observe(kOldPath, 0, 40.0);
  const auto third =
      middle_key(kLoc, net::MiddleSegmentId{13}, net::DeviceClass::NonMobile);
  ASSERT_TRUE(learner.transfer_baseline(kOldPath, kNewPath, 1));
  // The path churns again inside the age limit: the second hop captures the
  // first transfer's once-discounted value, and serving applies one more
  // discount — two compounds total for the two-hop chain.
  ASSERT_TRUE(learner.transfer_baseline(kNewPath, third, 2));
  EXPECT_DOUBLE_EQ(*learner.expected_with_provenance(third, 2).value,
                   40.0 * 1.1 * 1.1);
}

TEST(BaselineTransfer, SnapshotParityOfTransferredProvenance) {
  // Transferred provenance must survive snapshot/restore bit-identically.
  ExpectedRttLearner learner{small_config()};
  for (int day = 0; day < 3; ++day) {
    for (int i = 0; i < 4; ++i) learner.observe(kOldPath, day, 44.0);
  }
  ASSERT_TRUE(learner.transfer_baseline(kOldPath, kNewPath, 3));

  store::SnapshotWriter writer;
  learner.save_state(writer);
  const auto reader =
      store::SnapshotReader::from_bytes(writer.serialize(), "<rt>");
  ExpectedRttLearner restored{small_config()};
  restored.restore_state(reader);

  EXPECT_EQ(restored.transfer_count(), 1u);
  const auto before = learner.expected_with_provenance(kNewPath, 3);
  const auto after = restored.expected_with_provenance(kNewPath, 3);
  ASSERT_TRUE(after.value.has_value());
  EXPECT_EQ(*before.value, *after.value);
  EXPECT_EQ(after.provenance, BaselineProvenance::kTransferred);
  EXPECT_TRUE(restored.recently_churned(kNewPath, 3));
}

}  // namespace
}  // namespace blameit::analysis
