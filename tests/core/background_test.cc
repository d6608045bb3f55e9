#include "core/background.h"

#include <gtest/gtest.h>

#include "core/prioritizer.h"
#include "store/snapshot.h"

#include <memory>

namespace blameit::core {
namespace {

class BackgroundTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net::TopologyConfig cfg;
    cfg.locations_per_region = 1;
    cfg.eyeballs_per_region = 2;
    cfg.blocks_per_eyeball = 4;
    topo_ = net::make_topology(cfg).release();
  }
  static void TearDownTestSuite() {
    delete topo_;
    topo_ = nullptr;
  }

  BackgroundTest()
      : model_(topo_, &faults_), engine_(topo_, &model_) {}

  static net::Topology* topo_;
  sim::FaultInjector faults_;
  sim::RttModel model_;
  sim::TracerouteEngine engine_;
  BaselineStore store_;
};

net::Topology* BackgroundTest::topo_ = nullptr;

TEST_F(BackgroundTest, BaselineStoreRoundTrip) {
  const auto loc = topo_->locations().front().id;
  const net::MiddleSegmentId mid{3};
  EXPECT_EQ(store_.get(loc, mid), nullptr);
  store_.update(loc, mid,
                Baseline{.when = util::MinuteTime{5},
                         .cloud_ms = 4.0,
                         .contributions = {{net::AsId{10}, 2.0}}});
  const auto* baseline = store_.get(loc, mid);
  ASSERT_NE(baseline, nullptr);
  EXPECT_DOUBLE_EQ(baseline->cloud_ms, 4.0);
  // Update overwrites.
  store_.update(loc, mid, Baseline{.when = util::MinuteTime{9}});
  EXPECT_EQ(store_.get(loc, mid)->when, util::MinuteTime{9});
  EXPECT_EQ(store_.size(), 1u);
}

/// Restores a "baselines" payload; returns the error, or "" if it loaded.
std::string baselines_restore_error(BaselineStore& store,
                                    const std::string& payload) {
  store::SnapshotWriter writer;
  writer.section("baselines") = payload;
  const auto reader =
      store::SnapshotReader::from_bytes(writer.serialize(), "<hostile>");
  store::ByteReader in = reader.section("baselines");
  try {
    store.restore(in);
    in.expect_done();
  } catch (const store::SnapshotError& e) {
    return e.what();
  }
  return "";
}

/// One baseline key record: a single baseline with no contributions.
void put_baseline_key(std::string& out, std::uint64_t delta) {
  store::put_varint(out, delta);
  store::put_varint(out, 1);  // history
  store::put_svarint(out, 5);
  store::put_f64(out, 4.0);
  store::put_varint(out, 0);  // contributions
}

TEST_F(BackgroundTest, HostileBaselineSectionsAreRejected) {
  std::string ok;
  store::put_varint(ok, 2);
  put_baseline_key(ok, 9);
  put_baseline_key(ok, 1);
  EXPECT_EQ(baselines_restore_error(store_, ok), "");
  EXPECT_EQ(store_.size(), 2u);

  // A zero delta used to merge a second history into key 9.
  std::string dup;
  store::put_varint(dup, 2);
  put_baseline_key(dup, 9);
  put_baseline_key(dup, 0);
  const std::string dup_error = baselines_restore_error(store_, dup);
  EXPECT_NE(dup_error.find("duplicate or out-of-order key"), std::string::npos)
      << dup_error;
  EXPECT_NE(dup_error.find("section \"baselines\""), std::string::npos);

  // 2^39 declared keys in a few bytes: rejected before the map reserves.
  std::string huge;
  store::put_varint(huge, std::uint64_t{1} << 39);
  put_baseline_key(huge, 9);
  const std::string huge_error = baselines_restore_error(store_, huge);
  EXPECT_NE(huge_error.find("baseline key count exceeds section"),
            std::string::npos)
      << huge_error;
  EXPECT_EQ(store_.size(), 2u);  // failed restores leave the store alone
}

TEST_F(BackgroundTest, FullPeriodCoversEveryPath) {
  BlameItConfig cfg;
  cfg.background_period_minutes = 12 * 60;
  BackgroundProber prober{topo_, &engine_, &store_, cfg};
  // Run one full period: every ⟨location, middle⟩ must get a baseline.
  const int probes = prober.step(util::MinuteTime{0},
                                 util::MinuteTime{12 * 60});
  EXPECT_GT(probes, 0);
  // Count distinct (loc, middle) pairs in the topology's current routing.
  std::size_t expected = 0;
  {
    std::unordered_map<std::uint64_t, bool> seen;
    for (const auto& loc : topo_->locations()) {
      for (const auto& block : topo_->blocks()) {
        const auto* route =
            topo_->routing().route_for(loc.id, block.block,
                                       util::MinuteTime{0});
        if (route &&
            seen.emplace(middle_issue_key(loc.id, route->middle), true)
                .second) {
          ++expected;
        }
      }
    }
  }
  EXPECT_EQ(store_.size(), expected);
  EXPECT_EQ(static_cast<std::size_t>(probes), expected);
}

TEST_F(BackgroundTest, TwoPerDayCadence) {
  BlameItConfig cfg;
  cfg.background_period_minutes = 12 * 60;
  cfg.churn_triggered_probes = false;
  BackgroundProber prober{topo_, &engine_, &store_, cfg};
  int total = 0;
  // Walk a day in 15-minute steps, as the pipeline would.
  for (int minute = 15; minute <= util::kMinutesPerDay; minute += 15) {
    total += prober.step(util::MinuteTime{minute - 15},
                         util::MinuteTime{minute});
  }
  EXPECT_EQ(static_cast<std::uint64_t>(total),
            prober.periodic_probes_per_day());
  // 2 probes per path per day.
  EXPECT_EQ(static_cast<std::uint64_t>(total), 2 * store_.size());
}

TEST_F(BackgroundTest, GetBeforeRejectsBaselinesAtOrAfterIssueStart) {
  const auto loc = topo_->locations().front().id;
  const net::MiddleSegmentId mid{3};
  store_.update(loc, mid, Baseline{.when = util::MinuteTime{100}});

  // Every retained baseline postdates the issue: no silent fallback to the
  // oldest entry (the old behavior) — the caller must see "no baseline".
  EXPECT_EQ(store_.get_before(loc, mid, util::MinuteTime{50}), nullptr);
  // Strictly before: a baseline captured AT the issue start is not usable.
  EXPECT_EQ(store_.get_before(loc, mid, util::MinuteTime{100}), nullptr);
  EXPECT_NE(store_.get_before(loc, mid, util::MinuteTime{101}), nullptr);

  // With a mix, the newest strictly-older baseline is selected.
  store_.update(loc, mid, Baseline{.when = util::MinuteTime{200}});
  const auto* baseline = store_.get_before(loc, mid, util::MinuteTime{150});
  ASSERT_NE(baseline, nullptr);
  EXPECT_EQ(baseline->when, util::MinuteTime{100});
}

TEST_F(BackgroundTest, ProbeCostMatchesFiringLoopAtSevenHourPeriod) {
  // 7 h does not divide a day (1440 / 420 = 3.43): the truncating estimate
  // claimed 3 probes per target while the firing loop issues 3 or 4
  // depending on the target's phase. The accounting must match what fires.
  BlameItConfig cfg;
  cfg.background_period_minutes = 7 * 60;
  cfg.churn_triggered_probes = false;
  BackgroundProber prober{topo_, &engine_, &store_, cfg};
  int total = 0;
  for (int minute = 15; minute <= util::kMinutesPerDay; minute += 15) {
    total += prober.step(util::MinuteTime{minute - 15},
                         util::MinuteTime{minute});
  }
  EXPECT_EQ(static_cast<std::uint64_t>(total),
            prober.periodic_probes_per_day());
  // Every target fires at least the truncated count.
  EXPECT_GE(static_cast<std::size_t>(total), 3 * store_.size());
  EXPECT_LE(static_cast<std::size_t>(total), 4 * store_.size());
}

TEST_F(BackgroundTest, ChurnTriggersProbe) {
  BlameItConfig cfg;
  cfg.background_period_minutes = 100000;  // effectively disable periodic
  BackgroundProber prober{topo_, &engine_, &store_, cfg};

  const auto loc = topo_->locations().front().id;
  const auto prefix = topo_->routing().prefixes_at(loc).front();
  const auto& alts = topo_->alternates(loc, prefix);
  ASSERT_GE(alts.size(), 2u);
  topo_->routing().change_path(loc, prefix, util::MinuteTime{50}, alts[1]);

  const int probes =
      prober.step(util::MinuteTime{0}, util::MinuteTime{60});
  EXPECT_EQ(probes, 1);
  // The new path's baseline must exist.
  const auto* route = topo_->routing().route_for(
      loc, net::Slash24{prefix.network >> 8}, util::MinuteTime{60});
  ASSERT_NE(route, nullptr);
  EXPECT_NE(store_.get(loc, route->middle), nullptr);
}

TEST_F(BackgroundTest, ChurnDisabledByConfig) {
  BlameItConfig cfg;
  cfg.background_period_minutes = 100000;
  cfg.churn_triggered_probes = false;
  BackgroundProber prober{topo_, &engine_, &store_, cfg};
  const auto loc = topo_->locations().front().id;
  const auto prefix = topo_->routing().prefixes_at(loc).front();
  const auto& alts = topo_->alternates(loc, prefix);
  ASSERT_GE(alts.size(), 2u);
  topo_->routing().change_path(loc, prefix, util::MinuteTime{70}, alts.back());
  EXPECT_EQ(prober.step(util::MinuteTime{65}, util::MinuteTime{80}), 0);
}

TEST_F(BackgroundTest, NoWorkForEmptyInterval) {
  BackgroundProber prober{topo_, &engine_, &store_};
  EXPECT_EQ(prober.step(util::MinuteTime{100}, util::MinuteTime{100}), 0);
  EXPECT_EQ(prober.step(util::MinuteTime{100}, util::MinuteTime{50}), 0);
}

TEST_F(BackgroundTest, InvalidConfigThrows) {
  BlameItConfig bad;
  bad.background_period_minutes = 1;
  EXPECT_THROW((BackgroundProber{topo_, &engine_, &store_, bad}),
               std::invalid_argument);
  EXPECT_THROW((BackgroundProber{nullptr, &engine_, &store_}),
               std::invalid_argument);
}

}  // namespace
}  // namespace blameit::core
