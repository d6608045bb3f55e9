#include "svc/verdict_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace blameit::svc {
namespace {

core::BlameResult make_blame(std::uint32_t block, std::uint16_t location,
                             std::int64_t bucket, core::Blame blame,
                             std::uint32_t middle = 1,
                             std::uint32_t client_as = 100) {
  core::BlameResult result;
  result.quartet.key.block = net::Slash24{block};
  result.quartet.key.location = net::CloudLocationId{location};
  result.quartet.key.bucket = util::TimeBucket{bucket};
  result.quartet.sample_count = 20;
  result.quartet.mean_rtt_ms = 80.0;
  result.quartet.middle = net::MiddleSegmentId{middle};
  result.quartet.client_as = net::AsId{client_as};
  result.quartet.bad = true;
  result.blame = blame;
  if (blame == core::Blame::Cloud) result.faulty_as = net::AsId{1};
  if (blame == core::Blame::Client) result.faulty_as = net::AsId{client_as};
  return result;
}

core::StepReport make_report(std::int64_t bucket,
                             std::vector<core::BlameResult> blames) {
  core::StepReport report;
  report.now = util::TimeBucket{bucket}.start().plus_minutes(5);
  report.buckets_processed = 1;
  report.blames = std::move(blames);
  return report;
}

TEST(VerdictStoreTest, EmptyStoreAnswersEverything) {
  const VerdictStore store;
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_FALSE(
      store.lookup(net::Slash24{7}, net::CloudLocationId{1}).has_value());
  EXPECT_TRUE(store.lookup(net::Slash24{7}).empty());
  EXPECT_TRUE(store.incidents_since(util::MinuteTime{0}).empty());
  EXPECT_TRUE(store.recent_diagnoses().empty());
  EXPECT_EQ(store.health().epoch, 0u);
}

TEST(VerdictStoreTest, ConfidenceMappingFollowsTheHierarchy) {
  VerdictStore store;
  store.publish(make_report(
      10, {make_blame(1, 1, 10, core::Blame::Cloud),
           make_blame(2, 1, 10, core::Blame::Client),
           make_blame(3, 1, 10, core::Blame::Middle),
           make_blame(4, 1, 10, core::Blame::Ambiguous)}));
  EXPECT_EQ(store.epoch(), 1u);

  const auto cloud = store.lookup(net::Slash24{1}, net::CloudLocationId{1});
  ASSERT_TRUE(cloud.has_value());
  EXPECT_EQ(cloud->blame, core::Blame::Cloud);
  EXPECT_EQ(cloud->confidence, core::DiagnosisConfidence::High);
  ASSERT_TRUE(cloud->faulty_as.has_value());
  EXPECT_EQ(cloud->faulty_as->value, 1u);
  EXPECT_FALSE(cloud->from_active);

  const auto client = store.lookup(net::Slash24{2}, net::CloudLocationId{1});
  ASSERT_TRUE(client.has_value());
  EXPECT_EQ(client->confidence, core::DiagnosisConfidence::High);

  // Middle with no active diagnosis: AS unknown, Low confidence.
  const auto middle = store.lookup(net::Slash24{3}, net::CloudLocationId{1});
  ASSERT_TRUE(middle.has_value());
  EXPECT_EQ(middle->confidence, core::DiagnosisConfidence::Low);
  EXPECT_FALSE(middle->faulty_as.has_value());

  const auto ambiguous =
      store.lookup(net::Slash24{4}, net::CloudLocationId{1});
  ASSERT_TRUE(ambiguous.has_value());
  EXPECT_EQ(ambiguous->confidence, core::DiagnosisConfidence::Low);
}

TEST(VerdictStoreTest, ActiveDiagnosisUpgradesMiddleVerdicts) {
  VerdictStore store;
  auto report =
      make_report(10, {make_blame(3, 1, 10, core::Blame::Middle, 7)});
  core::ActiveDiagnosis diag;
  diag.location = net::CloudLocationId{1};
  diag.middle = net::MiddleSegmentId{7};
  diag.probe_reached = true;
  diag.have_baseline = true;
  diag.baseline_predates_issue = true;
  diag.culprit = net::AsId{4242};
  diag.confidence = core::DiagnosisConfidence::High;
  report.diagnoses.push_back(diag);
  store.publish(report);

  const auto v = store.lookup(net::Slash24{3}, net::CloudLocationId{1});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->blame, core::Blame::Middle);
  EXPECT_TRUE(v->from_active);
  EXPECT_TRUE(v->baseline_predates_issue);
  EXPECT_EQ(v->confidence, core::DiagnosisConfidence::High);
  ASSERT_TRUE(v->faulty_as.has_value());
  EXPECT_EQ(v->faulty_as->value, 4242u);

  // The diagnosis is also served on its own feed.
  const auto diagnoses = store.recent_diagnoses();
  ASSERT_EQ(diagnoses.size(), 1u);
  EXPECT_EQ(diagnoses[0].diagnosis.culprit->value, 4242u);

  // A diagnosis for a DIFFERENT path must not upgrade this verdict.
  VerdictStore other;
  auto mismatched =
      make_report(10, {make_blame(3, 1, 10, core::Blame::Middle, 7)});
  diag.middle = net::MiddleSegmentId{8};
  mismatched.diagnoses.push_back(diag);
  other.publish(mismatched);
  const auto unmatched =
      other.lookup(net::Slash24{3}, net::CloudLocationId{1});
  ASSERT_TRUE(unmatched.has_value());
  EXPECT_FALSE(unmatched->from_active);
  EXPECT_EQ(unmatched->confidence, core::DiagnosisConfidence::Low);
}

TEST(VerdictStoreTest, VerdictsAgeOutAfterRetention) {
  VerdictStore store{{.verdict_retention_buckets = 3}};
  store.publish(make_report(10, {make_blame(1, 1, 10, core::Blame::Cloud)}));
  ASSERT_TRUE(
      store.lookup(net::Slash24{1}, net::CloudLocationId{1}).has_value());

  // A later publish inside the window keeps the old verdict alive...
  store.publish(make_report(12, {make_blame(2, 1, 12, core::Blame::Cloud)}));
  EXPECT_TRUE(
      store.lookup(net::Slash24{1}, net::CloudLocationId{1}).has_value());

  // ...but once the newest bucket is past block 1's bucket + retention,
  // the stale verdict is gone.
  store.publish(make_report(14, {make_blame(2, 1, 14, core::Blame::Cloud)}));
  EXPECT_FALSE(
      store.lookup(net::Slash24{1}, net::CloudLocationId{1}).has_value());
  EXPECT_EQ(store.epoch(), 3u);
}

TEST(VerdictStoreTest, LookupByBlockAndPrefix) {
  VerdictStore store;
  // 10.0.0.0/24 is block 0x0A0000, 10.0.1.0/24 is 0x0A0001.
  const auto block_a = net::Slash24{0x0A0000};
  const auto block_b = net::Slash24{0x0A0001};
  store.publish(make_report(
      10, {make_blame(block_a.block, 2, 10, core::Blame::Cloud),
           make_blame(block_a.block, 1, 10, core::Blame::Middle),
           make_blame(block_b.block, 1, 10, core::Blame::Client)}));

  const auto per_block = store.lookup(block_a);
  ASSERT_EQ(per_block.size(), 2u);
  EXPECT_EQ(per_block[0].location.value, 1u);  // location-ordered
  EXPECT_EQ(per_block[1].location.value, 2u);

  const auto prefix = net::Prefix::parse("10.0.0.0/23");
  ASSERT_TRUE(prefix.has_value());
  const auto covered = store.lookup(*prefix);
  ASSERT_EQ(covered.size(), 3u);
  EXPECT_EQ(covered[0].block, block_a);  // block-then-location ordered
  EXPECT_EQ(covered[2].block, block_b);

  const auto elsewhere = net::Prefix::parse("192.168.0.0/16");
  ASSERT_TRUE(elsewhere.has_value());
  EXPECT_TRUE(store.lookup(*elsewhere).empty());
}

TEST(VerdictStoreTest, IncidentRunsExtendAndClose) {
  VerdictStore store;
  // Same middle issue across buckets 10 and 11 -> one open run.
  store.publish(
      make_report(10, {make_blame(3, 1, 10, core::Blame::Middle, 7)}));
  store.publish(
      make_report(11, {make_blame(3, 1, 11, core::Blame::Middle, 7)}));
  auto incidents = store.incidents_since(util::MinuteTime{0});
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].category, core::Blame::Middle);
  EXPECT_EQ(incidents[0].buckets, 2);
  EXPECT_TRUE(incidents[0].open);
  ASSERT_TRUE(incidents[0].middle.has_value());
  EXPECT_EQ(incidents[0].middle->value, 7u);

  // Bucket 12 blames something else: the middle run closes, a cloud run
  // opens.
  store.publish(
      make_report(12, {make_blame(9, 1, 12, core::Blame::Cloud)}));
  incidents = store.incidents_since(util::MinuteTime{0});
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_FALSE(incidents[0].open);  // first_seen order: middle run first
  EXPECT_EQ(incidents[0].buckets, 2);
  EXPECT_TRUE(incidents[1].open);
  EXPECT_EQ(incidents[1].category, core::Blame::Cloud);

  // `since` filters on last_seen.
  const auto recent =
      store.incidents_since(util::TimeBucket{12}.start());
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].category, core::Blame::Cloud);

  // Ambiguous/Insufficient never form incidents.
  VerdictStore quiet;
  quiet.publish(
      make_report(10, {make_blame(1, 1, 10, core::Blame::Ambiguous),
                       make_blame(2, 1, 10, core::Blame::Insufficient)}));
  EXPECT_TRUE(quiet.incidents_since(util::MinuteTime{0}).empty());
}

TEST(VerdictStoreTest, HealthTracksDegradedSteps) {
  VerdictStore store;
  store.publish(make_report(10, {}));
  auto report = make_report(11, {});
  report.degraded_passive_only = true;
  store.publish(report);

  auto health = store.health();
  EXPECT_EQ(health.epoch, 2u);
  EXPECT_EQ(health.steps, 2u);
  EXPECT_EQ(health.degraded_steps, 1u);
  EXPECT_TRUE(health.degraded);
  EXPECT_EQ(health.last_step, report.now);

  store.publish(make_report(12, {}));
  health = store.health();
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(health.degraded_steps, 1u);
}

TEST(VerdictStoreTest, RegistryInstrumentsCount) {
  obs::Registry registry;
  VerdictStore store{{.registry = &registry}};
  store.publish(make_report(10, {make_blame(1, 1, 10, core::Blame::Cloud)}));
  (void)store.lookup(net::Slash24{1}, net::CloudLocationId{1});
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("svc.store.publishes"), 1u);
  EXPECT_EQ(snap.counter_value("svc.store.lookups"), 1u);
  EXPECT_EQ(snap.gauge_value("svc.store.verdicts"), 1.0);
}

// The RCU contract: readers on many threads race one publisher and must
// always see internally-consistent snapshots. Run under TSan in CI.
TEST(VerdictStoreTest, ConcurrentReadersNeverBlockOrTear) {
  VerdictStore store;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> lookups{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto epoch = store.epoch();
        EXPECT_GE(epoch, last_epoch);
        last_epoch = epoch;
        const auto v = store.lookup(net::Slash24{1}, net::CloudLocationId{1});
        if (v) {
          // A verdict is immutable once read: block/location always match
          // the key it was indexed under.
          EXPECT_EQ(v->block.block, 1u);
          EXPECT_EQ(v->location.value, 1u);
          EXPECT_EQ(v->blame, core::Blame::Cloud);
        }
        (void)store.lookup(net::Slash24{1});
        (void)store.incidents_since(util::MinuteTime{0});
        (void)store.health();
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Don't start (or finish) publishing until the readers are actually
  // looping, so the 200 publishes genuinely race the lookups.
  while (lookups.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  const auto lookups_at_start = lookups.load(std::memory_order_relaxed);
  for (std::int64_t bucket = 10; bucket < 210; ++bucket) {
    store.publish(make_report(
        bucket, {make_blame(1, 1, bucket, core::Blame::Cloud),
                 make_blame(2, 1, bucket, core::Blame::Middle, 7)}));
  }
  while (lookups.load(std::memory_order_relaxed) <= lookups_at_start) {
    std::this_thread::yield();
  }
  stop = true;
  for (auto& r : readers) r.join();
  EXPECT_EQ(store.epoch(), 200u);
  EXPECT_GT(lookups.load(), 0u);
}

// --- Snapshot save/restore. ---

/// A publish sequence exercising every row-state transition: inserts,
/// same-key updates, active upgrades, aging past retention, and incident
/// open/extend/close.
void publish_every_transition(VerdictStore& store) {
  store.publish(make_report(
      10, {make_blame(1, 1, 10, core::Blame::Cloud),
           make_blame(2, 1, 10, core::Blame::Client),
           make_blame(3, 1, 10, core::Blame::Middle, 7),
           make_blame(3, 2, 10, core::Blame::Middle, 7)}));
  auto upgraded =
      make_report(11, {make_blame(3, 1, 11, core::Blame::Middle, 7),
                       make_blame(1, 1, 11, core::Blame::Cloud)});
  core::ActiveDiagnosis diag;
  diag.location = net::CloudLocationId{1};
  diag.middle = net::MiddleSegmentId{7};
  diag.probe_reached = true;
  diag.have_baseline = true;
  diag.culprit = net::AsId{4242};
  diag.confidence = core::DiagnosisConfidence::High;
  upgraded.diagnoses.push_back(diag);
  store.publish(upgraded);
  // Quiet steps age out everything but block 2 (bucket-16 rows) later on.
  store.publish(make_report(16, {make_blame(2, 1, 16, core::Blame::Client),
                                 make_blame(9, 3, 16, core::Blame::Ambiguous)}));
}

void expect_same_answers(const VerdictStore& a, const VerdictStore& b) {
  for (std::uint32_t block : {1u, 2u, 3u, 9u, 77u}) {
    for (std::uint16_t loc : {std::uint16_t{1}, std::uint16_t{2},
                              std::uint16_t{3}}) {
      const auto va = a.lookup(net::Slash24{block}, net::CloudLocationId{loc});
      const auto vb = b.lookup(net::Slash24{block}, net::CloudLocationId{loc});
      ASSERT_EQ(va.has_value(), vb.has_value())
          << "block " << block << " loc " << loc;
      if (!va) continue;
      EXPECT_EQ(va->blame, vb->blame);
      EXPECT_EQ(va->confidence, vb->confidence);
      EXPECT_EQ(va->faulty_as, vb->faulty_as);
      EXPECT_EQ(va->bucket, vb->bucket);
      EXPECT_EQ(va->from_active, vb->from_active);
      EXPECT_EQ(va->mean_rtt_ms, vb->mean_rtt_ms);
    }
    const auto la = a.lookup(net::Slash24{block});
    const auto lb = b.lookup(net::Slash24{block});
    ASSERT_EQ(la.size(), lb.size()) << "block " << block;
    for (std::size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].location.value, lb[i].location.value);
      EXPECT_EQ(la[i].blame, lb[i].blame);
    }
  }
  const auto ia = a.incidents_since(util::MinuteTime{0});
  const auto ib = b.incidents_since(util::MinuteTime{0});
  EXPECT_EQ(ia.size(), ib.size());
  EXPECT_EQ(a.recent_diagnoses().size(), b.recent_diagnoses().size());
}

TEST(VerdictStoreTest, SaveRestoreRoundTrips) {
  VerdictStore original{{.verdict_retention_buckets = 8}};
  publish_every_transition(original);

  store::SnapshotWriter writer;
  original.save_state(writer);
  const auto reader =
      store::SnapshotReader::from_bytes(writer.serialize(), "<rt>");

  VerdictStore restored{{.verdict_retention_buckets = 8}};
  restored.restore_state(reader);
  expect_same_answers(original, restored);
  EXPECT_EQ(restored.epoch(), original.epoch());
  EXPECT_EQ(restored.health().steps, original.health().steps);
  EXPECT_EQ(restored.verdict_state_bytes(), original.verdict_state_bytes());

  // The restored store continues accepting publishes.
  restored.publish(
      make_report(17, {make_blame(5, 1, 17, core::Blame::Cloud)}));
  EXPECT_TRUE(
      restored.lookup(net::Slash24{5}, net::CloudLocationId{1}).has_value());
}

}  // namespace
}  // namespace blameit::svc
