#include "svc/verdict_store.h"

#include <gtest/gtest.h>

#include "util/digest.h"

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

bool same_incident(const Incident& a, const Incident& b) {
  return a.category == b.category && a.location == b.location &&
         a.middle == b.middle && a.faulty_as == b.faulty_as &&
         a.first_seen == b.first_seen && a.last_seen == b.last_seen &&
         a.buckets == b.buckets && a.open == b.open && a.grade == b.grade;
}

bool same_diagnosis(const DiagnosisRecord& a, const DiagnosisRecord& b) {
  const core::ActiveDiagnosis& x = a.diagnosis;
  const core::ActiveDiagnosis& y = b.diagnosis;
  if (a.at != b.at || x.location != y.location || x.middle != y.middle ||
      x.culprit != y.culprit || x.confidence != y.confidence ||
      x.grade != y.grade || x.probes_spent != y.probes_spent ||
      x.culprit_increase_ms != y.culprit_increase_ms ||
      x.probe.target != y.probe.target ||
      x.probe.hops.size() != y.probe.hops.size()) {
    return false;
  }
  for (std::size_t h = 0; h < x.probe.hops.size(); ++h) {
    if (x.probe.hops[h].as != y.probe.hops[h].as ||
        x.probe.hops[h].cumulative_rtt_ms !=
            y.probe.hops[h].cumulative_rtt_ms) {
      return false;
    }
  }
  return true;
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
  ASSERT_EQ(ia.size(), ib.size());
  for (std::size_t i = 0; i < ia.size(); ++i) {
    EXPECT_TRUE(same_incident(ia[i], ib[i])) << "incident " << i;
  }
  const auto da = a.recent_diagnoses();
  const auto db = b.recent_diagnoses();
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_TRUE(same_diagnosis(da[i], db[i])) << "diagnosis " << i;
  }
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

core::ActiveDiagnosis make_diagnosis(std::uint16_t location,
                                     std::uint32_t middle, std::int64_t seq) {
  core::ActiveDiagnosis diag;
  diag.location = net::CloudLocationId{location};
  diag.middle = net::MiddleSegmentId{middle};
  diag.probe_reached = seq % 3 != 0;
  diag.have_baseline = seq % 4 != 0;
  if (seq % 4 != 1) {
    diag.culprit = net::AsId{static_cast<std::uint32_t>(300 + seq % 9)};
  }
  diag.culprit_increase_ms = 0.5 * static_cast<double>(seq % 40);
  diag.confidence = static_cast<core::DiagnosisConfidence>(seq % 3);
  if (seq % 5 == 0) diag.grade = core::BaselineGrade::ProbedCold;
  diag.probes_spent = static_cast<int>(1 + seq % 3);
  diag.probe.from = diag.location;
  diag.probe.target = net::Slash24{static_cast<std::uint32_t>(seq)};
  for (std::int64_t h = 0; h < seq % 4; ++h) {
    diag.probe.hops.push_back(sim::TracerouteHop{
        net::AsId{static_cast<std::uint32_t>(400 + h)},
        10.0 * static_cast<double>(h + 1) + static_cast<double>(seq % 7)});
  }
  return diag;
}

/// Enough steps to wrap the closed-incident ring (1024) and the diagnosis
/// ring (256) several times over. Every bucket opens three middle runs and
/// closes the previous three, one cloud run stays open throughout, client
/// runs come and go, and every step lands one or two diagnoses. Some steps
/// span two buckets, repeat a key (the later blame wins), or carry a blame
/// already past the retention horizon.
void publish_long_history(VerdictStore& store) {
  std::int64_t seq = 0;
  for (std::int64_t bucket = 20; bucket < 470; ++seq) {
    const int span = seq % 7 == 3 ? 2 : 1;
    core::StepReport report;
    report.now = util::TimeBucket{bucket + span}.start();
    report.buckets_processed = span;
    report.degraded_passive_only = seq % 11 == 5;
    for (int s = 0; s < span; ++s) {
      const std::int64_t b = bucket + s;
      for (std::uint32_t m = 0; m < 3; ++m) {
        const auto middle = static_cast<std::uint32_t>(1000 + 3 * b + m);
        auto blame =
            make_blame(static_cast<std::uint32_t>(100 + (3 * b + m) % 61),
                       static_cast<std::uint16_t>(1 + m % 2), b,
                       core::Blame::Middle, middle);
        if ((b + m) % 5 == 0) blame.grade = core::BaselineGrade::Transferred;
        report.blames.push_back(blame);
      }
      report.blames.push_back(make_blame(7, 2, b, core::Blame::Cloud));
      if (b % 3 != 0) {
        report.blames.push_back(make_blame(
            static_cast<std::uint32_t>(200 + b % 13), 3, b,
            core::Blame::Client, 1, static_cast<std::uint32_t>(500 + b % 4)));
      }
      // Same ⟨/24, location⟩ as the last middle blame: it replaces it.
      auto repeat =
          make_blame(static_cast<std::uint32_t>(100 + (3 * b + 2) % 61), 1,
                     b, core::Blame::Ambiguous);
      repeat.quartet.mean_rtt_ms = 90.0 + static_cast<double>(b % 5);
      report.blames.push_back(repeat);
    }
    if (seq % 50 == 7) {
      report.blames.push_back(
          make_blame(999, 1, bucket - 30, core::Blame::Insufficient));
    }
    const auto middle = static_cast<std::uint32_t>(1000 + 3 * bucket);
    report.diagnoses.push_back(make_diagnosis(1, middle, seq));
    if (seq % 6 == 0) {
      report.diagnoses.push_back(make_diagnosis(1, middle, seq + 1));
    }
    store.publish(report);
    bucket += span;
  }
}

std::string verdicts_section_digest(const VerdictStore& store) {
  store::SnapshotWriter writer;
  store.save_state(writer);
  const auto reader =
      store::SnapshotReader::from_bytes(writer.serialize(), "<digest>");
  store::ByteReader in = reader.section("verdicts");
  return util::Digest64{}.update(in.bytes(in.remaining())).hex();
}

// The `verdicts` section is a compatibility surface: snapshots written by
// earlier builds must restore, and the same publish sequence must write the
// same bytes whatever the in-memory layout. The digest was recorded on the
// hash-map store this layout replaced.
TEST(VerdictStoreTest, VerdictsSectionBytesArePinned) {
  VerdictStore store;
  publish_every_transition(store);
  publish_long_history(store);
  EXPECT_EQ(store.recent_diagnoses().size(), 256u);
  const auto incidents = store.incidents_since(util::MinuteTime{0});
  std::size_t closed = 0;
  for (const auto& inc : incidents) closed += inc.open ? 0 : 1;
  EXPECT_EQ(closed, 1024u);
  EXPECT_EQ(verdicts_section_digest(store), "7cf87addf4833e6a");
}

TEST(VerdictStoreTest, RestoredStoreAnswersAndContinuesLikeTheLiveOne) {
  VerdictStore live;
  publish_every_transition(live);
  publish_long_history(live);

  store::SnapshotWriter writer;
  live.save_state(writer);
  const auto reader =
      store::SnapshotReader::from_bytes(writer.serialize(), "<rt>");
  VerdictStore restored;
  restored.restore_state(reader);
  expect_same_answers(live, restored);
  EXPECT_EQ(verdicts_section_digest(restored), verdicts_section_digest(live));
  EXPECT_EQ(restored.verdict_state_bytes(), live.verdict_state_bytes());

  for (VerdictStore* store : {&live, &restored}) {
    auto report = make_report(
        470, {make_blame(7, 2, 470, core::Blame::Cloud),
              make_blame(100, 1, 470, core::Blame::Middle, 2410)});
    report.diagnoses.push_back(make_diagnosis(1, 2410, 9));
    store->publish(report);
    store->publish(make_report(471, {}));
  }
  // Answers match exactly. The serialized closed log may not: runs closing
  // in the same bucket close in open-run hash-map order, which a restore
  // does not reproduce.
  expect_same_answers(live, restored);
}

TEST(ChunkLogTest, ViewsStayFixedWhileTheLogAppendsAndTrims) {
  ChunkLog<int> log;
  const auto items = [](const ChunkLog<int>::View& view) {
    std::vector<int> out;
    view.for_each([&](int v) { out.push_back(v); });
    return out;
  };
  EXPECT_TRUE(items(log.view()).empty());
  for (int i = 0; i < 100; ++i) log.push_back(i);
  const auto before = log.view();
  for (int i = 100; i < 300; ++i) {
    log.push_back(i);
    log.trim(70);
  }
  EXPECT_EQ(log.size(), 70u);
  std::vector<int> expected;
  for (int i = 230; i < 300; ++i) expected.push_back(i);
  EXPECT_EQ(items(log.view()), expected);
  // The older view still reads its own 100 items, from chunks the log has
  // since dropped.
  expected.clear();
  for (int i = 0; i < 100; ++i) expected.push_back(i);
  EXPECT_EQ(items(before), expected);
  log.trim(0);
  EXPECT_TRUE(items(log.view()).empty());
  log.push_back(7);
  EXPECT_EQ(items(log.view()), std::vector<int>{7});
}

// Readers copy the timeline while the publisher appends to the tail chunk
// and drops head chunks of both logs. Run under TSan in CI.
TEST(VerdictStoreTest, TimelineReadersRaceHeadChunkDrops) {
  VerdictStore store{{.max_closed_incidents = 70, .max_diagnoses = 70}};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto incidents = store.incidents_since(util::MinuteTime{0});
        EXPECT_LE(incidents.size(), 72u);
        for (std::size_t i = 0; i < incidents.size(); ++i) {
          if (i > 0) {
            EXPECT_LE(incidents[i - 1].first_seen, incidents[i].first_seen);
          }
          if (!incidents[i].open) {
            EXPECT_EQ(incidents[i].buckets, 1);  // one bucket per run
            EXPECT_EQ(incidents[i].first_seen, incidents[i].last_seen);
          }
        }
        const auto diagnoses = store.recent_diagnoses();
        EXPECT_LE(diagnoses.size(), 70u);
        for (std::size_t i = 0; i < diagnoses.size(); ++i) {
          const auto& probe = diagnoses[i].diagnosis.probe;
          EXPECT_EQ(probe.hops.size(), probe.target.block % 4);
          if (i > 0) {
            EXPECT_EQ(probe.target.block,
                      diagnoses[i - 1].diagnosis.probe.target.block + 1);
          }
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (reads.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  for (std::int64_t step = 0; step < 400; ++step) {
    const std::int64_t bucket = 10 + step;
    auto report = make_report(
        bucket,
        {make_blame(3, 1, bucket, core::Blame::Middle,
                    static_cast<std::uint32_t>(1000 + step)),
         make_blame(7, 2, bucket, core::Blame::Cloud)});
    report.diagnoses.push_back(make_diagnosis(
        1, static_cast<std::uint32_t>(1000 + step), step));
    store.publish(report);
  }
  const auto reads_at_end = reads.load(std::memory_order_relaxed);
  while (reads.load(std::memory_order_relaxed) <= reads_at_end) {
    std::this_thread::yield();
  }
  stop = true;
  for (auto& r : readers) r.join();
  EXPECT_EQ(store.recent_diagnoses().size(), 70u);
  EXPECT_EQ(store.incidents_since(util::MinuteTime{0}).size(), 72u);
}

// --- Hostile `verdicts` sections. ---

/// A verdicts payload header (format 2) up to the row count.
std::string verdicts_header() {
  std::string out;
  store::put_varint(out, 2);
  store::put_svarint(out, 20);  // newest bucket
  store::put_varint(out, 1);    // steps
  store::put_varint(out, 0);    // degraded steps
  store::put_u64(out, 1);       // epoch
  store::put_svarint(out, 0);   // last step
  store::put_varint(out, 0);    // degraded
  return out;
}

/// One verdict row's columns after the key deltas, with `blame` and
/// `confidence` bytes as given.
void put_row_columns(std::string& out, std::uint8_t blame,
                     std::uint8_t confidence) {
  store::put_varint(out, 7);    // middle
  store::put_varint(out, 100);  // client AS
  out.push_back(static_cast<char>(blame));
  store::put_varint(out, 0);    // faulty AS
  out.push_back(static_cast<char>(confidence));
  out.push_back(0);             // flags + grade
  store::put_svarint(out, 20);  // bucket
  store::put_f64(out, 80.0);
  store::put_svarint(out, 20);  // samples
}

std::string verdicts_restore_error(const std::string& payload) {
  store::SnapshotWriter writer;
  writer.section("verdicts") = payload;
  const auto reader =
      store::SnapshotReader::from_bytes(writer.serialize(), "<hostile>");
  VerdictStore store;
  try {
    store.restore_state(reader);
  } catch (const store::SnapshotError& e) {
    return e.what();
  }
  return "";
}

TEST(VerdictStoreTest, HostileVerdictsSectionsAreRejectedByName) {
  struct Row {
    const char* name;
    std::string payload;
    std::string message;  ///< "" = must restore cleanly
  };
  std::vector<Row> rows;
  const auto tail = [](std::string out) {
    for (int i = 0; i < 3; ++i) store::put_varint(out, 0);  // runs, logs
    return out;
  };
  {
    std::string ok = verdicts_header();
    store::put_varint(ok, 1);
    store::put_varint(ok, (std::uint64_t{5} << 16) | 1);
    put_row_columns(ok, 0, 0);
    rows.push_back({"well formed", tail(ok), ""});
  }
  {
    // 2^39 declared rows, ten bytes to read them from: rejected before any
    // row is allocated.
    std::string huge = verdicts_header();
    store::put_varint(huge, std::uint64_t{1} << 39);
    huge.append(10, '\0');
    rows.push_back({"row count past the section", huge,
                    "verdict row count exceeds section"});
  }
  {
    std::string dup = verdicts_header();
    store::put_varint(dup, 2);
    store::put_varint(dup, (std::uint64_t{5} << 16) | 1);
    store::put_varint(dup, 0);  // same key again
    for (int r = 0; r < 2; ++r) put_row_columns(dup, 0, 0);
    rows.push_back({"zero key delta", tail(dup),
                    "duplicate or out-of-order key"});
  }
  {
    std::string blame = verdicts_header();
    store::put_varint(blame, 1);
    store::put_varint(blame, (std::uint64_t{5} << 16) | 1);
    put_row_columns(blame, 9, 0);
    rows.push_back({"blame byte 9", tail(blame), "verdict blame out of range"});
  }
  {
    std::string confidence = verdicts_header();
    store::put_varint(confidence, 1);
    store::put_varint(confidence, (std::uint64_t{5} << 16) | 1);
    put_row_columns(confidence, 0, 3);
    rows.push_back({"confidence byte 3", tail(confidence),
                    "verdict confidence out of range"});
  }
  {
    std::string runs = verdicts_header();
    store::put_varint(runs, 0);
    store::put_varint(runs, std::uint64_t{1} << 32);  // open runs
    rows.push_back({"open-run count past the section", runs,
                    "open-run count exceeds section"});
  }
  {
    std::string closed = verdicts_header();
    store::put_varint(closed, 0);
    store::put_varint(closed, 0);
    store::put_varint(closed, std::uint64_t{1} << 32);  // closed incidents
    rows.push_back({"closed count past the section", closed,
                    "closed-incident count exceeds section"});
  }
  {
    std::string diagnoses = verdicts_header();
    for (int i = 0; i < 3; ++i) store::put_varint(diagnoses, 0);
    store::put_varint(diagnoses, std::uint64_t{1} << 32);
    rows.push_back({"diagnosis count past the section", diagnoses,
                    "diagnosis count exceeds section"});
  }

  for (const Row& row : rows) {
    const std::string error = verdicts_restore_error(row.payload);
    if (row.message.empty()) {
      EXPECT_EQ(error, "") << row.name;
      continue;
    }
    EXPECT_NE(error.find(row.message), std::string::npos)
        << row.name << ": " << error;
    EXPECT_NE(error.find("section \"verdicts\""), std::string::npos)
        << row.name << ": " << error;
  }
}

}  // namespace
}  // namespace blameit::svc
