// Tests of the benchmark's output checks: each check accepts a correct run
// at tiny size and rejects the same run with one perturbation (a dropped
// record, an altered quartet, a corrupted response, a diverging replay, an
// overspent probe budget).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "analysis/quartet.h"
#include "checks.h"
#include "http_client.h"
#include "ingest/engine.h"
#include "net/topology.h"
#include "sim/fault.h"
#include "sim/telemetry.h"
#include "svc/http.h"
#include "svc/service.h"
#include "svc/verdict_store.h"

namespace e2ebench {
namespace {

namespace bl = blameit;
using bl::util::TimeBucket;

class ChecksTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bl::net::TopologyConfig cfg;
    cfg.locations_per_region = 1;
    cfg.eyeballs_per_region = 2;
    cfg.blocks_per_eyeball = 4;
    topo_ = bl::net::make_topology(cfg).release();
  }
  static void TearDownTestSuite() {
    delete topo_;
    topo_ = nullptr;
  }

  /// Feeds two buckets of shuffled records through a 2-shard engine and a
  /// serial builder, as the ingest_day workload does.
  void ingest_two_buckets(bool drop_one_record) {
    const bl::sim::TelemetryGenerator gen{topo_, &faults_};
    bl::analysis::QuartetBuilder serial{topo_,
                                        bl::analysis::BadnessThresholds{}};
    bl::ingest::IngestConfig cfg;
    cfg.shards = 2;
    bl::ingest::IngestEngine engine{topo_, bl::analysis::BadnessThresholds{},
                                    cfg};
    const TimeBucket first =
        TimeBucket::of(bl::util::MinuteTime::from_day_hour(0, 12));
    for (int i = 0; i < 2; ++i) {
      const TimeBucket bucket{first.index + i};
      gen.generate_records_shuffled(
          bucket, [&](const bl::analysis::RttRecord& r) {
            serial.add(r);
            ++submitted_;
            // The dropped record vanishes between the benchmark and the
            // engine, outside every drop counter.
            if (drop_one_record && submitted_ == 7) return;
            engine.submit(r);
          });
      engine.advance_watermark(engine.watermark_to_finalize(bucket));
      engine.flush();
      engine_out_.push_back(engine.take_bucket(bucket));
      serial_out_.push_back(serial.take_bucket(bucket));
    }
    for (const auto& bucket : serial_out_) {
      quartets_ += bucket.size();
      for (const auto& q : bucket) {
        records_ += static_cast<std::uint64_t>(q.sample_count);
      }
    }
    drops_.min_samples_quartets = serial.dropped_min_samples();
    drops_.min_samples_records = serial.dropped_min_samples_records();
    stats_ = engine.stats();
  }

  static const bl::net::Topology* topo_;
  bl::sim::FaultInjector faults_;
  std::vector<std::vector<bl::analysis::Quartet>> engine_out_;
  std::vector<std::vector<bl::analysis::Quartet>> serial_out_;
  std::uint64_t submitted_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t quartets_ = 0;
  ReferenceDrops drops_;
  bl::ingest::IngestStats stats_;
};

const bl::net::Topology* ChecksTest::topo_ = nullptr;

TEST_F(ChecksTest, IngestAccountingClosesOnCorrectRun) {
  ingest_two_buckets(/*drop_one_record=*/false);
  ASSERT_GT(submitted_, 100u);
  EXPECT_EQ(check_ingest_accounting(stats_, submitted_, records_, quartets_,
                                    drops_),
            std::nullopt);
}

TEST_F(ChecksTest, IngestAccountingRejectsDroppedRecord) {
  ingest_two_buckets(/*drop_one_record=*/true);
  const auto failure =
      check_ingest_accounting(stats_, submitted_, records_, quartets_, drops_);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->rfind("ingest_accounting:", 0), 0u) << *failure;
}

TEST_F(ChecksTest, QuartetCheckRejectsAlteredQuartet) {
  ingest_two_buckets(/*drop_one_record=*/false);
  const TimeBucket bucket = engine_out_[0].front().key.bucket;
  EXPECT_EQ(check_quartets_match(bucket, engine_out_[0], serial_out_[0]),
            std::nullopt);

  auto altered = engine_out_[0];
  altered[altered.size() / 2].mean_rtt_ms =
      std::nextafter(altered[altered.size() / 2].mean_rtt_ms, 1e9);
  const auto failure = check_quartets_match(bucket, altered, serial_out_[0]);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->rfind("ingest_vs_serial:", 0), 0u) << *failure;

  auto missing = engine_out_[0];
  missing.pop_back();
  EXPECT_TRUE(check_quartets_match(bucket, missing, serial_out_[0]));
}

bl::core::StepReport report_with_blame(bl::net::Slash24 block,
                                       bl::net::CloudLocationId location) {
  bl::core::StepReport report;
  report.now = bl::util::MinuteTime::from_day_hour(0, 12);
  bl::core::BlameResult blame;
  blame.quartet.key = bl::analysis::QuartetKey{
      .block = block,
      .location = location,
      .device = bl::net::DeviceClass::NonMobile,
      .bucket = TimeBucket::of(report.now).prev()};
  blame.quartet.sample_count = 20;
  blame.quartet.mean_rtt_ms = 180.0;
  blame.quartet.bad = true;
  blame.blame = bl::core::Blame::Cloud;
  report.blames.push_back(blame);
  return report;
}

TEST_F(ChecksTest, ResponseCheckRejectsCorruptedResponse) {
  const auto& block = topo_->blocks().front();
  const auto location = topo_->locations_in(block.region).front();
  bl::svc::VerdictStore store;
  store.publish(report_with_blame(block.block, location));
  const bl::svc::VerdictService service{&store};
  bl::svc::HttpServerConfig http;
  http.workers = 1;
  bl::svc::HttpServer server{service.handler(), http};
  ASSERT_TRUE(server.start());

  Query point;
  point.block = block.block;
  point.location = location;
  HttpConnection conn;
  ASSERT_TRUE(conn.open(server.port()));
  ASSERT_TRUE(conn.send_get(point.target()));
  std::optional<HttpReply> reply;
  std::string error;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{5};
  while (!reply && error.empty() &&
         std::chrono::steady_clock::now() < deadline) {
    reply = conn.on_readable(error);
  }
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_EQ(reply->status, 200);
  EXPECT_EQ(check_response(point, reply->status, reply->body), std::nullopt);

  // Truncated body, a verdict for another client, and a server error.
  const std::string truncated = reply->body.substr(0, reply->body.size() / 2);
  std::string other = reply->body;
  const std::string client = block.block.to_string();
  other.replace(other.find(client), client.size(),
                topo_->blocks().back().block.to_string());
  for (const auto& [status, body] :
       {std::pair{200, truncated}, std::pair{200, other},
        std::pair{500, std::string{"{\"error\":\"internal error\"}"}}}) {
    const auto failure = check_response(point, status, body);
    ASSERT_TRUE(failure.has_value()) << body;
    EXPECT_EQ(failure->rfind("response:", 0), 0u) << *failure;
  }

  // No live verdict is answered with 404, which is correct.
  Query missing = point;
  missing.location = bl::net::CloudLocationId{
      static_cast<std::uint16_t>(location.value + 1)};
  EXPECT_EQ(check_response(missing, 404, "{\"error\":\"no live verdict\"}"),
            std::nullopt);
  server.stop();
}

TEST(ReplyParser, RejectsMalformedFraming) {
  std::size_t consumed = 0;
  std::string error;
  EXPECT_FALSE(parse_reply("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{",
                           consumed, error));
  EXPECT_TRUE(error.empty());  // incomplete, not malformed
  EXPECT_FALSE(parse_reply("HTTX/1.1 200 OK\r\n\r\n", consumed, error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(parse_reply("HTTP/1.1 200 OK\r\nX: y\r\n\r\n{}", consumed,
                           error));
  EXPECT_EQ(error, "response without content-length");
  error.clear();
  const auto ok =
      parse_reply("HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\n{}",
                  consumed, error);
  ASSERT_TRUE(ok.has_value()) << error;
  EXPECT_EQ(ok->status, 404);
  EXPECT_EQ(ok->body, "{}");
}

TEST(DigestCheck, RejectsDivergentReplay) {
  const auto block = bl::net::Slash24{0x0A0000};
  const auto location = bl::net::CloudLocationId{1};
  bl::util::Digest64 a;
  bl::util::Digest64 b;
  fold_step(a, report_with_blame(block, location));
  fold_step(b, report_with_blame(block, location));
  EXPECT_EQ(check_digests({a.hex(), b.hex()}, {false, true}), std::nullopt);

  auto changed = report_with_blame(block, location);
  changed.blames[0].blame = bl::core::Blame::Middle;
  bl::util::Digest64 c;
  fold_step(c, changed);
  const auto failure = check_digests({a.hex(), b.hex(), c.hex()},
                                     {false, true, false});
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->rfind("digest:", 0), 0u) << *failure;
}

TEST(ProbeCapCheck, RejectsOverspentStep) {
  bl::core::BlameItConfig config;
  config.active_quorum_k = 3;
  config.active_probe_retries = 2;
  bl::core::StepReport report;
  for (int i = 0; i < 2; ++i) {
    bl::core::ActiveDiagnosis diag;
    diag.probes_spent = 9;
    report.diagnoses.push_back(diag);
    report.on_demand_probes += 9;
  }
  EXPECT_EQ(check_probe_cap(report, config), std::nullopt);

  report.diagnoses[1].probes_spent = 10;  // one attempt past quorum x retry
  report.on_demand_probes = 19;
  auto failure = check_probe_cap(report, config);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->rfind("probe_cap:", 0), 0u) << *failure;

  config.probe_on_no_baseline = true;  // one confirmation series allowed
  EXPECT_EQ(check_probe_cap(report, config), std::nullopt);
  for (int i = 0; i < 3; ++i) {  // budget 10 + one diagnosis's worst case
    bl::core::ActiveDiagnosis diag;
    diag.probes_spent = 12;
    report.diagnoses.push_back(diag);
    report.on_demand_probes += 12;
  }
  failure = check_probe_cap(report, config);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->rfind("probe_cap:", 0), 0u) << *failure;
}

}  // namespace
}  // namespace e2ebench
