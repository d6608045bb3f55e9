// Pipeline behavior under measurement-plane chaos: bit-exact parity when
// chaos is off, same-seed determinism when it is on, and
// graceful (crash-free, budget-bounded) degradation under heavy loss and
// engine outages.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/quartet.h"
#include "core/pipeline.h"
#include "sim/chaos.h"
#include "sim/telemetry.h"

namespace blameit::core {
namespace {

/// Bit-exact serialization of everything a StepReport decides (doubles in
/// hexfloat, so two fingerprints match only if the runs were identical).
/// Stage wall-times are excluded — they are measurements of the host, not
/// outputs of the pipeline.
std::string fingerprint(const StepReport& r) {
  std::ostringstream oss;
  oss << std::hexfloat;
  oss << r.now.minutes << '|' << r.buckets_processed << '|'
      << r.on_demand_probes << '|' << r.background_probes << '|'
      << r.active_retries << '|' << r.degraded_passive_only << '\n';
  for (const auto& b : r.blames) {
    oss << " B" << b.quartet.key.block.block << ','
        << b.quartet.key.location.value << ','
        << static_cast<int>(b.quartet.key.device) << ','
        << b.quartet.key.bucket.index << ',' << b.quartet.sample_count << ','
        << b.quartet.mean_rtt_ms << ',' << static_cast<int>(b.blame) << ','
        << (b.faulty_as ? b.faulty_as->value : 0) << '\n';
  }
  for (const auto& i : r.ranked_issues) {
    oss << " I" << i.location.value << ',' << i.middle.value << ','
        << i.representative_block.block << ',' << i.observed_users << ','
        << i.elapsed_buckets << ',' << i.predicted_remaining_buckets << ','
        << i.predicted_users << ',' << i.client_time_product << '\n';
  }
  for (const auto& d : r.diagnoses) {
    oss << " D" << d.location.value << ',' << d.middle.value << ','
        << d.probe_reached << d.have_baseline << d.baseline_predates_issue
        << d.baseline_stale << d.truncated << d.coarse_middle << ','
        << (d.culprit ? d.culprit->value : 0) << ',' << d.culprit_increase_ms
        << ',' << static_cast<int>(d.confidence) << ',' << d.probes_spent
        << ',' << d.retries << '\n';
  }
  return oss.str();
}

class ChaosPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net::TopologyConfig cfg;
    cfg.locations_per_region = 1;
    cfg.eyeballs_per_region = 3;
    cfg.blocks_per_eyeball = 16;
    topo_ = net::make_topology(cfg).release();
  }
  static void TearDownTestSuite() {
    delete topo_;
    topo_ = nullptr;
  }

  /// Builds the full stack; with an enabled chaos config the engine gets an
  /// injector attached, otherwise it runs pristine.
  void build(BlameItConfig cfg = shortened_config(),
             sim::ChaosConfig chaos = {}) {
    generator_ = std::make_unique<sim::TelemetryGenerator>(topo_, &faults_);
    model_ = std::make_unique<sim::RttModel>(topo_, &faults_);
    chaos_ = chaos.enabled()
                 ? std::make_unique<sim::ChaosInjector>(chaos)
                 : nullptr;
    engine_ = std::make_unique<sim::TracerouteEngine>(
        topo_, model_.get(), sim::TracerouteConfig{}, chaos_.get());
    auto source = [this](util::TimeBucket bucket) {
      analysis::QuartetBuilder builder{topo_, analysis::BadnessThresholds{}};
      generator_->generate_aggregates(
          bucket, [&](const analysis::QuartetKey& k, int n, double mean) {
            builder.add_aggregate(k, n, mean);
          });
      return builder.take_bucket(bucket);
    };
    pipeline_ = std::make_unique<BlameItPipeline>(topo_, engine_.get(),
                                                  source, cfg);
  }

  static BlameItConfig shortened_config() {
    BlameItConfig cfg;
    cfg.expected_rtt_window_days = 2;
    return cfg;
  }

  void warm(int days) {
    for (int day = 0; day < days; ++day) {
      for (int b = 0; b < util::kBucketsPerDay; ++b) {
        pipeline_->warmup_bucket(
            util::TimeBucket{day * util::kBucketsPerDay + b});
      }
    }
  }

  /// Runs `steps` 15-minute steps starting on day 2 at 09:00 (busy hours —
  /// overnight buckets are too thin to clear the min-quartets gate) and
  /// fingerprints each.
  std::vector<std::string> run_steps(int steps) {
    std::vector<std::string> prints;
    prints.reserve(static_cast<std::size_t>(steps));
    for (int k = 1; k <= steps; ++k) {
      prints.push_back(fingerprint(pipeline_->step(step_time(k))));
    }
    return prints;
  }

  static util::MinuteTime step_time(int k) {
    return util::MinuteTime::from_day_hour(2, 9).plus_minutes(15 * k);
  }

  /// A transit AS that in-region routes cross without dominating any
  /// location (so its fault passively classifies as Middle, not Cloud).
  static net::AsId used_transit(net::Region region) {
    std::map<std::uint32_t, std::map<std::uint32_t, int>> usage;
    std::map<std::uint32_t, int> loc_totals;
    for (const auto& block : topo_->blocks()) {
      if (block.region != region) continue;
      const auto loc = topo_->home_locations(block.block).front();
      const auto* route =
          topo_->routing().route_for(loc, block.block, util::MinuteTime{0});
      ++loc_totals[loc.value];
      for (const auto as : route->middle_ases()) ++usage[as.value][loc.value];
    }
    std::uint32_t best = 0;
    int best_total = -1;
    for (const auto& [as, per_loc] : usage) {
      int total = 0;
      double max_share = 0.0;
      for (const auto& [loc, n] : per_loc) {
        total += n;
        max_share =
            std::max(max_share, static_cast<double>(n) / loc_totals[loc]);
      }
      if (max_share <= 0.6 && total > best_total) {
        best = as;
        best_total = total;
      }
    }
    return net::AsId{best};
  }

  void add_middle_fault(int duration_minutes) {
    faults_.add(sim::Fault{.kind = sim::FaultKind::MiddleAs,
                           .as = used_transit(net::Region::Europe),
                           .added_ms = 120.0,
                           .start = util::MinuteTime::from_day_hour(2, 9),
                           .duration_minutes = duration_minutes});
  }

  static net::Topology* topo_;
  sim::FaultInjector faults_;
  std::unique_ptr<sim::TelemetryGenerator> generator_;
  std::unique_ptr<sim::RttModel> model_;
  std::unique_ptr<sim::ChaosInjector> chaos_;
  std::unique_ptr<sim::ChaosInjector> inert_injector_;
  std::unique_ptr<sim::TracerouteEngine> engine_;
  std::unique_ptr<BlameItPipeline> pipeline_;
};

net::Topology* ChaosPipelineTest::topo_ = nullptr;

TEST_F(ChaosPipelineTest, ChaosOffIsBitIdenticalToSeedPipeline) {
  // The acceptance bar for the whole robustness layer: with chaos disabled,
  // the hardened pipeline's StepReport stream is EXACTLY the seed
  // pipeline's — engine without an injector vs engine with an inert one.
  add_middle_fault(120);
  build();  // no injector at all (the pre-chaos construction)
  warm(2);
  const auto seed = run_steps(8);

  faults_ = {};
  add_middle_fault(120);
  sim::ChaosConfig inert;  // default: every rate zero, no outages
  ASSERT_FALSE(inert.enabled());
  build(shortened_config(), inert);
  // enabled()==false skips the injector; force one to prove inert == none.
  inert_injector_ = std::make_unique<sim::ChaosInjector>(inert);
  engine_->set_chaos(inert_injector_.get());
  warm(2);
  EXPECT_EQ(run_steps(8), seed);

  // Sanity: the stream actually exercised the active phase.
  bool any_diag = false;
  for (const auto& p : seed) any_diag |= p.find(" D") != std::string::npos;
  EXPECT_TRUE(any_diag);
}

TEST_F(ChaosPipelineTest, SameSeedSameReportsUnderChaos) {
  // Chaos draws derive from event identity: two fresh pipelines under 20%
  // loss + 10% truncation produce the identical report stream.
  sim::ChaosConfig chaos;
  chaos.probe_loss_rate = 0.2;
  chaos.hop_timeout_rate = 0.1;
  const auto run = [&] {
    faults_ = {};
    add_middle_fault(120);
    build(shortened_config(), chaos);
    warm(2);
    return run_steps(8);
  };
  const auto first = run();
  EXPECT_EQ(run(), first);
}

TEST_F(ChaosPipelineTest, HeavyChaosCompletes200StepsGracefully) {
  // 20% probe loss + 10% per-hop truncation for 200 consecutive steps with
  // a long-lived middle fault: no crashes, spend stays budget-bounded, and
  // every degraded diagnosis is honest about its confidence.
  sim::ChaosConfig chaos;
  chaos.probe_loss_rate = 0.2;
  chaos.hop_timeout_rate = 0.1;
  add_middle_fault(200 * 15 + 60);
  const auto cfg = shortened_config();
  build(cfg, chaos);
  warm(2);

  const int per_diag_cap =
      cfg.active_quorum_k * (1 + cfg.active_probe_retries);
  int total_diags = 0;
  int total_retries = 0;
  int degraded_evidence = 0;
  for (int k = 1; k <= 200; ++k) {
    const auto report = pipeline_->step(step_time(k));
    // The budget loop stops once spend reaches the budget; only the last
    // diagnosis can overshoot, by at most one diagnosis's worth of attempts.
    EXPECT_LE(report.on_demand_probes,
              cfg.probe_budget_per_run + per_diag_cap - 1);
    EXPECT_LE(report.active_retries, report.on_demand_probes);
    for (const auto& diag : report.diagnoses) {
      ++total_diags;
      total_retries += diag.retries;
      EXPECT_LE(diag.probes_spent, per_diag_cap);
      // Affected diagnoses carry an honest confidence downgrade.
      if (diag.truncated || !diag.have_baseline) {
        EXPECT_NE(diag.confidence, DiagnosisConfidence::High);
      }
      if (diag.coarse_middle) {
        EXPECT_FALSE(diag.culprit.has_value());
        EXPECT_EQ(diag.confidence, DiagnosisConfidence::Low);
        ++degraded_evidence;
      }
      if (!diag.probe_reached) ++degraded_evidence;
    }
  }
  // The fault was live the whole time: the active phase kept working...
  EXPECT_GT(total_diags, 0);
  // ...and the chaos actually bit (retries happened, some probes degraded).
  EXPECT_GT(total_retries, 0);
  EXPECT_GT(degraded_evidence, 0);
}

TEST_F(ChaosPipelineTest, OutageWindowDegradesToPassiveOnly) {
  sim::ChaosConfig chaos;
  chaos.outages.push_back(
      sim::OutageWindow{util::MinuteTime::from_day_hour(2, 10), 60});
  add_middle_fault(4 * 60);
  build(shortened_config(), chaos);
  warm(2);

  int degraded_steps = 0;
  int diagnosed_steps = 0;
  for (int k = 1; k <= 16; ++k) {
    const auto now = step_time(k);
    const auto report = pipeline_->step(now);
    if (report.degraded_passive_only) {
      ++degraded_steps;
      EXPECT_TRUE(engine_->in_outage(now));
      // Passive output survives (issues stay ranked) but no probes fire.
      EXPECT_FALSE(report.ranked_issues.empty());
      EXPECT_TRUE(report.diagnoses.empty());
      EXPECT_EQ(report.on_demand_probes, 0);
    } else if (!report.diagnoses.empty()) {
      ++diagnosed_steps;
      EXPECT_FALSE(engine_->in_outage(now));
    }
  }
  EXPECT_GT(degraded_steps, 0);   // the window was hit and flagged
  EXPECT_GT(diagnosed_steps, 0);  // probing resumed outside it
}

}  // namespace
}  // namespace blameit::core
