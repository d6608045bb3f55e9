// Microbenchmarks (google-benchmark): throughput of the hot paths — quartet
// construction, Algorithm 1, expected-RTT learning, the prioritizer, and the
// verdict-store publish — verifying the passive phase comfortably sustains
// production-scale quartet volumes on one core.
#include <benchmark/benchmark.h>

#include "analysis/expected_rtt.h"
#include "analysis/quartet.h"
#include "bench/common.h"
#include "core/passive.h"
#include "core/predictors.h"
#include "core/prioritizer.h"
#include "svc/verdict_store.h"

namespace {

using namespace blameit;

struct MicroWorld {
  std::unique_ptr<bench::Stack> stack;
  std::vector<analysis::Quartet> quartets;
  analysis::ExpectedRttLearner learner;

  MicroWorld() : stack(bench::make_stack()) {
    const auto bucket =
        util::TimeBucket::of(util::MinuteTime::from_day_hour(1, 12));
    quartets = stack->quartets(bucket);
    for (int day = 0; day < 2; ++day) {
      for (const auto& q : quartets) {
        learner.observe(analysis::cloud_key(q.key.location, q.key.device),
                        day, q.mean_rtt_ms);
        learner.observe(
            analysis::middle_key(q.key.location, q.middle, q.key.device),
            day, q.mean_rtt_ms);
      }
    }
  }
};

MicroWorld& world() {
  static MicroWorld instance;
  return instance;
}

void BM_QuartetGeneration(benchmark::State& state) {
  auto& w = world();
  std::int64_t bucket_index = 300;
  for (auto _ : state) {
    const auto quartets =
        w.stack->quartets(util::TimeBucket{bucket_index++ % 500 + 200});
    benchmark::DoNotOptimize(quartets.data());
    state.counters["quartets"] = static_cast<double>(quartets.size());
  }
}
BENCHMARK(BM_QuartetGeneration)->Unit(benchmark::kMillisecond);

void BM_Algorithm1(benchmark::State& state) {
  auto& w = world();
  const core::PassiveLocalizer localizer{w.stack->topology.get(),
                                         &w.learner};
  for (auto _ : state) {
    const auto results = localizer.localize(w.quartets, 2);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.quartets.size()));
}
BENCHMARK(BM_Algorithm1)->Unit(benchmark::kMicrosecond);

void BM_Algorithm1Scaled(benchmark::State& state) {
  auto& w = world();
  const core::PassiveLocalizer localizer{w.stack->topology.get(),
                                         &w.learner};
  // Replicate the bucket to the requested quartet volume.
  std::vector<analysis::Quartet> scaled;
  while (scaled.size() < static_cast<std::size_t>(state.range(0))) {
    scaled.insert(scaled.end(), w.quartets.begin(), w.quartets.end());
  }
  scaled.resize(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto results = localizer.localize(scaled, 2);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Algorithm1Scaled)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_ExpectedRttLearning(benchmark::State& state) {
  auto& w = world();
  analysis::ExpectedRttLearner learner;
  int day = 0;
  for (auto _ : state) {
    for (const auto& q : w.quartets) {
      learner.observe(analysis::cloud_key(q.key.location, q.key.device),
                      day, q.mean_rtt_ms);
    }
    ++day;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.quartets.size()));
}
BENCHMARK(BM_ExpectedRttLearning)->Unit(benchmark::kMicrosecond);

void BM_Prioritizer(benchmark::State& state) {
  core::DurationPredictor durations;
  core::ClientVolumePredictor clients;
  util::Rng rng{5};
  for (std::uint64_t key = 0; key < 64; ++key) {
    for (int i = 0; i < 20; ++i) {
      durations.record_duration(key, static_cast<int>(rng.pareto(1.0, 1.1)));
    }
  }
  std::vector<core::MiddleIssue> issues(256);
  for (std::size_t i = 0; i < issues.size(); ++i) {
    issues[i].location = net::CloudLocationId{static_cast<std::uint16_t>(i % 14)};
    issues[i].middle = net::MiddleSegmentId{static_cast<std::uint32_t>(i)};
    issues[i].observed_users = rng.uniform(1.0, 5000.0);
    issues[i].elapsed_buckets = static_cast<int>(rng.uniform_int(1, 24));
  }
  const core::ProbePrioritizer prioritizer{&durations, &clients};
  for (auto _ : state) {
    auto ranked = prioritizer.rank(issues, util::TimeBucket{1000});
    benchmark::DoNotOptimize(ranked.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(issues.size()));
}
BENCHMARK(BM_Prioritizer)->Unit(benchmark::kMicrosecond);

/// One step of a fault_storm-sized publish: 235 blames over the store's
/// live keys (more blames than keys when the store is small, so keys
/// repeat), three middle runs closing and three opening, one cloud run
/// extending, and one diagnosis.
core::StepReport publish_step(std::int64_t bucket, std::uint32_t live_keys,
                              std::uint32_t& cursor) {
  core::StepReport report;
  report.now = util::TimeBucket{bucket}.next().start();
  report.buckets_processed = 1;
  report.blames.reserve(235);
  for (std::uint32_t i = 0; i < 235; ++i) {
    const std::uint32_t key = cursor++ % live_keys;
    core::BlameResult b;
    b.quartet.key.block = net::Slash24{key / 2};
    b.quartet.key.location = net::CloudLocationId{
        static_cast<std::uint16_t>(key % 2)};
    b.quartet.key.bucket = util::TimeBucket{bucket};
    b.quartet.middle = net::MiddleSegmentId{
        static_cast<std::uint32_t>(1000 + 3 * bucket + i % 3)};
    b.quartet.client_as = net::AsId{500 + i % 4};
    b.quartet.mean_rtt_ms = 80.0 + i % 40;
    b.quartet.sample_count = 20;
    b.blame = i % 5 == 0 ? core::Blame::Cloud : core::Blame::Middle;
    if (b.blame == core::Blame::Cloud) b.faulty_as = net::AsId{1};
    report.blames.push_back(b);
  }
  core::ActiveDiagnosis diag;
  diag.location = net::CloudLocationId{0};
  diag.middle =
      net::MiddleSegmentId{static_cast<std::uint32_t>(1000 + 3 * bucket)};
  diag.culprit = net::AsId{4242};
  diag.confidence = core::DiagnosisConfidence::High;
  for (std::uint32_t h = 0; h < 4; ++h) {
    diag.probe.hops.push_back(sim::TracerouteHop{net::AsId{400 + h}, 10.0 * h});
  }
  report.diagnoses.push_back(diag);
  return report;
}

// Arg = live verdicts. Retention is long enough that none age out, so the
// live set stays at the arg; the closed-incident log (1024) and diagnosis
// ring (256) are full before timing starts.
void BM_VerdictPublish(benchmark::State& state) {
  const auto live_keys = static_cast<std::uint32_t>(state.range(0));
  svc::VerdictStore store{
      svc::VerdictStore::Config{.verdict_retention_buckets = 1 << 30}};
  std::uint32_t cursor = 0;
  std::int64_t bucket = 100;
  while (cursor < live_keys) {
    store.publish(publish_step(bucket, live_keys, cursor));
  }
  for (int s = 0; s < 400; ++s) {
    store.publish(publish_step(++bucket, live_keys, cursor));
  }
  // Steps are built in batches outside the timed region, so every timed
  // publish is a fresh, later bucket.
  std::vector<core::StepReport> steps;
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == steps.size()) {
      state.PauseTiming();
      steps.clear();
      for (int s = 0; s < 256; ++s) {
        steps.push_back(publish_step(++bucket, live_keys, cursor));
      }
      next = 0;
      state.ResumeTiming();
    }
    store.publish(steps[next++]);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 235);
}
BENCHMARK(BM_VerdictPublish)
    ->Arg(128)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
