// End-to-end analytics throughput: BlameItPipeline::step() latency over
// pre-materialized telemetry, so every run processes the same quartet
// stream; the overhead of a live obs::Registry as a median over interleaved
// plain/instrumented trials; and a cold-vs-warm microbench of the
// expected-RTT median cache itself. Results go to stdout and
// BENCH_pipeline_throughput.json (BenchReport).
//
//   $ ./bench_pipeline_throughput [eval_hours=6] [warm_days=2]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <vector>

#include "bench/common.h"
#include "core/pipeline.h"
#include "obs/registry.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blameit;

  const int eval_hours = argc > 1 ? std::atoi(argv[1]) : 6;
  const int warm_days = argc > 2 ? std::atoi(argv[2]) : 2;
  bench::header("pipeline step() throughput: serial analytics core",
                "§3.3 near-real-time passive phase at scale");

  // One stack provides topology + telemetry; ambient incidents make the
  // blame paths (cloud/middle/client/ambiguous) all do real work.
  auto stack = bench::make_stack();
  const auto incidents = bench::ambient_incidents(
      *stack->topology, warm_days, /*days=*/1 + (eval_hours + 23) / 24, 1.5);
  sim::apply_incidents(incidents, stack->faults, stack->generator.get());

  // Materialize every bucket once: warmup [day 0, warm_days) and the eval
  // window, so all configurations consume byte-identical input and the
  // measurement excludes telemetry generation entirely.
  const int warm_buckets = warm_days * util::kBucketsPerDay;
  const int eval_buckets = eval_hours * 60 / util::kBucketMinutes;
  std::printf("materializing %d warmup + %d eval buckets...\n", warm_buckets,
              eval_buckets);
  std::map<std::int64_t, std::vector<analysis::Quartet>> store;
  std::size_t eval_quartets = 0;
  for (int b = 0; b < warm_buckets + eval_buckets; ++b) {
    auto quartets = stack->quartets(util::TimeBucket{b});
    if (b >= warm_buckets) eval_quartets += quartets.size();
    store.emplace(b, std::move(quartets));
  }
  std::printf("eval window: %s quartets over %d buckets\n\n",
              util::fmt_count(eval_quartets).c_str(), eval_buckets);

  const auto source = [&store](util::TimeBucket bucket) {
    const auto it = store.find(bucket.index);
    return it != store.end() ? it->second : std::vector<analysis::Quartet>{};
  };

  // Runs one full configuration: fresh pipeline, untimed warmup, timed
  // step() loop at 15-minute cadence over the eval window.
  struct RunOutcome {
    double wall_ms = 0.0;
    long blames = 0;
  };
  const auto run_config = [&](obs::Registry* registry = nullptr) {
    core::BlameItPipeline pipeline{stack->topology.get(), stack->engine.get(),
                                   source, bench::bench_pipeline_config(),
                                   registry};
    for (int b = 0; b < warm_buckets; ++b) {
      pipeline.warmup_bucket(util::TimeBucket{b});
    }
    RunOutcome outcome;
    const auto start = util::MinuteTime::from_days(warm_days);
    const auto t0 = Clock::now();
    for (int minute = 15; minute <= eval_hours * 60; minute += 15) {
      const auto report = pipeline.step(start.plus_minutes(minute));
      outcome.blames += static_cast<long>(report.blames.size());
    }
    outcome.wall_ms = ms_since(t0);
    return outcome;
  };

  bench::BenchReport report{"pipeline_throughput"};
  const auto qps = [&](const RunOutcome& r) {
    return static_cast<double>(eval_quartets) / (r.wall_ms / 1e3);
  };
  const auto serial = run_config();
  report.add_run("serial", serial.wall_ms, qps(serial));
  util::TextTable table{{"config", "step wall ms", "quartets/sec", "blames"}};
  table.add_row({"serial", util::fmt(serial.wall_ms, 1),
                 util::fmt_count(static_cast<std::uint64_t>(qps(serial))),
                 std::to_string(serial.blames)});
  std::printf("%s\n", table.to_string().c_str());

  // Observability overhead: the same configuration with a live
  // obs::Registry attached (every layer instrumented) vs without. The
  // instruments are resolved-once pointers + relaxed atomics, so this
  // should stay within noise (<2% target). One pair of runs swings by more
  // than that, so the figure is the median over interleaved pairs, with the
  // side that runs first alternating.
  {
    constexpr int kTrials = 5;
    std::vector<double> overhead_pct;
    RunOutcome instrumented;
    for (int trial = 0; trial < kTrials; ++trial) {
      obs::Registry registry;
      RunOutcome plain;
      if (trial % 2 == 0) {
        plain = run_config();
        instrumented = run_config(&registry);
      } else {
        instrumented = run_config(&registry);
        plain = run_config();
      }
      if (instrumented.blames != plain.blames) {
        std::fprintf(stderr,
                     "FATAL: registry-attached run produced %ld blames, "
                     "plain %ld — observability must not affect output\n",
                     instrumented.blames, plain.blames);
        return 1;
      }
      overhead_pct.push_back((instrumented.wall_ms / plain.wall_ms - 1.0) *
                             100.0);
    }
    std::sort(overhead_pct.begin(), overhead_pct.end());
    const double median = overhead_pct[kTrials / 2];
    std::printf("obs registry overhead: median %+.2f%% over %d interleaved "
                "trials (min %+.2f%%, max %+.2f%%) (target <2%%)\n\n",
                median, kTrials, overhead_pct.front(), overhead_pct.back());
    report.add_run("serial + obs registry", instrumented.wall_ms,
                   qps(instrumented),
                   {{"obs_overhead_pct", median},
                    {"obs_overhead_min_pct", overhead_pct.front()},
                    {"obs_overhead_max_pct", overhead_pct.back()},
                    {"trials", static_cast<double>(kTrials)}});
  }

  // Cold-vs-warm median cache microbench over one learner state. The cache
  // holds one query day per key, so alternating between two query days
  // misses on every call (re-pool + re-median); repeating one day hits.
  // Both days' windows cover the whole warmup history.
  std::printf("expected-RTT median cache (cold vs warm):\n");
  analysis::ExpectedRttLearner learner;
  std::set<std::uint64_t> seen;
  std::vector<analysis::ExpectedRttKey> keys;
  for (int b = 0; b < warm_buckets; ++b) {
    for (const auto& q : store[b]) {
      const int day = util::TimeBucket{b}.day();
      const auto ck = analysis::cloud_key(q.key.location, q.key.device);
      const auto mk =
          analysis::middle_key(q.key.location, q.middle, q.key.device);
      learner.observe(ck, day, q.mean_rtt_ms);
      learner.observe(mk, day, q.mean_rtt_ms);
      for (const auto key : {ck, mk}) {
        if (seen.insert(key.packed).second) keys.push_back(key);
      }
    }
  }
  const auto learner_bench = [&](bool alternate_days) {
    constexpr int kReps = 20;
    const auto t0 = Clock::now();
    double sink = 0.0;
    long calls = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      // The alternating run ends on warm_days, so the warm run that
      // follows finds every key already cached.
      const int day = warm_days + (alternate_days ? (rep + 1) % 2 : 0);
      for (const auto key : keys) {
        sink += learner.expected(key, day).value_or(0.0);
        ++calls;
      }
    }
    const double wall = ms_since(t0);
    if (sink == 0.12345) std::printf("!");  // defeat dead-code elimination
    return std::pair{wall, calls};
  };
  const auto [cold_ms, cold_calls] = learner_bench(true);
  const auto [warm_ms, warm_calls] = learner_bench(false);
  const double cold_ns = cold_ms * 1e6 / static_cast<double>(cold_calls);
  const double warm_ns = warm_ms * 1e6 / static_cast<double>(warm_calls);
  std::printf("  cold (miss): %.0f ns/call   warm (cached): %.0f ns/call"
              "   -> %.1fx\n\n",
              cold_ns, warm_ns, cold_ns / warm_ns);
  report.add_run("learner expected() cold", cold_ms,
                 static_cast<double>(cold_calls) / (cold_ms / 1e3),
                 {{"ns_per_call", cold_ns}});
  report.add_run("learner expected() warm", warm_ms,
                 static_cast<double>(warm_calls) / (warm_ms / 1e3),
                 {{"ns_per_call", warm_ns},
                  {"speedup_vs_cold", cold_ns / warm_ns}});

  report.write();
  return 0;
}
