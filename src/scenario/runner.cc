#include "scenario/runner.h"

#include <memory>

#include <optional>

#include "analysis/quartet.h"
#include "ingest/source.h"
#include "sim/chaos.h"
#include "sim/rtt_model.h"
#include "sim/traceroute.h"
#include "store/snapshot.h"
#include "util/digest.h"
#include "util/json.h"

namespace blameit::scenario {

namespace {

/// Folds one step's output into the trace digest. Everything that makes a
/// run's OUTPUT (not its timing) is included: the verdict stream with its
/// exact order, and the active diagnoses. Stage wall times are excluded by
/// construction.
void fold_step(util::Digest64& digest, const core::StepReport& report) {
  digest.update(report.now.minutes);
  digest.update(static_cast<std::uint64_t>(report.blames.size()));
  for (const auto& blame : report.blames) {
    const auto& key = blame.quartet.key;
    digest.update(static_cast<std::uint64_t>(key.block.block));
    digest.update(static_cast<std::uint64_t>(key.location.value));
    digest.update(static_cast<std::uint64_t>(key.device));
    digest.update(key.bucket.index);
    digest.update(static_cast<std::uint64_t>(blame.blame));
    digest.update(
        static_cast<std::uint64_t>(blame.faulty_as ? blame.faulty_as->value
                                                   : 0));
  }
  digest.update(static_cast<std::uint64_t>(report.diagnoses.size()));
  for (const auto& diag : report.diagnoses) {
    digest.update(static_cast<std::uint64_t>(diag.location.value));
    digest.update(static_cast<std::uint64_t>(diag.middle.value));
    digest.update(
        static_cast<std::uint64_t>(diag.culprit ? diag.culprit->value : 0));
    digest.update(static_cast<std::uint64_t>(diag.confidence));
    digest.update(diag.probe_reached);
    digest.update(diag.coarse_middle);
  }
  digest.update(report.degraded_passive_only);
}

/// One full execution of the pack. When `restart_at` is set, the pipeline is
/// snapshotted after the step at that time, destroyed, and a fresh pipeline
/// is restored from the snapshot bytes before the next step. Everything
/// else — topology, fault schedule, chaos, traceroute engine, ingest
/// plumbing — lives on: it models the internet and the telemetry stream,
/// which do not restart when the monitor does.
RunResult run_once(const Pack& pack, const RunnerOptions& options,
                   std::optional<util::MinuteTime> restart_at) {
  auto topology = net::make_topology(pack.topology);

  sim::FaultInjector faults;
  sim::TelemetryConfig telemetry_config;
  telemetry_config.seed = pack.telemetry_seed;
  auto generator = std::make_unique<sim::TelemetryGenerator>(
      topology.get(), &faults, telemetry_config);
  auto model = std::make_unique<sim::RttModel>(topology.get(), &faults);

  std::unique_ptr<sim::ChaosInjector> chaos;
  if (pack.chaos.enabled()) {
    chaos = std::make_unique<sim::ChaosInjector>(pack.chaos);
  }
  auto engine = std::make_unique<sim::TracerouteEngine>(
      topology.get(), model.get(), sim::TracerouteConfig{}, chaos.get());

  // Schedule: surges first (they do not touch routing), then incidents —
  // route disruptions require monotonically non-decreasing change times per
  // (location, prefix) timeline, and resolve_incidents already ran in pack
  // order.
  for (const auto& surge : pack.surges) {
    generator->add_surge(sim::TrafficSurge{.start = surge.start,
                                           .duration_minutes =
                                               surge.duration_minutes,
                                           .region = surge.region,
                                           .multiplier = surge.multiplier});
  }
  auto incidents = resolve_incidents(pack, *topology);
  sim::apply_incidents(incidents,
                       sim::ApplyTargets{.injector = &faults,
                                         .generator = generator.get(),
                                         .topology = topology.get()});

  const core::BlameItConfig pipeline_config = pack.pipeline;

  std::unique_ptr<ingest::IngestEngine> ingest_engine;
  core::BlameItPipeline::QuartetSource source;
  if (pack.mode == FeedMode::Records) {
    ingest::IngestConfig ingest_config = pack.ingest;
    if (options.ingest_shards > 0) {
      ingest_config.shards = options.ingest_shards;
    }
    ingest_engine = std::make_unique<ingest::IngestEngine>(
        topology.get(), analysis::BadnessThresholds{}, ingest_config);
    sim::ChaosRecordFeed::Feed feed =
        [&generator = *generator](
            util::TimeBucket bucket,
            const std::function<void(const analysis::RttRecord&)>& sink) {
          generator.generate_records_shuffled(bucket, sink);
        };
    if (chaos && pack.chaos.any_telemetry_chaos()) {
      auto chaotic = std::make_shared<sim::ChaosRecordFeed>(chaos.get(),
                                                            std::move(feed));
      feed = [chaotic](util::TimeBucket bucket,
                       const sim::ChaosRecordFeed::Sink& sink) {
        (*chaotic)(bucket, sink);
      };
    }
    source = ingest::StreamingQuartetSource{ingest_engine.get(),
                                            std::move(feed)};
  } else {
    const net::Topology* topo = topology.get();
    const sim::TelemetryGenerator* gen = generator.get();
    source = [topo, gen](util::TimeBucket bucket) {
      analysis::QuartetBuilder builder{topo, analysis::BadnessThresholds{}};
      gen->generate_aggregates(
          bucket, [&](const analysis::QuartetKey& k, int n, double mean) {
            builder.add_aggregate(k, n, mean);
          });
      return builder.take_bucket(bucket);
    };
  }

  // The source is copied (not moved) into the pipeline so a restarted
  // pipeline can be wired to the very same feed.
  auto pipeline = std::make_unique<core::BlameItPipeline>(
      topology.get(), engine.get(), source, pipeline_config);

  for (int day = 0; day < pack.warmup_days; ++day) {
    for (int b = 0; b < util::kBucketsPerDay; ++b) {
      pipeline->warmup_bucket(
          util::TimeBucket{day * util::kBucketsPerDay + b});
    }
  }

  IncidentScorer scorer{topology.get(), std::move(incidents)};
  util::Digest64 digest;
  RunResult result;
  result.pack_name = pack.name;

  for (int day = pack.warmup_days; day < pack.warmup_days + pack.run_days;
       ++day) {
    for (int minute = 15; minute <= util::kMinutesPerDay; minute += 15) {
      const auto now = util::MinuteTime::from_days(day).plus_minutes(minute);
      const auto report = pipeline->step(now);
      scorer.observe(report);
      fold_step(digest, report);
      ++result.steps;
      result.blames_total += static_cast<long>(report.blames.size());
      result.diagnoses_total += static_cast<long>(report.diagnoses.size());

      if (restart_at && now == *restart_at) {
        // Snapshot, kill, restore. The snapshot round-trips through its
        // serialized byte form — the same container live_pipeline writes to
        // disk — so checksums and version gates are exercised, not just the
        // in-memory section list.
        store::SnapshotWriter writer;
        pipeline->save_snapshot(writer);
        std::string bytes = writer.serialize();
        pipeline.reset();
        pipeline = std::make_unique<core::BlameItPipeline>(
            topology.get(), engine.get(), source, pipeline_config);
        pipeline->restore_snapshot(store::SnapshotReader::from_bytes(
            std::move(bytes), "<restart at " +
                                  std::to_string(restart_at->minutes) +
                                  "m>"));
      }
    }
  }

  result.digest = digest.hex();
  result.scores = scorer.finish();
  for (const auto& score : result.scores) {
    if (score.passed) {
      ++result.passed;
    } else {
      ++result.failed;
    }
  }
  result.accuracy =
      result.scores.empty()
          ? 1.0
          : static_cast<double>(result.passed) /
                static_cast<double>(result.scores.size());

  if (ingest_engine) {
    ingest_engine->close();
    const auto stats = ingest_engine->stats();
    result.ingest_records_in = stats.records_in;
    result.ingest_late_dropped = stats.late_dropped;
    result.ingest_backpressure_waits = stats.backpressure_waits;
    result.ingest_ring_high_water =
        static_cast<std::uint64_t>(stats.ring_high_water);
  }
  return result;
}

}  // namespace

RunResult run_pack(const Pack& pack, const RunnerOptions& options) {
  RunResult reference = run_once(pack, options, std::nullopt);
  if (!pack.restart) return reference;

  // Restart pack: the reference run above is the ground truth; the second
  // run kills and restores the pipeline mid-window. The restarted run is
  // what the pack REPORTS (its digest is what goldens pin), with the
  // reference digest alongside so drift in either run is caught.
  RunResult result = run_once(pack, options, pack.restart->at);
  result.restarted = true;
  result.uninterrupted_digest = reference.digest;
  result.restart_ok = result.digest == reference.digest;
  return result;
}

std::string manifest_jsonl(const Pack& pack, const RunResult& result,
                           const std::string& pack_path,
                           const RunnerOptions& options) {
  std::string out;
  const auto rerun_suffix = [&]() {
    std::string s;
    if (options.ingest_shards > 0) {
      s += " --shards " + std::to_string(options.ingest_shards);
    }
    return s;
  }();

  for (const auto& score : result.scores) {
    util::json::Writer w;
    w.begin_object()
        .member("pack", pack.name)
        .member("incident", score.name)
        .member("expected", core::to_string(score.expected))
        .member("majority", core::to_string(score.majority))
        .member("votes_for_majority", score.votes_for_majority)
        .member("votes_total", score.votes_total)
        .member("detected", score.detected)
        .member("as_identified", score.as_identified)
        .member("primary", score.primary);
    w.key("overlapped_with").begin_array();
    for (const auto& partner : score.overlapped_with) w.value(partner);
    w.end_array();
    w.member("passed", score.passed);
    if (!score.passed) {
      w.member("rerun",
               "scenario_runner --pack " + pack_path + rerun_suffix +
                   "  # incident: " + score.name);
    }
    w.end_object();
    out += std::move(w).str();
    out += '\n';
  }

  util::json::Writer w;
  w.begin_object()
      .member("pack", pack.name)
      .member("digest", result.digest)
      .member("passed", result.passed)
      .member("failed", result.failed)
      .member("accuracy", result.accuracy)
      .member("steps", result.steps)
      .member("blames_total", static_cast<std::int64_t>(result.blames_total))
      .member("diagnoses_total",
              static_cast<std::int64_t>(result.diagnoses_total))
      .member("ingest_records_in", result.ingest_records_in)
      .member("ingest_late_dropped", result.ingest_late_dropped)
      .member("ingest_backpressure_waits", result.ingest_backpressure_waits)
      .member("ingest_ring_high_water", result.ingest_ring_high_water)
      .end_object();
  out += std::move(w).str();
  out += '\n';
  return out;
}

}  // namespace blameit::scenario
