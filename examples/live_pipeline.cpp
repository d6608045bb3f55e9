// Ops-floor demo: a day of the full production loop (Fig 7). Raw RTT
// records stream — shuffled, production-style — through the sharded
// ingestion engine into finalized quartets, the pipeline runs every 15
// minutes, incidents fire randomly, tickets open, and the day closes with
// a blame-fraction summary like the paper's Fig 8/9 dashboards plus the
// ingestion counters.
//
//   $ ./live_pipeline [incident_count] [--obs] [--chaos] [--steps N]
//                     [--serve PORT] [--snapshot-dir DIR]
//
// --obs dumps the observability registry (counters, gauges, latency
// histograms from every pipeline layer) after the day completes.
// --chaos runs the measurement plane degraded: 20% probe loss, 10% per-hop
// truncation, silent ASes, duplicated/late telemetry records, and a
// mid-day probing-engine outage. The run doubles as a smoke check: it
// exits nonzero if any step crashes the retry bound or overshoots the
// probe budget (CI runs `--chaos --steps 200`).
// --steps N overrides the step count (default 96 = one day at 15 min).
// --serve PORT publishes every step into the verdict service and serves
// it on 127.0.0.1:PORT (/v1/verdict, /v1/incidents, /v1/diagnoses,
// /metrics.json, /metrics, /healthz). After the day completes the process
// keeps serving until SIGINT, then shuts down cleanly (sockets drained,
// threads joined).
// --snapshot-dir DIR enables restart recovery: on startup, DIR/pipeline.snap
// (when present) replaces the warmup — the run resumes exactly where the
// saved run stopped; on clean exit the final state is written back. The
// verdict store rides along in the same file when --serve is active.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "examples/common.h"
#include "obs/registry.h"
#include "ops/alert.h"
#include "ops/report.h"
#include "sim/chaos.h"
#include "sim/scenario.h"
#include "store/snapshot.h"
#include "svc/service.h"
#include "util/table.h"

namespace {
std::atomic<bool> g_interrupted{false};
void on_sigint(int) { g_interrupted.store(true); }
}  // namespace

int main(int argc, char** argv) {
  using namespace blameit;

  int incident_count = 6;
  bool dump_obs = false;
  bool with_chaos = false;
  int steps = util::kMinutesPerDay / 15;
  int serve_port = -1;
  std::string snapshot_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--obs") == 0) {
      dump_obs = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      with_chaos = true;
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--snapshot-dir") == 0 && i + 1 < argc) {
      snapshot_dir = argv[++i];
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return 2;
    } else {
      incident_count = std::atoi(argv[i]);
    }
  }
  std::printf("== live pipeline: %d steps, %d incidents%s ==\n", steps,
              incident_count, with_chaos ? ", CHAOS ON" : "");

  sim::ChaosConfig chaos_cfg;
  if (with_chaos) {
    chaos_cfg.probe_loss_rate = 0.2;
    chaos_cfg.hop_timeout_rate = 0.1;
    chaos_cfg.silent_as_rate = 0.05;
    chaos_cfg.duplicate_record_rate = 0.02;
    chaos_cfg.late_record_rate = 0.01;
    chaos_cfg.outages.push_back(
        sim::OutageWindow{util::MinuteTime::from_day_hour(2, 13), 45});
  }

  ingest::IngestConfig ingest_cfg;
  ingest_cfg.shards = 4;
  // Same demo-scale pipeline/topology settings as make_streaming_stack's
  // defaults; spelled out because the chaos config comes after them.
  core::BlameItConfig pipe_cfg;
  pipe_cfg.expected_rtt_window_days = 2;
  net::TopologyConfig topo_cfg;
  topo_cfg.locations_per_region = 1;
  topo_cfg.eyeballs_per_region = 4;
  topo_cfg.blocks_per_eyeball = 8;
  auto stack = examples::make_streaming_stack(ingest_cfg, pipe_cfg, topo_cfg,
                                              chaos_cfg);
  const auto& topo = *stack->topology;

  sim::IncidentSuiteConfig suite_cfg;
  suite_cfg.count = incident_count;
  suite_cfg.first_start = util::MinuteTime::from_day_hour(2, 1);
  suite_cfg.max_duration_minutes = 150;
  const auto incidents = sim::make_incident_suite(topo, suite_cfg);
  sim::apply_incidents(incidents, stack->faults, stack->generator.get());
  for (const auto& inc : incidents) {
    std::printf("  scheduled: %-22s %-12s at %s (%d min)\n", inc.name.c_str(),
                std::string{to_string(inc.kind)}.c_str(),
                util::to_string(inc.start).c_str(), inc.duration_minutes);
  }

  // Restart recovery: a prior run's snapshot replaces the warmup entirely —
  // the learner/predictor/baseline state picks up exactly where it stopped.
  const std::filesystem::path snap_path =
      snapshot_dir.empty()
          ? std::filesystem::path{}
          : std::filesystem::path{snapshot_dir} / "pipeline.snap";
  std::unique_ptr<store::SnapshotReader> restored;
  if (!snap_path.empty() && std::filesystem::exists(snap_path)) {
    try {
      restored = std::make_unique<store::SnapshotReader>(
          store::SnapshotReader::from_file(snap_path.string()));
      stack->pipeline->restore_snapshot(*restored);
      std::printf("restored pipeline state from %s\n",
                  snap_path.string().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "snapshot restore failed: %s\n", e.what());
      return 3;
    }
  }
  if (!restored) examples::warm_pipeline(*stack, 2);
  ops::AlertSink alerts;

  // Optional service layer: every step report is published into the
  // verdict store; HTTP readers never block the step loop.
  std::unique_ptr<svc::VerdictStore> store;
  std::unique_ptr<svc::VerdictService> service;
  std::unique_ptr<svc::HttpServer> server;
  if (serve_port >= 0) {
    std::signal(SIGINT, on_sigint);
    std::signal(SIGTERM, on_sigint);
    store = std::make_unique<svc::VerdictStore>(
        svc::VerdictStore::Config{.registry = &stack->registry});
    service =
        std::make_unique<svc::VerdictService>(store.get(), &stack->registry);
    svc::HttpServerConfig http_cfg;
    http_cfg.port = static_cast<std::uint16_t>(serve_port);
    server = std::make_unique<svc::HttpServer>(service->handler(), http_cfg);
    if (!server->start()) {
      std::fprintf(stderr, "failed to bind 127.0.0.1:%d\n", serve_port);
      return 1;
    }
    stack->pipeline->set_step_observer(
        [&](const core::StepReport& report) { store->publish(report); });
    if (restored && restored->has_section("verdicts")) {
      store->restore_state(*restored);
      std::printf("restored verdict store (epoch %llu)\n",
                  static_cast<unsigned long long>(store->epoch()));
    }
    std::printf("serving verdicts on http://127.0.0.1:%u\n", server->port());
  }

  std::map<core::Blame, long> totals;
  long probes_on_demand = 0;
  long probes_background = 0;
  long retries = 0;
  long degraded_steps = 0;
  int violations = 0;
  const auto& cfg = stack->pipeline->config();
  // Hardening invariant: retries are bounded per diagnosis, and the step's
  // total spend can overshoot the budget by at most one diagnosis.
  const int per_diag_cap = cfg.active_quorum_k * (1 + cfg.active_probe_retries);
  for (int k = 1; k <= steps && !g_interrupted.load(); ++k) {
    const int minute = 15 * k;
    const auto now = util::MinuteTime::from_days(2).plus_minutes(minute);
    const auto report = stack->pipeline->step(now);
    for (const auto blame : core::kAllBlames) {
      totals[blame] += report.count(blame);
    }
    probes_on_demand += report.on_demand_probes;
    probes_background += report.background_probes;
    retries += report.active_retries;
    degraded_steps += report.degraded_passive_only;
    if (report.on_demand_probes >
        cfg.probe_budget_per_run + per_diag_cap - 1) {
      std::fprintf(stderr, "INVARIANT VIOLATION at %s: %d probes > budget\n",
                   util::to_string(now).c_str(), report.on_demand_probes);
      ++violations;
    }
    for (const auto& diag : report.diagnoses) {
      if (diag.probes_spent > per_diag_cap) {
        std::fprintf(stderr,
                     "INVARIANT VIOLATION at %s: %d attempts in one "
                     "diagnosis (cap %d)\n",
                     util::to_string(now).c_str(), diag.probes_spent,
                     per_diag_cap);
        ++violations;
      }
    }
    for (const auto& ticket : alerts.digest(report)) {
      std::printf("%s  -> %s\n", util::to_string(now).c_str(),
                  ops::render_ticket(ticket, topo).c_str());
    }
    if (minute % (6 * util::kMinutesPerHour) == 0) {
      std::printf("%s  %s\n", ops::render_step(report, topo).c_str(),
                  ops::render_ingest(stack->ingest_engine->stats()).c_str());
    }
  }

  if (!snap_path.empty()) {
    try {
      std::filesystem::create_directories(snap_path.parent_path());
      store::SnapshotWriter writer;
      stack->pipeline->save_snapshot(writer);
      if (store) store->save_state(writer);
      writer.write_file(snap_path.string());
      std::printf("saved pipeline state to %s\n", snap_path.string().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "snapshot save failed: %s\n", e.what());
      return 3;
    }
  }

  long total_blames = 0;
  for (const auto& [blame, n] : totals) total_blames += n;
  util::TextTable summary{{"category", "bad quartets", "share"}};
  for (const auto blame : core::kAllBlames) {
    summary.add_row({std::string{core::to_string(blame)},
                     util::fmt_count(static_cast<std::uint64_t>(totals[blame])),
                     total_blames
                         ? util::fmt_pct(static_cast<double>(totals[blame]) /
                                         static_cast<double>(total_blames))
                         : "0%"});
  }
  std::puts("\nday summary (compare with the paper's Fig 8 fractions):");
  std::printf("%s", summary.to_string().c_str());
  std::printf("probes: on-demand=%ld background=%ld, tickets=%zu\n",
              probes_on_demand, probes_background,
              alerts.all_tickets().size());
  std::printf("%s\n",
              ops::render_ingest(stack->ingest_engine->stats()).c_str());
  if (with_chaos) {
    const auto snap = stack->registry.snapshot();
    std::printf(
        "chaos: lost=%llu outage=%llu timeouts=%llu silent=%llu dup=%llu "
        "late=%llu | retries=%ld degraded-steps=%ld\n",
        static_cast<unsigned long long>(
            snap.counter_value("chaos.probes_lost").value_or(0)),
        static_cast<unsigned long long>(
            snap.counter_value("chaos.outage_probes").value_or(0)),
        static_cast<unsigned long long>(
            snap.counter_value("chaos.hop_timeouts").value_or(0)),
        static_cast<unsigned long long>(
            snap.counter_value("chaos.silent_hops").value_or(0)),
        static_cast<unsigned long long>(
            snap.counter_value("chaos.records_duplicated").value_or(0)),
        static_cast<unsigned long long>(
            snap.counter_value("chaos.records_delayed").value_or(0)),
        retries, degraded_steps);
  }
  if (dump_obs) {
    std::puts("\n== observability registry ==");
    std::printf("%s", obs::render_text(stack->registry.snapshot()).c_str());
  }
  if (server) {
    std::printf(
        "day complete; serving on http://127.0.0.1:%u until SIGINT "
        "(served %llu requests so far)\n",
        server->port(),
        static_cast<unsigned long long>(server->requests_served()));
    std::fflush(stdout);
    while (!g_interrupted.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds{50});
    }
    server->stop();
    std::printf("service stopped: %llu connections, %llu requests\n",
                static_cast<unsigned long long>(
                    server->connections_accepted()),
                static_cast<unsigned long long>(server->requests_served()));
  }
  if (violations > 0) {
    std::fprintf(stderr, "%d invariant violation(s)\n", violations);
    return 1;
  }
  return 0;
}
