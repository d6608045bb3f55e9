// Executes a scenario pack end-to-end: builds the synthetic internet, wires
// telemetry -> (optional sharded ingest) -> pipeline with the pack's chaos
// profile, applies the fault schedule, runs the evaluation window at the
// 15-minute cadence, and produces
//   (a) a deterministic trace digest — a stable hash over the per-step
//       verdict stream. Two runs of the same pack (any ingest shard
//       count) must produce the same digest; a
//       changed digest means pipeline OUTPUT changed, which is exactly what
//       the CI golden files gate on.
//   (b) per-incident scores with overlap-aware pass/fail (see score.h), and
//   (c) a JSONL manifest with a copy-pasteable rerun command per incident.
#pragma once

#include <string>
#include <vector>

#include "scenario/pack.h"
#include "scenario/score.h"

namespace blameit::scenario {

struct RunnerOptions {
  /// Override the pack's ingest shard count (records mode; 0 = pack value).
  int ingest_shards = 0;
};

struct RunResult {
  std::string pack_name;
  std::string digest;  ///< 16 hex chars over the per-step verdict stream
  std::vector<IncidentScore> scores;
  int passed = 0;
  int failed = 0;
  double accuracy = 0.0;  ///< passed / total
  int steps = 0;
  long blames_total = 0;
  long diagnoses_total = 0;

  // Ingest-plane pressure (records mode only; zero in aggregates mode).
  std::uint64_t ingest_records_in = 0;
  std::uint64_t ingest_late_dropped = 0;
  std::uint64_t ingest_backpressure_waits = 0;
  std::uint64_t ingest_ring_high_water = 0;

  // Restart recovery (packs with a "restart" stanza only). The pack runs
  // twice: once uninterrupted, once with a snapshot/kill/restore of the
  // pipeline at the scheduled step. `digest` above is the RESTARTED run's
  // digest (that is what the golden file pins); restart_ok says it matched
  // the uninterrupted reference — recovery lost or invented nothing.
  bool restarted = false;
  bool restart_ok = true;
  std::string uninterrupted_digest;
};

/// Runs the pack. Throws PackError / std::invalid_argument on schedule
/// errors (e.g. an incident that cannot be applied).
[[nodiscard]] RunResult run_pack(const Pack& pack,
                                 const RunnerOptions& options = {});

/// Renders the JSONL manifest: one line per incident (pass/fail, votes,
/// overlap partners, and a rerun command reproducing this exact run), then
/// one trailing summary line with the digest. `pack_path` appears in the
/// rerun commands.
[[nodiscard]] std::string manifest_jsonl(const Pack& pack,
                                         const RunResult& result,
                                         const std::string& pack_path,
                                         const RunnerOptions& options = {});

}  // namespace blameit::scenario
