// Output checks of the end-to-end benchmark. Each returns std::nullopt when
// the output is correct, or a reason that starts with the check's name; a
// run with any reason is not correct and the benchmark exits nonzero.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/quartet.h"
#include "core/config.h"
#include "core/pipeline.h"
#include "ingest/stats.h"
#include "net/cloud.h"
#include "net/ipv4.h"
#include "util/digest.h"

namespace e2ebench {

using Failure = std::optional<std::string>;

/// ingest_vs_serial: the engine's finalized quartets of one bucket equal
/// (bit-exactly, as a set) what a serial analysis::QuartetBuilder built from
/// the same records in the same order.
[[nodiscard]] Failure check_quartets_match(
    blameit::util::TimeBucket bucket,
    std::vector<blameit::analysis::Quartet> engine,
    std::vector<blameit::analysis::Quartet> serial);

/// What the reference builder says about records that were dropped before
/// becoming quartets (the engine's stats count those quartets, not their
/// records).
struct ReferenceDrops {
  std::uint64_t min_samples_quartets = 0;
  std::uint64_t min_samples_records = 0;
};

/// ingest_accounting: every submitted record is in an emitted quartet or in
/// exactly one drop counter, and the engine's own counters agree with what
/// the benchmark submitted and took.
[[nodiscard]] Failure check_ingest_accounting(
    const blameit::ingest::IngestStats& stats, std::uint64_t submitted,
    std::uint64_t emitted_records, std::uint64_t emitted_quartets,
    const ReferenceDrops& reference);

/// Folds one step's output (blames in order, diagnoses, degraded flag) into
/// a trace digest; timings are excluded.
void fold_step(blameit::util::Digest64& digest,
               const blameit::core::StepReport& report);

/// digest: every replay of the same input produced the same digest.
[[nodiscard]] Failure check_digests(const std::vector<std::string>& digests,
                                    const std::vector<bool>& traced);

/// probe_cap: a step spends at most the probe budget plus one diagnosis's
/// worst case, and no diagnosis exceeds its own quorum x retry cap (the
/// invariant live_pipeline enforces, widened by the one confirmation probe
/// series that probe_on_no_baseline adds to a diagnosis).
[[nodiscard]] Failure check_probe_cap(
    const blameit::core::StepReport& report,
    const blameit::core::BlameItConfig& config);

/// One query of the read mix.
struct Query {
  enum class Kind : std::uint8_t { Point, AllLocations, Incidents };
  Kind kind = Kind::Point;
  blameit::net::Slash24 block;
  blameit::net::CloudLocationId location;
  std::int64_t since_minutes = 0;

  [[nodiscard]] std::string target() const;
};

/// response: a well-formed JSON answer to exactly the key asked. A 404 with
/// an error body is the correct answer to a point lookup with no live
/// verdict.
[[nodiscard]] Failure check_response(const Query& query, int status,
                                     std::string_view body);

}  // namespace e2ebench
