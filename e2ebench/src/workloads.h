// The two workloads of the end-to-end benchmark (see ../README.md):
// ingest_day and fault_storm.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for the snapshot file and the span
  /// trace of a traced run.
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Named reasons of failed output checks; empty when the run is correct.
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  /// Human-readable summary (attribution table, digests) for stderr.
  std::string report;
};

[[nodiscard]] bool is_workload(const std::string& name);

/// Runs one workload. Throws std::exception on setup errors (bad input,
/// socket bind failure); output-check failures land in Result::failures.
[[nodiscard]] Result run_workload(const Options& options);

}  // namespace e2ebench
