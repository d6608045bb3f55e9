// End-to-end BlameIt benchmark: replays pre-synthesised telemetry through
// ingest -> learn -> localize -> active -> background -> VerdictStore
// publish -> HTTP /v1/verdict and prints one JSON result line.
//
//   e2ebench --workload ingest_day|fault_storm
//            --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the span trace into DIR). The exit code is 1 when any output
// check failed, 2 on bad arguments or a setup error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("bad --seed");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !e2ebench::is_workload(options.workload)) {
    return usage("--workload must be ingest_day or fault_storm");
  }

  e2ebench::Result result;
  try {
    result = e2ebench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }

  for (const auto& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.failures.push_back("metric " + m.name + " is not finite");
    }
  }
  std::fputs(result.report.c_str(), stderr);
  for (const auto& reason : result.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", reason.c_str());
  }

  std::string line = "{\"correct\": ";
  line += result.failures.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    std::snprintf(number, sizeof number, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    line += (i ? ", \"" : "\"") + json_escape(m.name) + "\": {\"value\": " +
            number + ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  line += "}}";
  std::puts(line.c_str());
  return result.failures.empty() ? 0 : 1;
}
