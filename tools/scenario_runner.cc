// scenario_runner: execute declarative scenario packs and report a
// deterministic trace digest + per-incident pass/fail.
//
//   scenario_runner --pack packs/flash_crowd.json
//   scenario_runner --pack a.json --pack b.json --golden packs/GOLDEN_DIGESTS
//   scenario_runner --pack a.json --shards 8 --manifest-dir out/
//
// Exit codes:
//   0  every pack ran; digests matched the golden file (when given)
//   2  usage, schema, or runtime error (the message names file:line:column
//      and the offending field for pack errors)
//   3  a digest diverged from the golden file / --expect-digest
//   4  a pack's incident accuracy fell below its --min-accuracy floor
//
// Failing INCIDENTS do not affect the exit code by default: frontier packs
// exist precisely to pin down current misses, and the golden digest asserts
// the whole verdict stream anyway — strictly stronger than pass counts.
// --min-accuracy turns a pack's accuracy into a ratcheted floor: once the
// pipeline learns to localize a pack's incidents, CI pins that win so a
// regression cannot slip back in behind an intentional digest refresh.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/pack.h"
#include "scenario/runner.h"

namespace {

using namespace blameit;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --pack FILE [--pack FILE ...]\n"
      "          [--shards N]         ingest shards override (records mode)\n"
      "          [--manifest-dir DIR] write DIR/<pack>.manifest.jsonl\n"
      "          [--golden FILE]      compare digests (lines: <name> <hex>)\n"
      "          [--update-golden FILE] write digests instead of comparing\n"
      "          [--expect-digest HEX]  assert a single pack's digest\n"
      "          [--min-accuracy PACK=FLOOR] fail (exit 4) if PACK's\n"
      "                               incident accuracy drops below FLOOR\n",
      argv0);
  return 2;
}

std::map<std::string, std::string> load_golden(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error{path + ": cannot open golden digest file"};
  }
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row{line};
    std::string name;
    std::string digest;
    if (!(row >> name >> digest)) {
      throw std::runtime_error{path + ": malformed line \"" + line +
                               "\" (want: <pack-name> <hex-digest>)"};
    }
    out[name] = digest;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> pack_paths;
  scenario::RunnerOptions options;
  std::string manifest_dir;
  std::string golden_path;
  std::string update_golden_path;
  std::string expect_digest;
  std::map<std::string, double> accuracy_floors;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--pack") {
      pack_paths.emplace_back(next());
    } else if (arg == "--shards") {
      options.ingest_shards = std::atoi(next());
    } else if (arg == "--manifest-dir") {
      manifest_dir = next();
    } else if (arg == "--golden") {
      golden_path = next();
    } else if (arg == "--update-golden") {
      update_golden_path = next();
    } else if (arg == "--expect-digest") {
      expect_digest = next();
    } else if (arg == "--min-accuracy") {
      const std::string spec = next();
      const auto eq = spec.find('=');
      char* end = nullptr;
      const double floor =
          eq == std::string::npos
              ? -1.0
              : std::strtod(spec.c_str() + eq + 1, &end);
      if (eq == std::string::npos || eq == 0 ||
          end != spec.c_str() + spec.size() || floor < 0.0 || floor > 1.0) {
        std::fprintf(stderr,
                     "%s: --min-accuracy wants PACK=FLOOR with FLOOR in "
                     "[0, 1], got \"%s\"\n",
                     argv[0], spec.c_str());
        return 2;
      }
      accuracy_floors[spec.substr(0, eq)] = floor;
    } else {
      std::fprintf(stderr, "%s: unknown argument %s\n", argv[0], arg.c_str());
      return usage(argv[0]);
    }
  }
  if (pack_paths.empty()) return usage(argv[0]);
  if (!expect_digest.empty() && pack_paths.size() != 1) {
    std::fprintf(stderr, "--expect-digest requires exactly one --pack\n");
    return 2;
  }

  std::map<std::string, std::string> golden;
  try {
    if (!golden_path.empty()) golden = load_golden(golden_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  bool digest_mismatch = false;
  bool accuracy_failure = false;
  std::map<std::string, double> unused_floors = accuracy_floors;
  std::string golden_out;
  for (const auto& path : pack_paths) {
    try {
      const auto pack = scenario::load_pack(path);
      const auto result = scenario::run_pack(pack, options);

      std::printf("pack %-20s digest %s  incidents %d/%zu passed  "
                  "accuracy %.3f\n",
                  pack.name.c_str(), result.digest.c_str(), result.passed,
                  result.scores.size(), result.accuracy);
      if (result.restarted) {
        std::printf("  restart: %s (restarted %s, uninterrupted %s)\n",
                    result.restart_ok ? "recovered bit-identical"
                                      : "DIVERGED after restore",
                    result.digest.c_str(),
                    result.uninterrupted_digest.c_str());
        if (!result.restart_ok) {
          std::fprintf(stderr,
                       "DIGEST DRIFT: pack %s restarted run produced %s but "
                       "the uninterrupted run produced %s — snapshot/restore "
                       "lost or invented state\n",
                       pack.name.c_str(), result.digest.c_str(),
                       result.uninterrupted_digest.c_str());
          digest_mismatch = true;
        }
      }
      if (const auto it = accuracy_floors.find(pack.name);
          it != accuracy_floors.end()) {
        unused_floors.erase(pack.name);
        if (result.accuracy < it->second) {
          std::fprintf(stderr,
                       "ACCURACY REGRESSION: pack %s scored %.3f, floor is "
                       "%.3f (%d/%zu incidents passed)\n",
                       pack.name.c_str(), result.accuracy, it->second,
                       result.passed, result.scores.size());
          accuracy_failure = true;
        }
      }
      for (const auto& score : result.scores) {
        std::printf("  %-28s expected %-7s majority %-7s votes %5d/%-5d "
                    "%s%s\n",
                    score.name.c_str(),
                    std::string{core::to_string(score.expected)}.c_str(),
                    std::string{core::to_string(score.majority)}.c_str(),
                    score.votes_for_majority, score.votes_total,
                    score.passed ? "PASS" : "FAIL",
                    score.overlapped_with.empty() ? "" : "  (overlap)");
      }
      if (result.ingest_records_in > 0) {
        std::printf("  ingest: %llu records, %llu late-dropped, "
                    "%llu backpressure parks, ring high water %llu\n",
                    static_cast<unsigned long long>(result.ingest_records_in),
                    static_cast<unsigned long long>(
                        result.ingest_late_dropped),
                    static_cast<unsigned long long>(
                        result.ingest_backpressure_waits),
                    static_cast<unsigned long long>(
                        result.ingest_ring_high_water));
      }

      if (!manifest_dir.empty()) {
        // mkdir -p semantics, with real diagnostics: a failed create (e.g.
        // permission, or a parent that is a file) and a pre-existing
        // non-directory both name the path and the reason instead of
        // surfacing later as an unexplained "cannot write" on the manifest.
        std::error_code ec;
        std::filesystem::create_directories(manifest_dir, ec);
        if (ec) {
          std::fprintf(stderr,
                       "error: --manifest-dir %s: cannot create directory: "
                       "%s\n",
                       manifest_dir.c_str(), ec.message().c_str());
          return 2;
        }
        if (!std::filesystem::is_directory(manifest_dir)) {
          std::fprintf(stderr,
                       "error: --manifest-dir %s exists and is not a "
                       "directory\n",
                       manifest_dir.c_str());
          return 2;
        }
        const std::string manifest_path =
            manifest_dir + "/" + pack.name + ".manifest.jsonl";
        std::ofstream out{manifest_path};
        if (!out) {
          std::fprintf(stderr, "error: cannot write %s\n",
                       manifest_path.c_str());
          return 2;
        }
        out << scenario::manifest_jsonl(pack, result, path, options);
        std::printf("  manifest: %s\n", manifest_path.c_str());
      }

      golden_out += pack.name + " " + result.digest + "\n";
      if (const auto it = golden.find(pack.name); it != golden.end()) {
        if (it->second != result.digest) {
          std::fprintf(stderr,
                       "DIGEST DRIFT: pack %s produced %s, golden file says "
                       "%s\n  (if the output change is intended, regenerate "
                       "with: scenario_runner --pack %s --update-golden %s)\n",
                       pack.name.c_str(), result.digest.c_str(),
                       it->second.c_str(), path.c_str(),
                       golden_path.c_str());
          digest_mismatch = true;
        }
      } else if (!golden_path.empty()) {
        std::fprintf(stderr,
                     "DIGEST DRIFT: pack %s is missing from %s (add: "
                     "\"%s %s\")\n",
                     pack.name.c_str(), golden_path.c_str(),
                     pack.name.c_str(), result.digest.c_str());
        digest_mismatch = true;
      }
      if (!expect_digest.empty() && result.digest != expect_digest) {
        std::fprintf(stderr, "DIGEST DRIFT: pack %s produced %s, expected "
                             "%s\n",
                     pack.name.c_str(), result.digest.c_str(),
                     expect_digest.c_str());
        digest_mismatch = true;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  if (!update_golden_path.empty()) {
    std::ofstream out{update_golden_path};
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   update_golden_path.c_str());
      return 2;
    }
    out << "# <pack-name> <trace-digest> — regenerate with scenario_runner "
           "--update-golden\n"
        << golden_out;
    std::printf("wrote %s\n", update_golden_path.c_str());
  }

  // A floor naming a pack that never ran is a harness bug (typo'd name, or a
  // pack dropped from the invocation) — fail loudly rather than green-lighting
  // an unenforced gate.
  for (const auto& [name, floor] : unused_floors) {
    std::fprintf(stderr,
                 "error: --min-accuracy %s=%.3f names a pack that did not "
                 "run\n",
                 name.c_str(), floor);
    return 2;
  }

  if (digest_mismatch) return 3;
  return accuracy_failure ? 4 : 0;
}
