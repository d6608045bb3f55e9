// In-memory span recorder for the benchmark's traced runs. Spans are
// recorded by the benchmark around its own calls into each layer's public
// API (nothing inside the program is instrumented), kept in a vector and
// written out once at the end of the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string: a layer boundary name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;         ///< index of the enclosing span, -1 at top level
  std::int64_t step = -1;  ///< pipeline step id, -1 outside a step
  /// Duration taken from StepReport::StageTimings rather than two clock
  /// reads here; its position inside the parent is nominal (laid out after
  /// the last measured child), its length is exact.
  bool derived = false;

  [[nodiscard]] std::int64_t duration_ns() const noexcept {
    return end_ns - start_ns;
  }
};

/// Per-span-name totals over a set of spans.
struct SpanTotals {
  std::int64_t total_ns = 0;  ///< sum of span durations
  std::int64_t self_ns = 0;   ///< durations minus their children's
  std::int64_t count = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span and returns its id, or -1 (no clock read) when disabled.
  int begin(const char* name, int parent, std::int64_t step);
  void end(int id);
  /// Records an already-finished span; returns its id (-1 when disabled).
  int add(const char* name, int parent, std::int64_t step,
          std::int64_t start_ns, std::int64_t end_ns, bool derived = false);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Index of the first span recorded after this call (for windowing).
  [[nodiscard]] std::size_t mark() const noexcept { return spans_.size(); }

  /// Totals by name over spans [from, to). Self time subtracts the
  /// durations of direct children, which never overlap on one thread.
  [[nodiscard]] std::map<std::string, SpanTotals> totals(
      std::size_t from, std::size_t to) const;

  /// Sum of the durations of top-level spans in [from, to).
  [[nodiscard]] std::int64_t top_level_ns(std::size_t from,
                                          std::size_t to) const;

  /// Writes every span as JSON lines ({"name","start_ns","end_ns",
  /// "parent","step","derived"}), start times relative to the first span.
  /// Returns false if the file could not be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is disabled.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, int parent, std::int64_t step)
      : tracer_(tracer), id_(tracer.begin(name, parent, step)) {}
  ~SpanScope() { tracer_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace e2ebench
