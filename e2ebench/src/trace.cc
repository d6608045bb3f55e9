#include "trace.h"

#include <cstdio>
#include <fstream>

namespace e2ebench {

int Tracer::begin(const char* name, int parent, std::int64_t step) {
  if (!enabled_) return -1;
  spans_.push_back(Span{.name = name,
                        .start_ns = now_ns(),
                        .end_ns = 0,
                        .parent = parent,
                        .step = step});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

int Tracer::add(const char* name, int parent, std::int64_t step,
                std::int64_t start_ns, std::int64_t end_ns, bool derived) {
  if (!enabled_) return -1;
  spans_.push_back(Span{.name = name,
                        .start_ns = start_ns,
                        .end_ns = end_ns,
                        .parent = parent,
                        .step = step,
                        .derived = derived});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, SpanTotals> Tracer::totals(std::size_t from,
                                                 std::size_t to) const {
  std::vector<std::int64_t> child_ns(to - from, 0);
  for (std::size_t i = from; i < to; ++i) {
    const int parent = spans_[i].parent;
    if (parent >= static_cast<int>(from)) {
      child_ns[static_cast<std::size_t>(parent) - from] +=
          spans_[i].duration_ns();
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = from; i < to; ++i) {
    SpanTotals& t = out[spans_[i].name];
    t.total_ns += spans_[i].duration_ns();
    t.self_ns += spans_[i].duration_ns() - child_ns[i - from];
    ++t.count;
  }
  return out;
}

std::int64_t Tracer::top_level_ns(std::size_t from, std::size_t to) const {
  std::int64_t sum = 0;
  for (std::size_t i = from; i < to; ++i) {
    if (spans_[i].parent < 0) sum += spans_[i].duration_ns();
  }
  return sum;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out{path, std::ios::trunc};
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                  "\"parent\":%d,\"step\":%lld,\"derived\":%s}\n",
                  s.name, static_cast<long long>(s.start_ns - origin),
                  static_cast<long long>(s.end_ns - origin), s.parent,
                  static_cast<long long>(s.step),
                  s.derived ? "true" : "false");
    out << line;
  }
  return static_cast<bool>(out.flush());
}

}  // namespace e2ebench
