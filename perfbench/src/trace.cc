#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "report.h"

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.job = job_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = std::chrono::duration<double>(Clock::now() - origin_).count();
  span.end = span.start;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  spans_[static_cast<std::size_t>(index)].end =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  // Spans close innermost first; tolerate an out-of-order close by
  // dropping everything opened after `index`.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::vector<double> Tracer::SelfTimes() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start,
                                                                   span.end);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = spans_[i].start;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, spans_[i].end);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    self[i] = std::max(0.0, spans_[i].duration() - covered);
  }
  return self;
}

Tracer::Summary Tracer::Summarize(const std::string& root) const {
  const std::vector<double> self = SelfTimes();
  // Root ancestor of each span (spans are appended parent-first).
  std::vector<std::size_t> root_of(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    root_of[i] = parent < 0 ? i : root_of[static_cast<std::size_t>(parent)];
  }
  Summary summary;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[root_of[i]].name != root) continue;
    if (spans_[i].parent >= 0) {
      summary.self_seconds[spans_[i].name] += self[i];
      continue;
    }
    const double duration = spans_[i].duration();
    summary.roots += 1;
    summary.root_seconds += duration;
    summary.uncovered_seconds += self[i];
    if (duration > 0.0) {
      summary.min_coverage =
          std::min(summary.min_coverage, 1.0 - self[i] / duration);
    }
  }
  return summary;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& span : spans_) {
    Json line;
    line.Str("name", span.name)
        .Int("job", span.job)
        .Num("parent", span.parent)
        .Num("start", span.start)
        .Num("end", span.end);
    std::fprintf(f, "%s\n", line.ToString().c_str());
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
