#include "spans.hpp"

#include <unordered_map>

#include "obs/trace.hpp"

namespace perfbench {

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent && s.end >= s.start) {
      child_seconds[s.parent] += s.end - s.start;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) continue;  // never closed
    Totals& t = out[s.name];
    ++t.count;
    t.total_seconds += s.end - s.start;
    t.self_seconds += (s.end - s.start) - child_seconds[i];
  }
  return out;
}

bool SpanLog::write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& env) const {
  dabs::obs::TraceCollector collector;
  dabs::obs::TraceInstant stamp;
  stamp.name = "environment";
  stamp.category = "perfbench";
  stamp.args = env;
  collector.add_instant(std::move(stamp));
  std::unordered_map<std::uint64_t, std::uint64_t> rows;  // op -> trace row
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) continue;
    auto row = rows.find(s.op);
    if (row == rows.end()) {
      if (rows.size() == kKeptOps) continue;
      row = rows.emplace(s.op, rows.size() + 1).first;
    }
    dabs::obs::TraceSpan span;
    span.name = s.name;
    span.category = "perfbench";
    span.pid = 1;
    span.tid = row->second;
    span.start_seconds = s.start;
    span.duration_seconds = s.end - s.start;
    span.args = {{"span", std::to_string(i)},
                 {"parent", s.parent == kNoParent ? std::string("none")
                                                  : std::to_string(s.parent)},
                 {"op", std::to_string(s.op)}};
    collector.add_span(std::move(span));
  }
  return collector.write_file(path);
}

}  // namespace perfbench
