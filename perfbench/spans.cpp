#include "spans.hpp"

#include <algorithm>
#include <ostream>

namespace pb {

std::uint32_t SpanRecorder::intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

std::uint32_t SpanRecorder::add(std::uint32_t name, std::uint32_t parent,
                                std::uint64_t start, std::uint64_t end,
                                std::uint64_t id) {
  spans_.push_back(Span{name, parent, start, end, id});
  return static_cast<std::uint32_t>(spans_.size());
}

std::uint32_t SpanRecorder::open(std::uint32_t name, std::uint32_t parent,
                                 std::uint64_t start, std::uint64_t id) {
  return add(name, parent, start, start, id);
}

void SpanRecorder::close(std::uint32_t handle, std::uint64_t end) {
  spans_[handle - 1].end = end;
}

void SpanRecorder::write(std::ostream& out) const {
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << names_[s.name] << "\",\"parent\":" << s.parent
        << ",\"start\":" << s.start << ",\"end\":" << s.end << ",\"id\":" << s.id
        << "}\n";
  }
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  // Children grouped by parent, each clipped to the parent's interval.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0 || s.parent > spans.size()) continue;
    const Span& p = spans[s.parent - 1];
    const std::uint64_t a = std::max(s.start, p.start);
    const std::uint64_t b = std::min(s.end, p.end);
    if (a < b) kids[s.parent - 1].emplace_back(a, b);
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t dur = spans[i].end - spans[i].start;
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : k) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = dur - std::min(dur, covered);
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(const SpanRecorder& rec) {
  const std::vector<std::uint64_t> self = self_times(rec.spans());
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    SpanTotals& t = out[rec.names()[s.name]];
    ++t.count;
    t.total_ns += s.end - s.start;
    t.self_ns += self[i];
  }
  return out;
}

}  // namespace pb
