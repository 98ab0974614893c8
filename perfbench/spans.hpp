// In-memory span recorder for the traced run.
//
// The benchmark times its own calls into each layer's public functions:
// a span has a name, start, end, parent span and an id (a packet seq or
// a commit index).  Spans stay in memory and are written out when the
// run ends.  A span's self time is its duration minus the part of that
// interval its child spans cover.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace pb {

struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;  // 1-based index of the parent span, 0 = none
  std::uint64_t start = 0;   // ns, steady clock
  std::uint64_t end = 0;
  std::uint64_t id = 0;
};

class SpanRecorder {
 public:
  std::uint32_t intern(const std::string& name);
  // Records a finished span; returns its 1-based handle for children.
  std::uint32_t add(std::uint32_t name, std::uint32_t parent,
                    std::uint64_t start, std::uint64_t end, std::uint64_t id);
  // Opens a span whose end is filled in by close().
  std::uint32_t open(std::uint32_t name, std::uint32_t parent,
                     std::uint64_t start, std::uint64_t id);
  void close(std::uint32_t handle, std::uint64_t end);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::vector<std::string>& names() const noexcept { return names_; }
  // One JSON object per line: {"name","parent","start","end","id"}.
  void write(std::ostream& out) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
};

// Self time of every span (parallel to `spans`): duration minus the
// union of its children's intervals clipped to its own.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};
// Per span name: count, summed duration and summed self time.
std::map<std::string, SpanTotals> totals_by_name(const SpanRecorder& rec);

}  // namespace pb
