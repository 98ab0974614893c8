#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/guarantee_checker.hpp"

namespace pb {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

// VmHWM, the high-water mark of this address space.  (getrusage's
// ru_maxrss survives exec, so it would report a larger parent's peak.)
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // KiB -> MiB
    }
  }
  return 0;
}

std::uint64_t current_rss_bytes() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

std::uint64_t total_drops(const hfsc::Hfsc& s) {
  std::uint64_t d = 0;
  for (hfsc::ClassId c = 1; c < s.num_classes(); ++c) d += s.packets_dropped(c);
  return d;
}

bool conserved(const hfsc::Hfsc& s, std::uint64_t offered, std::uint64_t sent) {
  return offered == sent + total_drops(s) + s.counters().rejected_packets() +
                        s.backlog_packets();
}

void RtDelays::watch(std::uint32_t cls, TimeNs bound) {
  if (state_.size() <= cls) {
    state_.resize(cls + 1, 0);
    bound_.resize(cls + 1, 0);
  }
  state_[cls] = bound > 0 ? 2 : 1;
  bound_[cls] = bound;
}

void RtDelays::unwatch(std::uint32_t cls) {
  if (cls < state_.size()) state_[cls] = 0;
}

void GuaranteeSubset::watch(std::uint32_t cls, const hfsc::ServiceCurve& sc) {
  if (slot_.size() <= cls) slot_.resize(cls + 1, -1);
  slot_[cls] = static_cast<int>(curves_.size());
  curves_.push_back(sc);
  events_.emplace_back();
}

std::size_t GuaranteeSubset::failing_leaves(TimeNs allowance) const {
  std::size_t failing = 0;
  for (std::size_t i = 0; i < curves_.size(); ++i) {
    std::vector<Ev> ev = events_[i];
    std::stable_sort(ev.begin(), ev.end(), [](const Ev& a, const Ev& b) {
      return a.t < b.t || (a.t == b.t && a.arrival < b.arrival);
    });
    hfsc::GuaranteeChecker chk(curves_[i], allowance);
    for (const Ev& e : ev) {
      if (e.arrival) {
        chk.on_arrival(e.t, e.len);
      } else {
        chk.on_departure(e.t, e.len);
      }
    }
    if (!chk.violations().empty()) ++failing;
  }
  return failing;
}

namespace {
// Probe chain steps (one 64-bit multiply and one add) per ns at the
// reference speed: the probe's typical reading on the reference machine.
constexpr double kRefStepsPerNs = 0.6;
constexpr std::uint64_t kProbeSteps = 1u << 20;
}  // namespace

double clock_speed() {
  std::uint64_t y = 1;
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t k = 0; k < kProbeSteps; ++k) {
    y = y * 0x9E3779B97F4A7C15ull + k;
    __asm__ __volatile__("" : "+r"(y));  // keeps the chain serial
  }
  const std::uint64_t t1 = now_ns();
  return static_cast<double>(kProbeSteps) / static_cast<double>(t1 - t0) / kRefStepsPerNs;
}

void AtRefSpeed::report(Result& R, const std::string& name, const std::string& unit) const {
  R.metric(name, scaled_.p(0.5), unit);
  R.metric(name + ".wall", wall_.p(0.5), unit);
  R.metric(name + ".speed", speeds_.p(0.5), "1");
  R.samples[name] = scaled_.size();
}

bool Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
  return ok;
}

namespace {

std::string esc(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Result::to_json(const Options& o) const {
  std::ostringstream os;
  os << "{\"workload\":\"" << esc(o.workload) << "\",\"seed\":" << o.seed
     << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"attempted\":" << attempted
     << ",\"failed\":" << failed << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    os << (i ? "," : "") << '"' << esc(failures[i]) << '"';
  }
  os << "],\"metrics\":{";
  bool first = true;
  for (const auto& [k, m] : metrics) {
    os << (first ? "" : ",") << '"' << esc(k) << "\":{\"value\":" << num(m.value)
       << ",\"unit\":\"" << esc(m.unit) << "\"}";
    first = false;
  }
  os << "},\"samples\":{";
  first = true;
  for (const auto& [k, n] : samples) {
    os << (first ? "" : ",") << '"' << esc(k) << "\":" << n;
    first = false;
  }
  os << "},\"fingerprint\":{";
  first = true;
  for (const auto& [k, v] : fingerprint) {
    os << (first ? "" : ",") << '"' << esc(k) << "\":\"" << esc(v) << '"';
    first = false;
  }
  os << "},\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
     << esc(PERFBENCH_COMPILER) << "\",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << "}";
  return os.str();
}

}  // namespace pb
