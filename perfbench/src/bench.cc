#include "bench.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

namespace {

double ClockSeconds(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return -1.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double WallSeconds() { return ClockSeconds(CLOCK_MONOTONIC); }
double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

RemoteCpuClock::RemoteCpuClock(pid_t pid) {
  clockid_t id{};
  if (clock_getcpuclockid(pid, &id) == 0) {
    clock_ = static_cast<int>(id);
    valid_ = ClockSeconds(id) >= 0.0;
  }
}

double RemoteCpuClock::Seconds() const {
  return valid_ ? ClockSeconds(static_cast<clockid_t>(clock_)) : -1.0;
}

HostTicks ReadHostTicks(const std::vector<int>& cpus) {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line) && line.rfind("cpu", 0) == 0) {
    int cpu = -1;  // the aggregate "cpu" line
    unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                       irq = 0, softirq = 0, steal = 0;
    const char* rest = line.c_str() + 3;
    if (std::isdigit(static_cast<unsigned char>(*rest))) {
      char* end = nullptr;
      cpu = static_cast<int>(std::strtol(rest, &end, 10));
      rest = end;
    }
    const bool wanted = cpus.empty()
                            ? cpu < 0
                            : std::find(cpus.begin(), cpus.end(), cpu) != cpus.end();
    if (!wanted ||
        std::sscanf(rest, "%llu %llu %llu %llu %llu %llu %llu %llu", &user,
                    &nice, &system, &idle, &iowait, &irq, &softirq,
                    &steal) != 8) {
      continue;
    }
    t.busy += static_cast<double>(user + nice + system + irq + softirq);
    t.steal += static_cast<double>(steal);
  }
  return t;
}

void AddTicks(const HostTicks& from, const HostTicks& to, HostTicks* sum) {
  sum->busy += to.busy - from.busy;
  sum->steal += to.steal - from.steal;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  q = std::min(1.0, std::max(0.0, q));
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double TailQuantile(const std::vector<double>& v, double* q) {
  const double n = static_cast<double>(v.size());
  double use = 0.99;
  if (n * (1.0 - use) < 10.0) use = n > 20.0 ? 1.0 - 10.0 / n : 0.5;
  if (q != nullptr) *q = use;
  return Quantile(v, use);
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.n = samples.size();
  s.p50 = Median(samples);
  s.tail = TailQuantile(samples, &s.tail_q);
  return s;
}

void ReportEndToEnd(const Readings& r, RunResult* out) {
  const double f = SpeedFactor(r.calibration_s);
  const double pts = static_cast<double>(r.round_points);
  double rate = 0.0;  // raw points per wall second, summed over lanes
  for (const std::vector<double>& lane : r.lane_wall_s) {
    const double wall = Median(lane);
    if (wall > 0.0) rate += pts / static_cast<double>(r.lane_wall_s.size()) / wall;
  }
  // Share of the vCPU time the rounds wanted that the hypervisor stole:
  // wall time in which the guest's vCPUs did not run at all.
  const double wanted = r.round_ticks.busy + r.round_ticks.steal;
  const double stolen = wanted > 0.0 ? r.round_ticks.steal / wanted : 0.0;
  const double cpu = Median(r.round_cpu_s);
  const LatencySummary lat = Summarize(r.latency_ms);
  out->E2e("setup_s", "s", Median(r.setup_cpu_s) * f);
  out->E2e("throughput_pps", "pts/s", rate / (1.0 - stolen) / f);
  out->E2e("cpu_us_per_pt", "us", cpu * 1e6 / pts * f);
  out->E2e("latency_p50_ms", "ms", lat.p50 * f);
  out->E2e("latency_p99_ms", "ms", lat.tail * f);
  out->E2e("state_bytes", "B", Median(r.state_bytes));
  out->E2e("server_rss_mb", "MB", r.rss_mb);
  out->Note(Fmt("host speed factor %.4f (calibration median %.3f ms over %zu "
                "samples); vCPU time stolen during the rounds %.4f (%.0f of "
                "%.0f ticks); raw: setup %.4f s, %.1f pts/s, %.3f us/pt over "
                "%zu rounds, latency p50 %.4f ms, p%.2f %.4f ms over n=%zu",
                f, Median(r.calibration_s) * 1e3, r.calibration_s.size(),
                stolen, r.round_ticks.steal, wanted,
                Median(r.setup_cpu_s), rate, cpu * 1e6 / pts,
                r.round_cpu_s.size(), lat.p50,
                lat.tail_q * 100.0, lat.tail, lat.n));
}

std::size_t RoundsFor(double seconds, double nominal_pps,
                      std::size_t round_points) {
  const double rounds = std::round(seconds * nominal_pps /
                                   static_cast<double>(round_points));
  return rounds < 1.0 ? 1 : static_cast<std::size_t>(rounds);
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string Fmt(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

std::uint64_t OpCounts::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [kind, e] : by_kind_) n += e.attempted;
  return n;
}

std::uint64_t OpCounts::failed() const {
  std::uint64_t n = 0;
  for (const auto& [kind, e] : by_kind_) n += e.failed;
  return n;
}

std::string OpCounts::Render() const {
  std::string out;
  for (const auto& [kind, e] : by_kind_) {
    out += Fmt("ops %-10s attempted=%llu failed=%llu\n", kind.c_str(),
               static_cast<unsigned long long>(e.attempted),
               static_cast<unsigned long long>(e.failed));
  }
  return out;
}

SpanRecorder::Scope::Scope(SpanRecorder* rec, const char* name)
    : rec_(rec != nullptr && rec->enabled_ ? rec : nullptr) {
  if (rec_ == nullptr) return;
  index_ = static_cast<std::uint32_t>(rec_->spans_.size());
  const std::uint32_t parent =
      rec_->open_.empty() ? kNoParent : rec_->open_.back();
  rec_->spans_.push_back({name, parent, WallSeconds(), 0.0});
  rec_->open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  rec_->spans_[index_].end = WallSeconds();
  rec_->open_.pop_back();
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n")
        << Fmt("{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
               "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}",
               s.name, (s.start - t0) * 1e6, (s.end - s.start) * 1e6, i,
               s.parent == kNoParent ? -1LL
                                     : static_cast<long long>(s.parent));
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

std::string SpanRecorder::LayerTable() const {
  struct Row {
    std::uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_time[s.parent] += s.end - s.start;
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& r = rows[s.name];
    ++r.count;
    r.total += s.end - s.start;
    r.self += (s.end - s.start) - child_time[i];
  }
  std::string out = Fmt("%-34s %9s %11s %11s %11s\n", "span", "count",
                        "total ms", "self ms", "mean us");
  for (const auto& [name, r] : rows) {
    out += Fmt("%-34s %9llu %11.2f %11.2f %11.2f\n", name.c_str(),
               static_cast<unsigned long long>(r.count), r.total * 1e3,
               r.self * 1e3,
               r.count != 0 ? r.total * 1e6 / static_cast<double>(r.count)
                            : 0.0);
  }
  return out;
}

}  // namespace perfbench
