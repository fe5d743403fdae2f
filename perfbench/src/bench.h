#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the SPOT benchmark program: clocks, order statistics,
// operation accounting, the span recorder of traced runs and the result
// record every workload fills in. Everything here sits outside the
// library: the benchmark observes the system only through its public
// calls.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------- clocks --

/// Monotonic wall clock, seconds.
double WallSeconds();
/// CPU time of this whole process (all threads), seconds.
double ProcessCpuSeconds();
/// CPU time of the calling thread, seconds.
double ThreadCpuSeconds();

/// CPU clock of another process (all of its threads), read through
/// clock_getcpuclockid. The process must be a child of this one or
/// otherwise visible; reading after it exited fails.
class RemoteCpuClock {
 public:
  RemoteCpuClock() = default;
  explicit RemoteCpuClock(pid_t pid);
  bool valid() const { return valid_; }
  /// Seconds of CPU the process has used so far (negative on failure).
  double Seconds() const;

 private:
  bool valid_ = false;
  int clock_ = 0;  // clockid_t
};

/// Clock ticks the guest's vCPUs spent busy (user, nice, system, irq,
/// softirq) and stolen by the hypervisor (steal: the vCPU wanted to run
/// and the host ran something else), from /proc/stat.
struct HostTicks {
  double busy = 0.0;
  double steal = 0.0;
};
/// Summed over `cpus`, or over all vCPUs when `cpus` is empty. All zero
/// when /proc/stat cannot be read.
HostTicks ReadHostTicks(const std::vector<int>& cpus = {});
/// Adds the ticks that passed between `from` and `to` to `*sum`.
void AddTicks(const HostTicks& from, const HostTicks& to, HostTicks* sum);

/// Host-speed calibration. The reference host's CPUs run at different
/// speeds from minute to minute (other guests, turbo), so the same work
/// reads up to 25% more or less CPU time in two runs minutes apart.
/// Every run therefore times a fixed benchmark-owned kernel between its
/// rounds, and reports its times in reference-host units: measured time x
/// SpeedFactor(samples), where the factor is the kernel's reference time
/// over its median time in this run.
double CalibrationSeconds();
constexpr double kReferenceCalibrationSeconds = 1.8e-3;
double SpeedFactor(const std::vector<double>& calibration_seconds);

// ---------------------------------------------------------- statistics --

/// Linear-interpolated quantile of `v` (copied and sorted), q in [0, 1].
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);

/// The tail percentile the benchmark reports: p99 when at least ten
/// samples lie beyond it, otherwise the highest quantile that still has
/// ten samples beyond it (1 - 10/n). Returns the quantile used in *q.
double TailQuantile(const std::vector<double>& v, double* q);

// -------------------------------------------------- operation accounting --

/// Attempted / failed operations per kind (batch, ingest, flush, topk,
/// feedback, checkpoint, learn).
class OpCounts {
 public:
  void Attempt(const std::string& kind, bool ok) {
    Entry& e = by_kind_[kind];
    ++e.attempted;
    if (!ok) ++e.failed;
  }
  void Merge(const OpCounts& other) {
    for (const auto& [kind, e] : other.by_kind_) {
      by_kind_[kind].attempted += e.attempted;
      by_kind_[kind].failed += e.failed;
    }
  }
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  /// One line per kind: "kind attempted=N failed=M".
  std::string Render() const;

 private:
  struct Entry {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::map<std::string, Entry> by_kind_;
};

// -------------------------------------------------------------- tracing --

/// In-memory span recorder of traced runs. Spans come only from the
/// benchmark's own code, around calls into the library's public API;
/// each has a name, a parent (the span open when it began), and a
/// steady-clock start and end. Disabled recorders record nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// RAII span; no-op when the recorder is disabled.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    std::uint32_t index_ = 0;
  };

  /// Chrome-trace JSON ("X" events; args carry the span id and parent id).
  bool WriteChromeTrace(const std::string& path) const;
  /// Per-name table: count, total and self milliseconds, mean µs. Self
  /// time is a span's duration minus the time its direct children cover.
  std::string LayerTable() const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;  // kNoParent for roots
    double start;
    double end;
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

// -------------------------------------------------------------- results --

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run produced.
struct RunResult {
  OpCounts ops;
  /// Failed independent checks; empty means the outputs are correct.
  std::vector<std::string> problems;
  /// End-to-end metrics (reported with --trace 0).
  std::vector<Metric> end_to_end;
  /// Per-layer metrics (reported with --trace 1).
  std::vector<Metric> per_layer;
  /// Human-readable lines printed before the result object.
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void E2e(const std::string& name, const std::string& unit, double v) {
    end_to_end.push_back({name, unit, v});
  }
  void Layer(const std::string& name, const std::string& unit, double v) {
    per_layer.push_back({name, unit, v});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Directory for trace output and checkpoint files, relative to the
/// working directory (created; the checkout's .gitignore lists it).
constexpr const char kOutDir[] = ".perfbench_out";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// This binary's own path, used to start the server child process.
  std::string self_exe;
};

/// Latency samples of one kind of request, summarised as the benchmark's
/// p50 and tail with their sample counts.
struct LatencySummary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;
  std::size_t n = 0;
};
LatencySummary Summarize(const std::vector<double>& samples);

/// What a workload measured, in this host's units; ReportEndToEnd turns
/// it into the end-to-end metrics.
struct Readings {
  std::vector<double> setup_cpu_s;   // one per set-up
  std::size_t round_points = 0;      // points per round, all lanes
  std::vector<double> round_cpu_s;   // one per round
  /// Wall seconds of each round per lane (a thread or server doing an
  /// equal share of every round); throughput sums the lanes' median rates
  /// so one straggling lane does not set the rate of the whole round.
  std::vector<std::vector<double>> lane_wall_s;
  std::vector<double> latency_ms;    // CPU service time per batch/request
  std::vector<double> state_bytes;   // state image samples
  double rss_mb = 0.0;
  std::vector<double> calibration_s;  // CalibrationSeconds() samples
  /// Busy and stolen ticks, during the rounds, of the vCPUs the rounds
  /// ran on (summed over rounds); throughput takes the stolen share out of
  /// wall time.
  HostTicks round_ticks;
};

/// Adds the seven end-to-end metrics: medians over set-ups, rounds and
/// samples, times converted to reference-host units by the run's speed
/// factor; notes the raw figures and sample counts.
void ReportEndToEnd(const Readings& r, RunResult* out);

/// Every run processes a fixed amount of work: `seconds` x the workload's
/// nominal rate (its rate on the reference host), in whole rounds. The
/// detector's cost per point drifts along the stream (OS growth,
/// evolution, compaction cycles), so a deadline-bound run would measure a
/// faster program on a different stretch of the stream than a slower one.
std::size_t RoundsFor(double seconds, double nominal_pps,
                      std::size_t round_points);
/// Set-ups per run (setup_s is their median).
constexpr int kSetupReps = 3;
/// Rounds between state-size samples (state_bytes is their median: the
/// images swing with the compaction cycle).
constexpr std::size_t kStateEvery = 3;

/// A run that has not finished its rounds after this many times the run
/// length stops and fails (keeps a pathological slowdown within the
/// benchmark's time limit).
constexpr double kGiveUpFactor = 8.0;

/// Peak resident set (VmHWM) of process `pid` in MB, from /proc; 0 when
/// unavailable.
double PeakRssMb(pid_t pid);

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// ----------------------------------------------------------- workloads --

void RunDetectEvolving(const Options& opt, SpanRecorder* spans, RunResult* out);
void RunDetectWide(const Options& opt, SpanRecorder* spans, RunResult* out);
void RunServeChurn(const Options& opt, SpanRecorder* spans, RunResult* out);
void RunServeSmallFrames(const Options& opt, SpanRecorder* spans, RunResult* out);

/// Entry point of the server child process (`perfbench --serve-child`).
int ServeChild(int argc, char** argv);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
