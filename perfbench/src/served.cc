// Served workloads: the SPOT server runs in its own process (this binary
// re-executed with --serve-child, 1 reactor, loopback) and one client
// connection drives several sessions through it in a closed loop: each
// request is an Ingest of one frame followed by a Flush, so the next
// request leaves only after the previous verdicts arrived. Three such
// server/client pairs run side by side. Service time is read from each
// server process's CPU clock; the one wall rate comes from the median
// round time of each pair.
//
// serve-churn:        6 sessions, max_resident 2, 8 consecutive requests
//   per session (every 8th request evicts one session through its
//   checkpoint file and reloads another), 50-point frames, a top-k query
//   after every 2nd request and a feedback round after every 32nd.
// serve-small-frames: 2 resident sessions, 10-point frames, each flushed.

#include <dirent.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/log.h"
#include "core/detector.h"
#include "eval/presets.h"
#include "net/protocol.h"
#include "net/spot_client.h"
#include "net/spot_server.h"
#include "probes.h"
#include "service/spot_service.h"

namespace perfbench {

namespace {

// ------------------------------------------------------ server process --

/// CPUs this process may run on (its affinity mask at start).
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  return cpus;
}

/// The CPU a replica's client thread and server process share, so that a
/// round trip hands the CPU from one to the other instead of waking an
/// idle vCPU (see README); -1 when the affinity mask is unknown.
int LaneCpu(std::size_t replica) {
  const std::vector<int>& cpus = AllowedCpus();
  return cpus.empty() ? -1 : cpus[replica % cpus.size()];
}

/// Pins the calling thread (in a forked child: the process) to `cpu`;
/// no-op for -1.
void PinTo(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Pins the calling thread to one CPU for its scope, then restores the
/// process's starting mask.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu) : pinned_(cpu >= 0) { PinTo(cpu); }
  ~ScopedPin() {
    if (!pinned_) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : AllowedCpus()) CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  bool pinned_;
};

/// The server child process: started by re-executing this binary, it
/// reports its ephemeral port on a pipe and serves until SIGTERM. The
/// destructor stops it and waits for it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts the server pinned to `cpu` (-1: not pinned).
  bool Start(const std::string& self_exe, const std::string& ckpt_dir,
             std::size_t max_resident, int cpu, std::string* error) {
    int fds[2];
    if (pipe(fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    const std::string resident = std::to_string(max_resident);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      // Child: die with the forking thread, report the port on the pipe.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      PinTo(cpu);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execl(self_exe.c_str(), self_exe.c_str(), "--serve-child",
            ckpt_dir.c_str(), resident.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    // Read "PORT <n>\n" (the server learns everything it needs at start).
    std::string line;
    pollfd pfd{fds[0], POLLIN, 0};
    const double deadline = WallSeconds() + 30.0;
    while (line.find('\n') == std::string::npos && WallSeconds() < deadline) {
      if (poll(&pfd, 1, 200) <= 0) continue;
      char buf[64];
      const ssize_t n = read(fds[0], buf, sizeof(buf));
      if (n <= 0) break;
      line.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "PORT %u", &port) != 1 || port == 0) {
      *error = "server child did not report a port";
      Stop();
      return false;
    }
    port_ = static_cast<std::uint16_t>(port);
    cpu_ = RemoteCpuClock(pid_);
    if (!cpu_.valid()) {
      *error = "cannot read the server's CPU clock";
      Stop();
      return false;
    }
    return true;
  }

  /// SIGTERM (the server drains and checkpoints), then waits; SIGKILL
  /// after 30 s.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const double deadline = WallSeconds() + 30.0;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (WallSeconds() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }
  double CpuSeconds() const { return cpu_.Seconds(); }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  RemoteCpuClock cpu_;
};

void RemoveDir(const std::string& dir) {
  if (DIR* d = opendir(dir.c_str())) {
    while (dirent* e = readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") unlink((dir + "/" + name).c_str());
    }
    closedir(d);
  }
  rmdir(dir.c_str());
}

/// Total size of the session checkpoint files in `dir`.
std::size_t CheckpointBytes(const std::string& dir) {
  std::size_t total = 0;
  if (DIR* d = opendir(dir.c_str())) {
    while (dirent* e = readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() < 5 || name.compare(name.size() - 5, 5, ".ckpt") != 0) continue;
      struct stat st {};
      if (stat((dir + "/" + name).c_str(), &st) == 0) total += st.st_size;
    }
    closedir(d);
  }
  return total;
}

// -------------------------------------------------------------- workload --

/// Every session: 8 dims, 400 training points.
constexpr int kDims = 8;
constexpr std::size_t kTraining = 400;
/// Independent server processes (each with its own client thread,
/// sessions and streams) run side by side; see README.
constexpr std::size_t kReplicas = 3;
/// k of the scheduled top-k queries, and of the query that picks the ids
/// a feedback round labels.
constexpr std::uint32_t kTopK = 8;
constexpr std::uint32_t kFeedbackK = 4;

struct ServedSpec {
  spot::SpotConfig config;
  std::size_t sessions = 2;
  /// Consecutive requests each session gets before the next one's turn.
  std::size_t visit = 1;
  std::size_t max_resident = 2;
  std::size_t frame_points = 10;
  std::size_t requests_per_round = 200;
  /// A top-k query after every n-th request (0 = never), and a feedback
  /// round (top-k for ids, then kFeedback) after every n-th.
  std::size_t topk_every = 0;
  std::size_t feedback_every = 0;
  std::uint64_t concept_seed = 1;
  /// Points per second on the reference host (README): a run processes
  /// seconds x nominal_pps points.
  double nominal_pps = 10000.0;
};

/// The session request `n` of a replica goes to: round-robin over the
/// sessions, `spec.visit` consecutive requests each.
std::size_t SessionOf(const ServedSpec& spec, std::uint64_t n) {
  return static_cast<std::size_t>(n / spec.visit % spec.sessions);
}

/// What the timed phase saw for one request, kept for the replay check.
struct RequestLog {
  std::size_t session = 0;
  std::string topk_bytes;            // when a query was due
  std::string feedback_top_bytes;    // when feedback was due
  std::vector<std::uint64_t> feedback_ids;
  bool feedback_ok = false;
};

/// Sums and counts of the server's kStats histograms and counters at one
/// instant (per-layer deltas are taken between two scrapes).
struct Scrape {
  spot::obs::MetricsSnapshot merged;
  std::uint64_t Counter(const char* name) const {
    const auto it = merged.counters.find(name);
    return it == merged.counters.end() ? 0 : it->second;
  }
  const spot::obs::Histogram* Hist(const char* name) const {
    const auto it = merged.histograms.find(name);
    return it == merged.histograms.end() ? nullptr : &it->second;
  }
};

/// kStats on its own connection; retries until the reactor's published
/// snapshot has counted `points` ingested points.
bool ScrapeStats(std::uint16_t port, std::uint64_t points, Scrape* out) {
  spot::net::SpotClient client;
  if (!client.Connect("127.0.0.1", port)) return false;
  for (int attempt = 0; attempt < 100; ++attempt) {
    spot::net::StatsResp stats;
    if (!client.Stats(&stats)) return false;
    out->merged = stats.Merged();
    if (out->Counter("points_ingested") >= points) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// One server process with its client connection, sessions and streams.
/// Replicas share nothing; each runs its requests on its own thread.
struct Replica {
  std::size_t index = 0;
  spot::SpotConfig config;
  std::vector<std::string> ids;
  std::vector<StreamSource> sources;
  std::vector<std::vector<std::vector<double>>> training;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<spot::net::SpotClient> client;
  std::string ckpt_dir;
  double setup_cpu = 0.0;
  // Timed phase.
  std::vector<std::vector<spot::DataPoint>> frames;  // current round
  std::vector<std::vector<std::uint64_t>> digests, flagged_ids;
  std::vector<std::vector<bool>> flagged, planted;
  std::vector<RequestLog> log;
  std::vector<double> request_cpu_ms, rtt_ingest, rtt_flush, rtt_topk,
      rtt_feedback;
  std::uint64_t request = 0;
  double round_cpu = 0.0;
  double round_wall = 0.0;
  double calibration = 0.0;  // CalibrationSeconds() after the last round
  Scrape before, after;
  /// Operations and failed checks of this replica (merged at the end).
  RunResult result;
};

void InitReplica(const ServedSpec& spec, const Options& opt, std::size_t r,
                 Replica* rep) {
  rep->index = r;
  rep->config = spec.config;
  rep->config.seed = 1000003ULL * opt.seed + 7919ULL * r + 29;
  for (std::size_t s = 0; s < spec.sessions; ++s) {
    const std::size_t stream = r * spec.sessions + s;
    rep->ids.push_back("bench-" + std::to_string(s));
    rep->sources.emplace_back(kDims, spec.concept_seed + stream, 64 * opt.seed + stream);
    rep->training.push_back(rep->sources.back().Training(kTraining));
  }
  rep->frames.resize(spec.requests_per_round);
  rep->digests.resize(spec.sessions);
  rep->flagged_ids.resize(spec.sessions);
  rep->flagged.resize(spec.sessions);
  rep->planted.resize(spec.sessions);
}

/// Starts a fresh server and creates every session on it. The set-up
/// cost is the server's CPU time from exec to the last session learned.
bool StartReplica(const ServedSpec& spec, const Options& opt, int attempt,
                  Replica* rep) {
  RunResult& res = rep->result;
  rep->client.reset();
  rep->server.reset();
  if (!rep->ckpt_dir.empty()) RemoveDir(rep->ckpt_dir);
  rep->ckpt_dir = Fmt("%s/ckpt-%d-%zu-%d", kOutDir, static_cast<int>(getpid()),
                      rep->index, attempt);
  mkdir(rep->ckpt_dir.c_str(), 0755);
  rep->server = std::make_unique<ServerProcess>();
  std::string error;
  if (!rep->server->Start(opt.self_exe, rep->ckpt_dir, spec.max_resident,
                          LaneCpu(rep->index), &error)) {
    res.Check(false, "server start: " + error);
    return false;
  }
  rep->client = std::make_unique<spot::net::SpotClient>();
  bool connected = false;
  for (int i = 0; i < 100 && !connected; ++i) {
    connected = rep->client->Connect("127.0.0.1", rep->server->port()).ok;
    if (!connected) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!connected) {
    res.Check(false, "cannot connect: " + rep->client->last_error());
    return false;
  }
  for (std::size_t s = 0; s < spec.sessions; ++s) {
    const bool ok =
        rep->client->CreateSession(rep->ids[s], rep->config, rep->training[s]).ok;
    res.ops.Attempt("learn", ok);
    if (!ok) {
      res.Check(false, "CreateSession: " + rep->client->last_error());
      return false;
    }
  }
  rep->setup_cpu = rep->server->CpuSeconds();
  return true;
}

/// One round of requests on one replica: Ingest + Flush of each frame,
/// with the scheduled top-k queries and feedback rounds. `spans` is
/// non-null for the replica whose calls the traced run records.
void RunRound(const ServedSpec& spec, Replica* rep, SpanRecorder* spans) {
  RunResult& res = rep->result;
  spot::net::SpotClient& client = *rep->client;
  const ScopedPin pin(LaneCpu(rep->index));
  std::vector<spot::SpotResult> got;
  std::vector<spot::TopKEntry> answer;
  const double w0 = WallSeconds();
  const double cpu0 = rep->server->CpuSeconds();
  for (std::size_t q = 0; q < spec.requests_per_round; ++q, ++rep->request) {
    const std::vector<spot::DataPoint>& frame = rep->frames[q];
    RequestLog entry;
    entry.session = SessionOf(spec, rep->request);
    const std::string& id = rep->ids[entry.session];
    const double c0 = rep->server->CpuSeconds();
    double t = WallSeconds();
    bool ok;
    {
      SpanRecorder::Scope span(spans, "client.Ingest");
      ok = client.Ingest(id, frame).ok;
    }
    res.ops.Attempt("ingest", ok);
    rep->rtt_ingest.push_back((WallSeconds() - t) * 1e6);
    t = WallSeconds();
    got.clear();
    {
      SpanRecorder::Scope span(spans, "client.Flush");
      ok = client.Flush(id, &got).ok && got.size() == frame.size();
    }
    res.ops.Attempt("flush", ok);
    rep->rtt_flush.push_back((WallSeconds() - t) * 1e6);
    rep->request_cpu_ms.push_back((rep->server->CpuSeconds() - c0) * 1e3);
    for (std::size_t i = 0; i < got.size(); ++i) {
      rep->digests[entry.session].push_back(VerdictDigest(got[i]));
      rep->flagged[entry.session].push_back(got[i].is_outlier);
      if (got[i].is_outlier) rep->flagged_ids[entry.session].push_back(frame[i].id);
    }
    const auto where = [rep] {
      return Fmt("(replica %zu, request %llu)", rep->index,
                 static_cast<unsigned long long>(rep->request));
    };
    if (spec.topk_every != 0 && (rep->request + 1) % spec.topk_every == 0) {
      t = WallSeconds();
      {
        SpanRecorder::Scope span(spans, "client.TopK");
        ok = client.TopK(id, kTopK, &answer).ok;
      }
      res.ops.Attempt("topk", ok);
      rep->rtt_topk.push_back((WallSeconds() - t) * 1e6);
      CheckTopKAnswer(answer, rep->flagged_ids[entry.session], where(), &res);
      entry.topk_bytes = spot::net::TopKBytes(answer);
    }
    if (spec.feedback_every != 0 && (rep->request + 1) % spec.feedback_every == 0) {
      t = WallSeconds();
      {
        SpanRecorder::Scope span(spans, "client.TopK(feedback ids)");
        ok = client.TopK(id, kFeedbackK, &answer).ok;
      }
      res.ops.Attempt("topk", ok);
      rep->rtt_topk.push_back((WallSeconds() - t) * 1e6);
      CheckTopKAnswer(answer, rep->flagged_ids[entry.session], where(), &res);
      entry.feedback_top_bytes = spot::net::TopKBytes(answer);
      for (const spot::TopKEntry& e : answer) entry.feedback_ids.push_back(e.point_id);
      t = WallSeconds();
      {
        SpanRecorder::Scope span(spans, "client.Feedback");
        entry.feedback_ok =
            client.Feedback(id, entry.feedback_ids, {frame.front().values}).ok;
      }
      res.ops.Attempt("feedback", entry.feedback_ok);
      rep->rtt_feedback.push_back((WallSeconds() - t) * 1e6);
    }
    rep->log.push_back(std::move(entry));
  }
  rep->round_cpu = rep->server->CpuSeconds() - cpu0;
  rep->round_wall = WallSeconds() - w0;
}

/// Independent check: per session, an in-process detector fed the same
/// stream and the same query/feedback schedule must reproduce every served
/// verdict, top-k answer and feedback outcome. Leaves the reference
/// detectors in `refs` (the served sessions' end state) and the last
/// points of session 0 in `recent`.
void ReplayReplica(const ServedSpec& spec, const Options& opt, Replica* rep,
                   std::vector<std::unique_ptr<spot::SpotDetector>>* refs,
                   std::vector<double>* learn_s, DetectorCounters* learned,
                   std::vector<spot::DataPoint>* recent) {
  RunResult& res = rep->result;
  Replica fresh;
  InitReplica(spec, opt, rep->index, &fresh);
  for (std::size_t s = 0; s < spec.sessions; ++s) {
    refs->push_back(std::make_unique<spot::SpotDetector>(fresh.config));
    const double t0 = ThreadCpuSeconds();
    const bool ok = refs->back()->Learn(fresh.training[s]);
    learn_s->push_back(ThreadCpuSeconds() - t0);
    res.ops.Attempt("learn", ok);
    if (!ok) {
      res.Check(false, "reference Learn() failed");
      return;
    }
    *learned = Sum(*learned, ReadCounters(*refs->back()));
  }
  std::vector<std::size_t> cursor(spec.sessions, 0);
  std::vector<spot::DataPoint> frame;
  std::vector<bool> ignored;
  std::string mismatch;
  for (std::size_t r = 0; r < rep->log.size() && mismatch.empty(); ++r) {
    const RequestLog& entry = rep->log[r];
    spot::SpotDetector& ref = *(*refs)[entry.session];
    frame.clear();
    fresh.sources[entry.session].Next(spec.frame_points, &frame, &ignored);
    const std::vector<std::uint64_t>& served = rep->digests[entry.session];
    for (const spot::SpotResult& v : ref.ProcessBatch(frame)) {
      const std::size_t at = cursor[entry.session]++;
      if (at >= served.size() || VerdictDigest(v) != served[at]) {
        mismatch = Fmt("served verdicts of replica %zu request %zu differ from "
                       "the in-process reference", rep->index, r);
        break;
      }
    }
    if (entry.session == 0) {
      recent->insert(recent->end(), frame.begin(), frame.end());
      if (recent->size() > 4000) {
        recent->erase(recent->begin(), recent->begin() + frame.size());
      }
    }
    if (!entry.topk_bytes.empty() &&
        spot::net::TopKBytes(ref.QueryTopK(kTopK)) != entry.topk_bytes) {
      mismatch = Fmt("served top-k bytes of replica %zu request %zu differ",
                     rep->index, r);
    }
    if (!entry.feedback_top_bytes.empty()) {
      if (spot::net::TopKBytes(ref.QueryTopK(kFeedbackK)) !=
          entry.feedback_top_bytes) {
        mismatch = Fmt("served feedback-id top-k of replica %zu request %zu "
                       "differs", rep->index, r);
      }
      std::string error;
      if (ref.ApplyFeedback(entry.feedback_ids, {frame.front().values}, &error) !=
          entry.feedback_ok) {
        mismatch = Fmt("feedback outcome of replica %zu request %zu differs",
                       rep->index, r);
      }
    }
  }
  res.Check(mismatch.empty(), mismatch);
}

/// Runs `fn(replica)` for every replica, replica 0 on the calling thread
/// and the others on threads of their own, and waits for all of them.
template <typename Fn>
void ForEachReplica(std::vector<Replica>* reps, const Fn& fn) {
  std::vector<std::thread> threads;
  for (std::size_t r = 1; r < reps->size(); ++r) {
    threads.emplace_back([&fn, reps, r] { fn(&(*reps)[r]); });
  }
  fn(&(*reps)[0]);
  for (std::thread& t : threads) t.join();
}

void RunServed(const ServedSpec& spec, const Options& opt, SpanRecorder* spans,
               RunResult* out) {
  spot::SetLogLevel(spot::LogLevel::kWarning);
  mkdir(kOutDir, 0755);
  std::vector<Replica> reps(kReplicas);
  for (std::size_t r = 0; r < reps.size(); ++r) InitReplica(spec, opt, r, &reps[r]);

  // --- set-up: server start + every session created and learned, on the
  // servers' CPU clocks, on fresh servers each time; the last set serves.
  Readings readings;
  bool started = true;
  for (int attempt = 0; attempt < kSetupReps && started; ++attempt) {
    SpanRecorder::Scope span(spans, "setup: server start+CreateSession");
    // Serially, on this thread: a server child is tied to the thread that
    // forked it (PR_SET_PDEATHSIG fires when that thread exits).
    for (Replica& rep : reps) {
      if (!StartReplica(spec, opt, attempt, &rep)) rep.server.reset();
    }
    double cpu = 0.0;
    for (const Replica& rep : reps) {
      started = started && rep.server != nullptr;
      cpu += rep.setup_cpu;
    }
    readings.setup_cpu_s.push_back(cpu);
  }
  const auto merge_results = [&]() {
    for (Replica& rep : reps) {
      out->ops.Merge(rep.result.ops);
      out->problems.insert(out->problems.end(), rep.result.problems.begin(),
                           rep.result.problems.end());
      rep.result = RunResult();
    }
  };
  if (!started) {
    merge_results();
    return;
  }
  for (Replica& rep : reps) {
    rep.result.Check(ScrapeStats(rep.server->port(), 0, &rep.before),
                     "kStats scrape failed");
  }

  // --- timed phase: every replica runs the same round concurrently. ---
  const std::size_t round_points =
      spec.requests_per_round * spec.frame_points * kReplicas;
  readings.round_points = round_points;
  readings.lane_wall_s.resize(kReplicas);
  std::size_t rounds_done = 0;
  // state_bytes: the session checkpoint files after a checkpoint-all,
  // sampled every few rounds (the images swing with the compaction cycle).
  const auto sample_state = [&]() {
    SpanRecorder::Scope span(spans, "client.Checkpoint(all)");
    double bytes = 0.0;
    for (Replica& rep : reps) {
      const bool ok = rep.client->Checkpoint("").ok;
      out->ops.Attempt("checkpoint", ok);
      bytes += ok ? static_cast<double>(CheckpointBytes(rep.ckpt_dir)) : 0.0;
    }
    readings.state_bytes.push_back(bytes);
  };
  // Steal is read on the lanes' own CPUs: an idle vCPU that wakes up now
  // and then shows a large stolen share that delays no lane.
  std::vector<int> lane_cpus;
  for (const Replica& rep : reps) {
    const int cpu = LaneCpu(rep.index);
    if (cpu >= 0 && std::find(lane_cpus.begin(), lane_cpus.end(), cpu) == lane_cpus.end()) {
      lane_cpus.push_back(cpu);
    }
  }
  const std::size_t rounds = RoundsFor(opt.seconds, spec.nominal_pps, round_points);
  const double give_up = WallSeconds() + kGiveUpFactor * opt.seconds;
  do {
    for (Replica& rep : reps) {
      for (std::size_t q = 0; q < spec.requests_per_round; ++q) {
        const std::size_t s = SessionOf(spec, rep.request + q);
        rep.frames[q].clear();
        rep.sources[s].Next(spec.frame_points, &rep.frames[q], &rep.planted[s]);
      }
    }
    {
      SpanRecorder::Scope round_span(spans, "round");
      const HostTicks ticks0 = ReadHostTicks(lane_cpus);
      ForEachReplica(&reps, [&](Replica* rep) {
        RunRound(spec, rep, rep->index == 0 ? spans : nullptr);
      });
      AddTicks(ticks0, ReadHostTicks(lane_cpus), &readings.round_ticks);
      ++rounds_done;
    }
    ForEachReplica(&reps, [](Replica* rep) { rep->calibration = CalibrationSeconds(); });
    double cpu = 0.0;
    for (const Replica& rep : reps) {
      cpu += rep.round_cpu;
      readings.lane_wall_s[rep.index].push_back(rep.round_wall);
      readings.calibration_s.push_back(rep.calibration);
    }
    readings.round_cpu_s.push_back(cpu);
    if (rounds_done % kStateEvery == 0) sample_state();
  } while (rounds_done < rounds && WallSeconds() < give_up);
  out->Check(rounds_done == rounds,
             Fmt("only %zu of %zu rounds ran within %.0f s", rounds_done,
                 rounds, kGiveUpFactor * opt.seconds));
  if (readings.state_bytes.empty()) sample_state();
  const std::size_t points = round_points * rounds_done;
  for (Replica& rep : reps) {
    rep.result.Check(ScrapeStats(rep.server->port(), points / kReplicas, &rep.after),
                     "kStats scrape failed");
    readings.rss_mb += PeakRssMb(rep.server->pid()) / static_cast<double>(reps.size());
  }
  for (Replica& rep : reps) {
    rep.client.reset();
    rep.server.reset();
    RemoveDir(rep.ckpt_dir);
  }

  // --- end-to-end metrics. ---
  std::vector<double> rtt_ingest, rtt_flush, rtt_topk, rtt_feedback;
  std::vector<bool> flagged, planted;
  for (const Replica& rep : reps) {
    const auto append = [](std::vector<double>* into, const std::vector<double>& v) {
      into->insert(into->end(), v.begin(), v.end());
    };
    append(&readings.latency_ms, rep.request_cpu_ms);
    append(&rtt_ingest, rep.rtt_ingest);
    append(&rtt_flush, rep.rtt_flush);
    append(&rtt_topk, rep.rtt_topk);
    append(&rtt_feedback, rep.rtt_feedback);
    for (std::size_t s = 0; s < spec.sessions; ++s) {
      flagged.insert(flagged.end(), rep.flagged[s].begin(), rep.flagged[s].end());
      planted.insert(planted.end(), rep.planted[s].begin(), rep.planted[s].end());
    }
  }
  const LatencySummary wall = Summarize(rtt_flush);
  out->Note(Fmt("points %zu in %zu rounds of %zu (%zu servers); client Flush "
                "wall p50 %.1f us, p%.2f %.1f us",
                points, rounds_done, round_points, kReplicas,
                wall.p50, wall.tail_q * 100.0, wall.tail));
  ReportEndToEnd(readings, out);

  // --- independent checks (replicas replay in parallel). ---
  CheckDetectionQuality(flagged, planted, out);
  SpanRecorder::Scope check_span(spans, "check: in-process reference replay");
  std::vector<std::vector<std::unique_ptr<spot::SpotDetector>>> refs(reps.size());
  std::vector<std::vector<double>> learn_s(reps.size());
  std::vector<DetectorCounters> learned(reps.size());
  std::vector<std::vector<spot::DataPoint>> recent(reps.size());
  ForEachReplica(&reps, [&](Replica* rep) {
    const std::size_t r = rep->index;
    ReplayReplica(spec, opt, rep, &refs[r], &learn_s[r], &learned[r], &recent[r]);
  });
  std::uint64_t evictions = 0, reloads = 0;
  for (const Replica& rep : reps) {
    evictions += rep.after.Counter("evictions") - rep.before.Counter("evictions");
    reloads += rep.after.Counter("reloads") - rep.before.Counter("reloads");
  }
  std::size_t requests = 0;
  for (const Replica& rep : reps) requests += rep.log.size();
  bool replay_ok = true;
  for (const Replica& rep : reps) replay_ok = replay_ok && rep.result.problems.empty();
  merge_results();
  out->Note(Fmt("replay: %zu requests (%llu evictions, %llu reloads) equal an "
                "in-process detector per session: %s",
                requests, static_cast<unsigned long long>(evictions),
                static_cast<unsigned long long>(reloads),
                replay_ok ? "yes" : "NO"));

  // --- per-layer metrics (traced runs only). ---
  if (!spans->enabled()) return;
  DetectorCounters learned_sum, end_sum;
  std::vector<double> all_learn;
  for (std::size_t r = 0; r < reps.size(); ++r) {
    learned_sum = Sum(learned_sum, learned[r]);
    for (const auto& ref : refs[r]) end_sum = Sum(end_sum, ReadCounters(*ref));
    all_learn.insert(all_learn.end(), learn_s[r].begin(), learn_s[r].end());
  }
  out->Layer("learning.learn_cpu_s", "s", Median(all_learn));
  CounterLayers(learned_sum, end_sum, out);
  if (!refs[0].empty()) ProbeLayers(*refs[0][0], recent[0], spans, out);
  const double kpt = static_cast<double>(points) / 1000.0;
  const auto delta = [&](const char* name) {
    double d = 0.0;
    for (const Replica& rep : reps) {
      d += static_cast<double>(rep.after.Counter(name) - rep.before.Counter(name));
    }
    return d;
  };
  const auto hist_mean = [&](const char* name) {
    double sum = 0.0, count = 0.0;
    for (const Replica& rep : reps) {
      const spot::obs::Histogram* a = rep.before.Hist(name);
      const spot::obs::Histogram* b = rep.after.Hist(name);
      if (b == nullptr) continue;
      sum += b->sum() - (a != nullptr ? a->sum() : 0.0);
      count += static_cast<double>(b->count()) -
               (a != nullptr ? static_cast<double>(a->count()) : 0.0);
    }
    return count > 0.0 ? sum / count : 0.0;
  };
  out->Layer("service.evictions_per_kpt", "count", delta("evictions") / kpt);
  out->Layer("service.reloads_per_kpt", "count", delta("reloads") / kpt);
  out->Layer("service.checkpoint_save_us", "us", hist_mean("checkpoint_save_us"));
  out->Layer("service.checkpoint_load_us", "us", hist_mean("checkpoint_load_us"));
  out->Layer("net.decode_us", "us", hist_mean("pipeline_decode_us"));
  out->Layer("net.coalesce_us", "us", hist_mean("pipeline_coalesce_us"));
  out->Layer("net.process_us", "us", hist_mean("pipeline_process_us"));
  out->Layer("net.encode_us", "us", hist_mean("pipeline_encode_us"));
  out->Layer("net.write_us", "us", hist_mean("pipeline_write_us"));
  out->Layer("net.frames_per_kpt", "count", delta("frames_received") / kpt);
  out->Layer("net.bytes_per_pt", "B",
             (delta("bytes_in") + delta("bytes_out")) / static_cast<double>(points));
  out->Layer("net.rtt_ingest_us", "us", Median(rtt_ingest));
  out->Layer("net.rtt_flush_us", "us", Median(rtt_flush));
  if (!rtt_topk.empty()) out->Layer("net.rtt_topk_us", "us", Median(rtt_topk));
  if (!rtt_feedback.empty()) out->Layer("net.rtt_feedback_us", "us", Median(rtt_feedback));
}

}  // namespace

void RunServeChurn(const Options& opt, SpanRecorder* spans, RunResult* out) {
  ServedSpec spec;
  spec.config = spot::eval::FastTestConfig();
  spec.config.os_update_every = 0;
  spec.config.evolution_period = 300;
  spec.sessions = 6;
  spec.visit = 8;
  spec.max_resident = 2;
  spec.frame_points = 50;
  spec.requests_per_round = 96;  // lcm(6 sessions x 8, 32): equal rounds
  spec.topk_every = 2;
  spec.feedback_every = 32;
  spec.concept_seed = 900;
  spec.nominal_pps = 72000.0;
  RunServed(spec, opt, spans, out);
}

void RunServeSmallFrames(const Options& opt, SpanRecorder* spans, RunResult* out) {
  ServedSpec spec;
  spec.config = spot::eval::FastTestConfig();
  spec.config.os_update_every = 0;
  spec.config.evolution_period = 0;
  spec.sessions = 2;
  spec.max_resident = 2;
  spec.frame_points = 10;
  spec.requests_per_round = 200;
  spec.concept_seed = 1100;
  spec.nominal_pps = 200000.0;
  RunServed(spec, opt, spans, out);
}

int ServeChild(int argc, char** argv) {
  if (argc != 4) return 2;
  spot::SetLogLevel(spot::LogLevel::kWarning);
  spot::SpotServiceConfig scfg;
  scfg.checkpoint_dir = argv[2];
  scfg.max_resident = static_cast<std::size_t>(std::strtoul(argv[3], nullptr, 10));
  scfg.num_shards = 1;
  spot::net::SpotServerConfig ncfg;
  ncfg.port = 0;
  ncfg.num_reactors = 1;
  spot::net::SpotServer server(scfg, ncfg);
  if (!server.Start()) return 1;
  spot::net::SpotServer::InstallSignalHandlers(&server);
  std::printf("PORT %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  server.Run();
  return 0;
}

}  // namespace perfbench
