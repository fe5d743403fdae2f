// In-process workloads: SpotDetectors driven through ProcessBatch in
// equal rounds, timed on this process's CPU clocks (per batch the calling
// thread's, or the whole process's when shard workers help) and, for the
// one wall rate, on the monotonic clock per thread and round.
//
// detect-evolving: 32 detectors on 4 threads, 8 dims, the loadgen session
//   config (FastTestConfig, OS growth every 8 outliers, self-evolution
//   every 300 points), 1 shard each.
// detect-wide:     one detector, 20 dims, ExperimentConfig (FS depth 2,
//   ~218 tracked subspaces), OS growth and evolution off, 2 shards.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/detector.h"
#include "eval/presets.h"
#include "grid/decay.h"
#include "probes.h"

namespace perfbench {

namespace {

/// Points per ProcessBatch call.
constexpr std::size_t kBatch = 200;

struct InprocSpec {
  int dims = 8;
  spot::SpotConfig config;
  std::size_t training = 400;
  std::size_t batches_per_round = 10;
  std::uint64_t concept_seed = 1;
  /// Points per second this workload processes on the reference host
  /// (README): a run processes seconds x nominal_pps points.
  double nominal_pps = 25000.0;
  /// Independent detectors run side by side (each with its own stream and
  /// seed); a round is batches_per_round batches of every one of them.
  std::size_t tenants = 1;
  /// Threads the tenants are spread over (tenant j runs on thread j % T);
  /// must stay 1 for sharded detectors (the engine statistics and the
  /// process-clock batch latency assume one batch at a time).
  std::size_t threads = 1;
  /// Recompute RD/IRSD of sampled findings by brute force (only valid
  /// when the tracked set never changes after Learn()).
  bool brute_force = false;
};

/// A finding kept for the brute-force check, with its stream index.
struct SampledFinding {
  std::size_t index = 0;
  spot::SubspaceFinding finding;
};

/// Paper Definition 2 recomputed from the decayed history by brute force:
/// the decayed count, linear and squared sums of every cell of subspace
/// `s` over `history` (ticks <= `tick`, weight alpha^(tick - t_j)), then
/// RD = D_c * W / sum_i D_i^2 and IRSD = mean over the retained dims of
/// sigma_uniform / (sigma + 0.01 sigma_uniform), capped. Only the interval
/// binning comes from the library's Partition.
spot::Pcs BruteForcePcs(
    const std::deque<std::pair<std::uint64_t, std::vector<double>>>& history,
    const spot::Partition& partition, double alpha, const spot::Subspace& s,
    const std::vector<double>& point, std::uint64_t tick) {
  const std::vector<int> dims = s.Indices();
  struct Cell {
    double count = 0.0;
    std::vector<double> ls, ss;
  };
  std::map<std::vector<std::uint32_t>, Cell> cells;
  const auto cell_of = [&](const std::vector<double>& x) {
    std::vector<std::uint32_t> c;
    for (int d : dims) c.push_back(partition.IntervalIndex(d, x[d]));
    return c;
  };
  double total = 0.0;
  for (const auto& [t, x] : history) {
    if (t > tick) break;
    const double w = std::pow(alpha, static_cast<double>(tick - t));
    total += w;
    Cell& cell = cells[cell_of(x)];
    if (cell.ls.empty()) cell.ls.assign(dims.size(), 0.0), cell.ss.assign(dims.size(), 0.0);
    cell.count += w;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      cell.ls[i] += w * x[dims[i]];
      cell.ss[i] += w * x[dims[i]] * x[dims[i]];
    }
  }
  double sumsq = 0.0;
  for (const auto& [key, cell] : cells) sumsq += cell.count * cell.count;
  const Cell& c = cells[cell_of(point)];
  spot::Pcs pcs;
  pcs.count = c.count;
  pcs.rd = sumsq > 0.0 ? c.count * total / sumsq : 0.0;
  if (c.count >= 2.0) {
    double sum = 0.0;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      const double mean = c.ls[i] / c.count;
      const double var = c.ss[i] / c.count - mean * mean;
      const double sigma = var > 0.0 ? std::sqrt(var) : 0.0;
      const double su = partition.CellWidth(dims[i]) / std::sqrt(12.0);
      sum += std::min(spot::Pcs::kIrsdCap, su / (sigma + 0.01 * su));
    }
    pcs.irsd = sum / static_cast<double>(dims.size());
  }
  return pcs;
}

/// One independent detector of an in-process workload with its stream.
struct Tenant {
  Tenant(const InprocSpec& spec, std::uint64_t seed, std::size_t j)
      : source(spec.dims, spec.concept_seed + j, 64 * seed + j) {
    config = spec.config;
    config.seed = 1000003ULL * seed + 7919ULL * j + 17;
    training = source.Training(spec.training);
  }

  StreamSource source;
  spot::SpotConfig config;
  std::vector<std::vector<double>> training;
  std::unique_ptr<spot::SpotDetector> det;
  std::vector<std::vector<spot::DataPoint>> batches;  // current round
  std::vector<std::vector<spot::SpotResult>> results;
  std::vector<std::uint64_t> digests;  // one per processed point
  std::vector<bool> flagged, planted;
  std::vector<SampledFinding> sampled;
  std::vector<spot::DataPoint> recent;  // last round's points
};

/// Replays tenant `t`'s whole stream through per-point Process() on a
/// second, unsharded detector and compares every verdict with the
/// batched one; with `brute_force`, also recomputes the sampled findings'
/// PCS from the decayed history.
void ReplayTenant(const InprocSpec& spec, std::uint64_t seed, std::size_t j,
                  const Tenant& t, RunResult* out) {
  Tenant ref(spec, seed, j);
  ref.config.num_shards = 1;
  spot::SpotDetector reference(ref.config);
  const bool learned = reference.Learn(ref.training);
  out->ops.Attempt("learn", learned);
  if (!learned) {
    out->Check(false, "reference Learn() failed");
    return;
  }
  const spot::SpotConfig& cfg = t.config;
  const double alpha = spot::DecayModel(cfg.omega, cfg.epsilon).alpha();
  // Points older than this carry weight below alpha^kHistory (< 1e-20 at
  // the default window): the brute force keeps only the recent history.
  const std::size_t kHistory = static_cast<std::size_t>(
      std::ceil(50.0 / std::max(1e-9, 1.0 - alpha)));
  std::deque<std::pair<std::uint64_t, std::vector<double>>> history;
  std::uint64_t tick = 0;
  for (const auto& row : ref.training) history.emplace_back(tick++, row);
  std::size_t next_sample = 0, checked = 0;
  double worst_rd = 0.0, worst_irsd = 0.0, worst_count = 0.0;
  std::vector<spot::DataPoint> chunk;
  std::vector<bool> ignored;
  long first_mismatch = -1;
  const std::size_t chunk_points = kBatch * spec.batches_per_round;
  for (std::size_t i = 0; i < t.digests.size(); ++i) {
    if (i % chunk_points == 0) {
      chunk.clear();
      ref.source.Next(chunk_points, &chunk, &ignored);
    }
    const spot::DataPoint& p = chunk[i % chunk_points];
    const spot::SpotResult r = reference.Process(p);
    if (first_mismatch < 0 && VerdictDigest(r) != t.digests[i]) {
      first_mismatch = static_cast<long>(i);
    }
    if (!spec.brute_force) continue;
    history.emplace_back(tick, p.values);
    if (history.size() > kHistory) history.pop_front();
    for (; next_sample < t.sampled.size() && t.sampled[next_sample].index == i;
         ++next_sample) {
      const spot::SubspaceFinding& f = t.sampled[next_sample].finding;
      const spot::Pcs bf = BruteForcePcs(history, reference.synapses().partition(),
                                         alpha, f.subspace, p.values, tick);
      worst_count = std::max(worst_count, std::fabs(bf.count - f.pcs.count));
      worst_rd = std::max(worst_rd, std::fabs(bf.rd - f.pcs.rd) / std::max(bf.rd, 1e-12));
      worst_irsd = std::max(worst_irsd, std::fabs(bf.irsd - f.pcs.irsd) /
                                            std::max(bf.irsd, 1e-12));
      out->Check(bf.rd <= cfg.rd_threshold * (1.0 + 1e-6) &&
                     bf.irsd <= cfg.irsd_threshold * (1.0 + 1e-6),
                 Fmt("brute-force PCS of point %zu is not sparse: rd %.6g "
                     "irsd %.6g", i, bf.rd, bf.irsd));
      ++checked;
    }
    ++tick;
  }
  out->Check(first_mismatch < 0,
             Fmt("tenant %zu: batched verdict %ld differs from per-point "
                 "Process()", j, first_mismatch));
  if (!spec.brute_force) return;
  // Tolerance: compaction drops cells under prune_threshold, so a cell
  // revisited after being pruned lacks at most ~that much decayed weight
  // (2x covers a second pruning). The cell holds the point itself
  // (count >= 1), so RD is off by at most that share; IRSD (count >= 2
  // cells only) moves by a smaller share, bounded here by 1%.
  const double count_tol = 2.0 * cfg.prune_threshold;
  const double rd_tol = count_tol;
  const double irsd_tol = 1e-2;
  out->Note(Fmt("brute-force RD/IRSD: %zu findings checked; worst |dcount| "
                "%.3g (tol %.3g), worst rel dRD %.3g (tol %.3g), rel dIRSD "
                "%.3g (tol %.3g)",
                checked, worst_count, count_tol, worst_rd, rd_tol, worst_irsd,
                irsd_tol));
  out->Check(checked >= 10, Fmt("only %zu findings sampled", checked));
  out->Check(worst_count <= count_tol && worst_rd <= rd_tol &&
                 worst_irsd <= irsd_tol,
             "brute-force RD/IRSD disagree with the detector's findings");
}

/// Runs fn(j) for j in [0, n) on `threads` threads (j on thread j mod
/// threads; thread 0 is the caller) and waits for all of them.
template <typename Fn>
void OnLanes(std::size_t threads, std::size_t n, const Fn& fn) {
  const auto lane = [&](std::size_t l) {
    for (std::size_t j = l; j < n; j += threads) fn(j);
  };
  std::vector<std::thread> others;
  for (std::size_t l = 1; l < threads; ++l) others.emplace_back(lane, l);
  lane(0);
  for (std::thread& t : others) t.join();
}

void RunInproc(const InprocSpec& spec, const Options& opt, SpanRecorder* spans,
               RunResult* out) {
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (std::size_t j = 0; j < spec.tenants; ++j) {
    tenants.push_back(std::make_unique<Tenant>(spec, opt.seed, j));
  }

  // --- set-up: construction + Learn() of every tenant, CPU-timed, several
  // times; the last set serves.
  Readings readings;
  std::vector<double> learn_s;
  std::vector<double> learn_cpu(tenants.size());
  std::vector<char> learned(tenants.size());
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SpanRecorder::Scope span(spans, "setup: SpotDetector+Learn");
    const double t0 = ProcessCpuSeconds();
    OnLanes(spec.threads, tenants.size(), [&](std::size_t j) {
      const double t1 = ThreadCpuSeconds();
      tenants[j]->det = std::make_unique<spot::SpotDetector>(tenants[j]->config);
      learned[j] = tenants[j]->det->Learn(tenants[j]->training);
      learn_cpu[j] = ThreadCpuSeconds() - t1;
    });
    readings.setup_cpu_s.push_back(ProcessCpuSeconds() - t0);
    for (std::size_t j = 0; j < tenants.size(); ++j) {
      out->ops.Attempt("learn", learned[j] != 0);
      learn_s.push_back(learn_cpu[j]);
    }
    if (std::count(learned.begin(), learned.end(), 0) != 0) {
      out->Check(false, "Learn() failed");
      return;
    }
  }
  const bool sharded = spec.config.num_shards > 1;
  for (auto& t : tenants) {
    t->det->set_collect_shard_timings(spans->enabled() && sharded);
    t->batches.resize(spec.batches_per_round);
    t->results.resize(spec.batches_per_round);
  }

  // --- timed phase: equal rounds until the run length is reached. ---
  const std::size_t tenant_points = kBatch * spec.batches_per_round;
  const std::size_t round_points = tenant_points * spec.tenants;
  readings.round_points = round_points;
  readings.lane_wall_s.resize(spec.threads);
  std::size_t rounds_done = 0;
  double busy_ms = 0.0, skew = 0.0, serial_ms = 0.0;
  std::size_t sharded_batches = 0;
  DetectorCounters c0;
  for (const auto& t : tenants) c0 = Sum(c0, ReadCounters(*t->det));
  const auto sample_state = [&]() {
    SpanRecorder::Scope span(spans, "core.SaveState(state_bytes)");
    std::size_t bytes = 0;
    for (const auto& t : tenants) {
      const std::size_t b = StateBytes(*t->det);
      out->ops.Attempt("checkpoint", b != 0);
      bytes += b;
    }
    readings.state_bytes.push_back(static_cast<double>(bytes));
  };
  // Tenant j runs on thread j mod T (OnLanes). Batch latency is the
  // batch's CPU time: the calling thread's when the detector is unsharded,
  // the whole process's when shard workers help. Only thread 0 records
  // spans (the recorder is single-threaded).
  std::vector<std::vector<double>> lane_batch_ms(spec.threads);
  const auto run_tenant = [&](std::size_t j) {
    Tenant& t = *tenants[j];
    const std::size_t lane = j % spec.threads;
    for (std::size_t b = 0; b < spec.batches_per_round; ++b) {
      SpanRecorder::Scope span(lane == 0 ? spans : nullptr, "detector.ProcessBatch");
      const double bw0 = WallSeconds();
      const double c_start = sharded ? ProcessCpuSeconds() : ThreadCpuSeconds();
      t.results[b] = t.det->ProcessBatch(t.batches[b]);
      lane_batch_ms[lane].push_back(
          ((sharded ? ProcessCpuSeconds() : ThreadCpuSeconds()) - c_start) * 1e3);
      if (!spans->enabled() || !sharded) continue;
      const double batch_ms = (WallSeconds() - bw0) * 1e3;
      double sum = 0.0, longest = 0.0;
      for (const spot::ShardSpan& s : t.det->shard_spans()) {
        sum += s.dur_us * 1e-3;
        longest = std::max(longest, s.dur_us * 1e-3);
      }
      const double k = static_cast<double>(t.det->shard_spans().size());
      if (k > 0.0 && sum > 0.0) {
        busy_ms += sum / k;
        skew += longest / (sum / k);
        serial_ms += batch_ms - longest;
        ++sharded_batches;
      }
    }
  };
  const std::size_t rounds = RoundsFor(opt.seconds, spec.nominal_pps, round_points);
  const double give_up = WallSeconds() + kGiveUpFactor * opt.seconds;
  do {
    for (auto& t : tenants) {
      t->recent.clear();
      t->source.Next(tenant_points, &t->recent, &t->planted);
      for (std::size_t b = 0; b < spec.batches_per_round; ++b) {
        t->batches[b].assign(t->recent.begin() + b * kBatch,
                             t->recent.begin() + (b + 1) * kBatch);
      }
    }
    {
      SpanRecorder::Scope round_span(spans, "round");
      const HostTicks ticks0 = ReadHostTicks();
      const double cpu0 = ProcessCpuSeconds();
      OnLanes(spec.threads, spec.threads, [&](std::size_t lane) {
        const double w0 = WallSeconds();
        for (std::size_t j = lane; j < tenants.size(); j += spec.threads) run_tenant(j);
        readings.lane_wall_s[lane].push_back(WallSeconds() - w0);
      });
      readings.round_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
      AddTicks(ticks0, ReadHostTicks(), &readings.round_ticks);
      ++rounds_done;
    }
    std::vector<double> calibration(spec.threads);
    OnLanes(spec.threads, spec.threads,
            [&](std::size_t l) { calibration[l] = CalibrationSeconds(); });
    readings.calibration_s.insert(readings.calibration_s.end(),
                                  calibration.begin(), calibration.end());
    if (rounds_done % kStateEvery == 0) sample_state();
    for (auto& t : tenants) {
      for (std::size_t b = 0; b < spec.batches_per_round; ++b) {
        out->ops.Attempt("batch", t->results[b].size() == kBatch);
        for (const spot::SpotResult& r : t->results[b]) {
          const std::size_t index = t->digests.size();
          t->digests.push_back(VerdictDigest(r));
          t->flagged.push_back(r.is_outlier);
          if (spec.brute_force && r.is_outlier && index % 61 == 0) {
            for (const spot::SubspaceFinding& f : r.findings) {
              t->sampled.push_back({index, f});
            }
          }
        }
      }
    }
  } while (rounds_done < rounds && WallSeconds() < give_up);
  out->Check(rounds_done == rounds,
             Fmt("only %zu of %zu rounds ran within %.0f s", rounds_done,
                 rounds, kGiveUpFactor * opt.seconds));
  if (readings.state_bytes.empty()) sample_state();
  readings.rss_mb = PeakRssMb(getpid());
  DetectorCounters c1;
  for (const auto& t : tenants) c1 = Sum(c1, ReadCounters(*t->det));
  const std::size_t points = round_points * rounds_done;

  // --- end-to-end metrics. ---
  for (const auto& lane : lane_batch_ms) {
    readings.latency_ms.insert(readings.latency_ms.end(), lane.begin(), lane.end());
  }
  out->Note(Fmt("points %zu in %zu rounds of %zu (%zu detector(s) on %zu "
                "thread(s))",
                points, rounds_done, round_points, spec.tenants,
                spec.threads));
  ReportEndToEnd(readings, out);

  // --- per-layer metrics (traced runs only). ---
  if (spans->enabled()) {
    out->Layer("learning.learn_cpu_s", "s", Median(learn_s));
    CounterLayers(c0, c1, out);
    if (sharded_batches != 0) {
      const double n = static_cast<double>(sharded_batches);
      out->Layer("engine.shard_busy_ms", "ms", busy_ms / n);
      out->Layer("engine.shard_skew", "ratio", skew / n);
      out->Layer("engine.serial_ms", "ms", serial_ms / n);
    }
    ProbeLayers(*tenants[0]->det, tenants[0]->recent, spans, out);
  }

  // --- independent checks, off the clock. ---
  std::vector<bool> flagged, planted;
  for (const auto& t : tenants) {
    flagged.insert(flagged.end(), t->flagged.begin(), t->flagged.end());
    planted.insert(planted.end(), t->planted.begin(), t->planted.end());
  }
  CheckDetectionQuality(flagged, planted, out);
  SpanRecorder::Scope span(spans, "check: per-point Process() replay");
  std::vector<RunResult> replays(tenants.size());
  OnLanes(spec.threads, tenants.size(), [&](std::size_t j) {
    ReplayTenant(spec, opt.seed, j, *tenants[j], &replays[j]);
  });
  bool replay_ok = true;
  for (RunResult& r : replays) {
    replay_ok = replay_ok && r.problems.empty();
    out->ops.Merge(r.ops);
    out->problems.insert(out->problems.end(), r.problems.begin(), r.problems.end());
    out->notes.insert(out->notes.end(), r.notes.begin(), r.notes.end());
  }
  out->Note(Fmt("replay: %zu batched verdicts equal per-point Process() on "
                "second detectors: %s",
                points, replay_ok ? "yes" : "NO"));
}

}  // namespace

void RunDetectEvolving(const Options& opt, SpanRecorder* spans, RunResult* out) {
  InprocSpec spec;
  spec.dims = 8;
  spec.config = spot::eval::FastTestConfig();
  spec.config.os_update_every = 8;
  spec.config.evolution_period = 300;
  spec.config.num_shards = 1;
  spec.training = 400;
  spec.batches_per_round = 1;
  spec.tenants = 32;
  spec.threads = 4;
  spec.nominal_pps = 80000.0;
  spec.concept_seed = 500;
  RunInproc(spec, opt, spans, out);
}

void RunDetectWide(const Options& opt, SpanRecorder* spans, RunResult* out) {
  InprocSpec spec;
  spec.dims = 20;
  spec.config = spot::eval::ExperimentConfig();
  spec.config.os_update_every = 0;
  spec.config.evolution_period = 0;
  spec.config.num_shards = 2;
  spec.training = 2000;
  spec.concept_seed = 700;
  spec.nominal_pps = 30000.0;
  spec.brute_force = true;
  RunInproc(spec, opt, spans, out);
}

}  // namespace perfbench
