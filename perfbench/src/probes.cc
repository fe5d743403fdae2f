#include "probes.h"

#include <algorithm>
#include <sstream>

#include "common/rng.h"
#include "grid/synapse_manager.h"
#include "learning/self_evolution.h"
#include "moga/moga_search.h"
#include "moga/objectives.h"

namespace perfbench {

namespace {

spot::stream::SyntheticConfig StreamConfig(int dims, std::uint64_t concept_seed,
                                           std::uint64_t seed,
                                           double outlier_probability) {
  spot::stream::SyntheticConfig c;
  c.dimension = dims;
  c.outlier_probability = outlier_probability;
  c.max_outlier_subspace_dim = 2;
  c.concept_seed = concept_seed;
  c.seed = seed;
  return c;
}

/// Canonical order of the per-layer metrics (BENCHMARK.json lists the
/// same names) with their units.
const struct {
  const char* name;
  const char* unit;
} kLayerMetrics[] = {
    {"learning.learn_cpu_s", "s"},
    {"learning.os_growth_runs_per_kpt", "count"},
    {"learning.evolution_rounds_per_kpt", "count"},
    {"learning.os_growth_ms", "ms"},
    {"moga.objective_evals_per_run", "count"},
    {"learning.evolution_ms", "ms"},
    {"learning.feedback_ms", "ms"},
    {"grid.tracked_subspaces", "count"},
    {"grid.probes_per_pt", "count"},
    {"grid.probe_ns_per_subspace", "ns"},
    {"grid.populated_cells", "count"},
    {"grid.compactions_per_kpt", "count"},
    {"engine.shard_busy_ms", "ms"},
    {"engine.shard_skew", "ratio"},
    {"engine.serial_ms", "ms"},
    {"core.outliers_per_kpt", "count"},
    {"core.checkpoint_save_ms", "ms"},
    {"core.checkpoint_load_ms", "ms"},
    {"core.topk_query_us", "us"},
    {"service.evictions_per_kpt", "count"},
    {"service.reloads_per_kpt", "count"},
    {"service.checkpoint_save_us", "us"},
    {"service.checkpoint_load_us", "us"},
    {"net.decode_us", "us"},
    {"net.coalesce_us", "us"},
    {"net.process_us", "us"},
    {"net.encode_us", "us"},
    {"net.write_us", "us"},
    {"net.frames_per_kpt", "count"},
    {"net.bytes_per_pt", "B"},
    {"net.rtt_ingest_us", "us"},
    {"net.rtt_flush_us", "us"},
    {"net.rtt_topk_us", "us"},
    {"net.rtt_feedback_us", "us"},
};

}  // namespace

StreamSource::StreamSource(int dims, std::uint64_t concept_seed,
                           std::uint64_t sample_seed)
    : config_(StreamConfig(dims, concept_seed, 2 * sample_seed + 2, 0.02)),
      training_(StreamConfig(dims, concept_seed, 2 * sample_seed + 1, 0.0)),
      stream_(config_) {}

std::vector<std::vector<double>> StreamSource::Training(std::size_t n) {
  std::vector<std::vector<double>> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) rows.push_back(training_.Next()->point.values);
  return rows;
}

void StreamSource::Next(std::size_t n, std::vector<spot::DataPoint>* points,
                        std::vector<bool>* labels) {
  for (std::size_t i = 0; i < n; ++i) {
    spot::LabeledPoint p = *stream_.Next();
    p.point.id = next_id_++;
    labels->push_back(p.is_outlier);
    points->push_back(std::move(p.point));
  }
}

std::uint64_t VerdictDigest(const spot::SpotResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  const unsigned char label = r.is_outlier ? 1 : 0;
  mix(&label, 1);
  mix(&r.score, sizeof(double));
  for (const spot::SubspaceFinding& f : r.findings) {
    const std::uint64_t bits = f.subspace.bits();
    mix(&bits, sizeof(bits));
    mix(&f.pcs.rd, sizeof(double));
    mix(&f.pcs.irsd, sizeof(double));
    mix(&f.pcs.count, sizeof(double));
  }
  return h;
}

void CheckDetectionQuality(const std::vector<bool>& flagged,
                           const std::vector<bool>& labels, RunResult* out) {
  std::uint64_t planted = 0, caught = 0, inliers = 0, false_alarms = 0;
  for (std::size_t i = 0; i < flagged.size() && i < labels.size(); ++i) {
    if (labels[i]) {
      ++planted;
      caught += flagged[i] ? 1 : 0;
    } else {
      ++inliers;
      false_alarms += flagged[i] ? 1 : 0;
    }
  }
  const double recall =
      planted != 0 ? static_cast<double>(caught) / planted : 0.0;
  const double inlier_rate =
      inliers != 0 ? static_cast<double>(false_alarms) / inliers : 1.0;
  out->Note(Fmt("quality: recall %.3f on %llu planted outliers, inliers "
                "flagged %.4f of %llu",
                recall, static_cast<unsigned long long>(planted), inlier_rate,
                static_cast<unsigned long long>(inliers)));
  out->Check(planted >= 20 && recall >= 0.5 && recall >= 5.0 * inlier_rate,
             Fmt("planted outliers not separated from inliers: recall %.3f "
                 "(%llu planted), inlier flag rate %.4f",
                 recall, static_cast<unsigned long long>(planted),
                 inlier_rate));
}

void CheckTopKAnswer(const std::vector<spot::TopKEntry>& answer,
                     const std::vector<std::uint64_t>& flagged,
                     const std::string& where, RunResult* out) {
  for (std::size_t i = 0; i < answer.size(); ++i) {
    if (i > 0 && answer[i].decayed_score > answer[i - 1].decayed_score) {
      out->Check(false, "top-k answer not sorted by decayed score " + where);
      return;
    }
    if (!std::binary_search(flagged.begin(), flagged.end(),
                            answer[i].point_id)) {
      out->Check(false, Fmt("top-k names point %llu, never flagged, ",
                            static_cast<unsigned long long>(
                                answer[i].point_id)) +
                            where);
      return;
    }
  }
}

DetectorCounters ReadCounters(const spot::SpotDetector& det) {
  DetectorCounters c;
  const spot::SpotStats& s = det.stats();
  c.points = s.points_processed;
  c.outliers = s.outliers_detected;
  c.os_growth_runs = s.os_growth_runs;
  c.evolution_rounds = s.evolution_rounds;
  c.hash_probes = det.synapses().hash_probes();
  c.compactions = det.synapses().TotalCompactions();
  return c;
}

DetectorCounters Sum(const DetectorCounters& a, const DetectorCounters& b) {
  DetectorCounters c;
  c.points = a.points + b.points;
  c.outliers = a.outliers + b.outliers;
  c.os_growth_runs = a.os_growth_runs + b.os_growth_runs;
  c.evolution_rounds = a.evolution_rounds + b.evolution_rounds;
  c.hash_probes = a.hash_probes + b.hash_probes;
  c.compactions = a.compactions + b.compactions;
  return c;
}

void CounterLayers(const DetectorCounters& from, const DetectorCounters& to,
                   RunResult* out) {
  const double pts = static_cast<double>(to.points - from.points);
  const auto per_kpt = [pts](std::uint64_t a, std::uint64_t b) {
    return pts > 0.0 ? 1000.0 * static_cast<double>(b >= a ? b - a : 0) / pts
                     : 0.0;
  };
  out->Layer("learning.os_growth_runs_per_kpt", "count",
             per_kpt(from.os_growth_runs, to.os_growth_runs));
  out->Layer("learning.evolution_rounds_per_kpt", "count",
             per_kpt(from.evolution_rounds, to.evolution_rounds));
  out->Layer("grid.probes_per_pt", "count",
             per_kpt(from.hash_probes, to.hash_probes) / 1000.0);
  out->Layer("grid.compactions_per_kpt", "count",
             per_kpt(from.compactions, to.compactions));
  out->Layer("core.outliers_per_kpt", "count",
             per_kpt(from.outliers, to.outliers));
}

std::size_t StateBytes(const spot::SpotDetector& det) {
  std::ostringstream image;
  return det.SaveState(image) ? image.str().size() : 0;
}

void ProbeLayers(const spot::SpotDetector& det,
                 const std::vector<spot::DataPoint>& recent,
                 SpanRecorder* spans, RunResult* out) {
  const spot::SpotConfig& cfg = det.config();
  const spot::Partition& partition = det.synapses().partition();
  const int dims = partition.num_dims();
  const std::vector<std::vector<double>>& sample = det.reservoir().Items();

  // OS growth: GrowOutlierDriven's mini-MOGA (same objectives, budget and
  // top-k) over the reservoir plus one retained outlier.
  std::vector<std::vector<double>> outliers;
  for (const spot::TopKEntry& e : det.QueryTopK(8)) outliers.push_back(e.values);
  if (outliers.empty() && !recent.empty()) outliers.push_back(recent.back().values);
  std::vector<double> grow_ms;
  double evals = 0.0;
  {
    SpanRecorder::Scope span(spans, "learning.MogaSearch(os-growth)");
    for (std::size_t i = 0; i < outliers.size(); ++i) {
      std::vector<std::vector<double>> batch = sample;
      batch.push_back(outliers[i]);
      spot::Nsga2Config mcfg = cfg.supervised.moga;
      mcfg.num_dims = dims;
      mcfg.max_dimension = std::min(mcfg.max_dimension, dims);
      mcfg.population_size = std::min(mcfg.population_size, 24);
      mcfg.generations = std::min(mcfg.generations, 10);
      mcfg.seed = 1000 + i;
      const double t0 = ThreadCpuSeconds();
      spot::BatchSparsityObjectives obj(&partition, &batch, {batch.size() - 1});
      spot::MogaSearch search(mcfg, &obj);
      search.FindTopSparse(cfg.supervised.top_subspaces_per_example);
      grow_ms.push_back((ThreadCpuSeconds() - t0) * 1e3);
      evals += static_cast<double>(obj.evaluation_count());
    }
  }
  out->Layer("learning.os_growth_ms", "ms", Median(grow_ms));
  out->Layer("moga.objective_evals_per_run", "count",
             outliers.empty() ? 0.0 : evals / outliers.size());

  // CS self-evolution on copies of the SST.
  std::vector<double> evolve_ms;
  {
    SpanRecorder::Scope span(spans, "learning.EvolveClusteringSubspaces");
    spot::SelfEvolutionConfig ecfg = cfg.evolution;
    ecfg.max_dimension = std::min(ecfg.max_dimension, dims);
    for (int rep = 0; rep < 5; ++rep) {
      spot::Sst sst = det.sst();
      spot::Rng rng(77 + rep);
      const double t0 = ThreadCpuSeconds();
      spot::EvolveClusteringSubspaces(&sst, partition, sample, ecfg, rng);
      evolve_ms.push_back((ThreadCpuSeconds() - t0) * 1e3);
    }
  }
  out->Layer("learning.evolution_ms", "ms", Median(evolve_ms));

  // Checkpoint save and load of the whole detector state.
  std::vector<double> save_ms, load_ms;
  std::string image;
  {
    SpanRecorder::Scope span(spans, "core.SaveState");
    for (int rep = 0; rep < 5; ++rep) {
      std::ostringstream os;
      const double t0 = ThreadCpuSeconds();
      const bool ok = det.SaveState(os);
      save_ms.push_back((ThreadCpuSeconds() - t0) * 1e3);
      out->ops.Attempt("checkpoint", ok);
      image = os.str();
    }
  }
  std::unique_ptr<spot::SpotDetector> restored;
  {
    SpanRecorder::Scope span(spans, "core.LoadState");
    for (int rep = 0; rep < 5; ++rep) {
      auto fresh = std::make_unique<spot::SpotDetector>(cfg);
      std::istringstream is(image);
      const double t0 = ThreadCpuSeconds();
      const bool ok = fresh->LoadState(is);
      load_ms.push_back((ThreadCpuSeconds() - t0) * 1e3);
      out->ops.Attempt("checkpoint", ok);
      out->Check(ok, "LoadState of the end-of-run image failed");
      restored = std::move(fresh);
    }
  }
  out->Layer("core.checkpoint_save_ms", "ms", Median(save_ms));
  out->Layer("core.checkpoint_load_ms", "ms", Median(load_ms));

  // Supervised feedback on the restored copy.
  std::vector<double> feedback_ms;
  if (restored->learned()) {
    SpanRecorder::Scope span(spans, "learning.ApplyFeedback");
    for (int rep = 0; rep < 5; ++rep) {
      std::vector<std::uint64_t> ids;
      for (const spot::TopKEntry& e : restored->QueryTopK(4)) ids.push_back(e.point_id);
      const std::vector<std::vector<double>> example = {outliers.empty()
                                                            ? sample.front()
                                                            : outliers.front()};
      std::string error;
      const double t0 = ThreadCpuSeconds();
      const bool ok = restored->ApplyFeedback(ids, example, &error);
      feedback_ms.push_back((ThreadCpuSeconds() - t0) * 1e3);
      out->ops.Attempt("feedback", ok);
      out->Check(ok, "ApplyFeedback on the restored detector failed: " + error);
    }
  }
  out->Layer("learning.feedback_ms", "ms", Median(feedback_ms));

  // Top-k query.
  std::vector<double> topk_us;
  {
    SpanRecorder::Scope span(spans, "core.QueryTopK");
    for (int rep = 0; rep < 200; ++rep) {
      const double t0 = ThreadCpuSeconds();
      const std::size_t n = det.QueryTopK(8).size();
      topk_us.push_back((ThreadCpuSeconds() - t0) * 1e6);
      out->ops.Attempt("topk", n <= 8);
    }
  }
  out->Layer("core.topk_query_us", "us", Median(topk_us));

  // The fused synapse probe on a fresh manager tracking the same set,
  // fed the run's most recent points (the first quarter warms it up).
  {
    SpanRecorder::Scope span(spans, "grid.SynapseManager::AddAndQuery");
    const spot::SynapseManager& live = det.synapses();
    spot::SynapseManager mgr(partition, live.decay_model(), cfg.prune_threshold,
                             cfg.compaction_period);
    for (const spot::Subspace& s : live.TrackedSubspaces()) mgr.Track(s);
    std::vector<spot::Pcs> pcs;
    const std::size_t warm = recent.size() / 4;
    std::uint64_t tick = 0;
    for (std::size_t i = 0; i < warm; ++i) mgr.AddAndQuery(recent[i].values, tick++, &pcs);
    const double t0 = ThreadCpuSeconds();
    for (std::size_t i = warm; i < recent.size(); ++i) {
      mgr.AddAndQuery(recent[i].values, tick++, &pcs);
    }
    const double probes =
        static_cast<double>(recent.size() - warm) * mgr.NumTracked();
    out->Layer("grid.probe_ns_per_subspace", "ns",
               probes > 0.0 ? (ThreadCpuSeconds() - t0) * 1e9 / probes : 0.0);
  }
  out->Layer("grid.tracked_subspaces", "count",
             static_cast<double>(det.TrackedSubspaces()));
  out->Layer("grid.populated_cells", "count",
             static_cast<double>(det.synapses().TotalPopulatedCells()));
}

void CompleteLayers(RunResult* out) {
  std::vector<Metric> ordered;
  std::string absent;
  for (const auto& m : kLayerMetrics) {
    auto it = std::find_if(out->per_layer.begin(), out->per_layer.end(),
                           [&m](const Metric& x) { return x.name == m.name; });
    if (it != out->per_layer.end()) {
      ordered.push_back(*it);
    } else {
      ordered.push_back({m.name, m.unit, 0.0});
      absent += std::string(absent.empty() ? "" : ", ") + m.name;
    }
  }
  if (!absent.empty()) {
    out->Note("layers not run by this workload (reported as 0): " + absent);
  }
  out->per_layer = std::move(ordered);
}

}  // namespace perfbench
