#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

// Detector-level helpers shared by every workload: the seeded inputs,
// the independent verdict checks, and the per-layer probes that time the
// library's public calls on a detector in its end-of-run state.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "core/detector.h"
#include "stream/data_point.h"
#include "stream/synthetic.h"

namespace perfbench {

/// Seeded synthetic inputs of one stream: a training batch (no outliers)
/// and a labeled evaluation stream with 2% planted projected outliers,
/// drawn from the same concept. The concept (cluster layout) depends on
/// `concept_seed`, the sampled points on `sample_seed`.
class StreamSource {
 public:
  StreamSource(int dims, std::uint64_t concept_seed, std::uint64_t sample_seed);

  std::vector<std::vector<double>> Training(std::size_t n);
  /// Appends the next `n` stream points (ids continue from the last one)
  /// to `points` and their planted-outlier labels to `labels`.
  void Next(std::size_t n, std::vector<spot::DataPoint>* points,
            std::vector<bool>* labels);

 private:
  spot::stream::SyntheticConfig config_;
  spot::stream::GaussianStream training_;
  spot::stream::GaussianStream stream_;
  std::uint64_t next_id_ = 0;
};

/// 64-bit FNV-1a digest of a verdict's label, score and findings (bit
/// patterns of the doubles): runs keep one digest per point instead of
/// the verdicts, so their memory does not grow with the stream.
std::uint64_t VerdictDigest(const spot::SpotResult& r);

/// Recall on planted outliers and flag rate on inliers; adds a problem to
/// `out` unless planted outliers are flagged far more often than inliers
/// (recall >= 0.5 and recall >= 5 x the inlier flag rate).
/// `flagged[i]` is the verdict label of stream point i, `planted[i]` its
/// ground truth.
void CheckDetectionQuality(const std::vector<bool>& flagged,
                           const std::vector<bool>& planted, RunResult* out);

/// Every top-k answer must be sorted by decayed score (best first) and
/// name only points that were flagged (`flagged` is sorted).
void CheckTopKAnswer(const std::vector<spot::TopKEntry>& answer,
                     const std::vector<std::uint64_t>& flagged,
                     const std::string& where, RunResult* out);

/// Counters of a detector at one instant, for per-kpt rates.
struct DetectorCounters {
  std::uint64_t points = 0;
  std::uint64_t outliers = 0;
  std::uint64_t os_growth_runs = 0;
  std::uint64_t evolution_rounds = 0;
  std::uint64_t hash_probes = 0;
  std::uint64_t compactions = 0;
};
DetectorCounters ReadCounters(const spot::SpotDetector& det);
DetectorCounters Sum(const DetectorCounters& a, const DetectorCounters& b);

/// The layer metrics read from a detector's counters over a span of the
/// run (learning growth/evolution rates, grid probes and compactions,
/// outliers): `to - from` over `to.points - from.points`.
void CounterLayers(const DetectorCounters& from, const DetectorCounters& to,
                   RunResult* out);

/// Times the library's public calls on a detector in its end-of-run
/// state: OS-growth MOGA at GrowOutlierDriven's budget, CS evolution,
/// supervised feedback, the fused synapse probe, checkpoint save/load
/// and top-k queries. Mutating calls run on copies (an SST copy, a
/// detector restored from the checkpoint image, a fresh synapse
/// manager), never on `det`. `recent` feeds the synapse probe.
void ProbeLayers(const spot::SpotDetector& det,
                 const std::vector<spot::DataPoint>& recent,
                 SpanRecorder* spans, RunResult* out);

/// Appends 0 for every per-layer metric the workload did not measure
/// (its layer does not run there) and orders the list canonically.
void CompleteLayers(RunResult* out);

/// SaveState image size in bytes (0 on failure).
std::size_t StateBytes(const spot::SpotDetector& det);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
