// Golden digests of one eventful detector run. Cross-shard and
// batched-vs-per-point tests compare the system with itself, so they cannot
// see a change that moves every path the same way (say, in the MOGA
// objective kernel that OS growth, self-evolution, feedback and drift
// relearning share). These constants pin the absolute outcome: the
// per-point verdict stream, the final SpotStats and the SaveState image of
// a FastTestConfig run that crosses OS growth, CS self-evolution, one
// supervised feedback round and drift relearns, at shard counts 1 and 4,
// fed in 50-point batches, one point at a time through Process(), and in
// batches of 1, 8 and 240 points. Every feeding gives the same verdicts and
// stats; the images differ only in the checkpointed batch count.
//
// A deliberate behaviour change re-records them: run this binary, copy the
// printed digests in, and say why in CHANGES.md.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "eval/harness.h"
#include "eval/presets.h"
#include "stream/drift.h"
#include "stream/replay.h"
#include "stream/synthetic.h"

namespace spot {
namespace {

/// FNV-1a over a byte stream.
class Digest {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

struct RunDigests {
  std::uint64_t verdicts = 0;
  std::uint64_t stats = 0;
  std::uint64_t state = 0;
  SpotStats final_stats;
  bool feedback_applied = false;
};

constexpr int kDims = 8;
constexpr int kStreamLen = 2400;
constexpr std::size_t kBatch = 50;
constexpr std::size_t kFeedbackAt = 1200;  // after this many points
/// Batch size meaning "feed each point through Process()".
constexpr std::size_t kPerPoint = 0;

void AddVerdict(const SpotResult& r, Digest* verdicts) {
  verdicts->U64(r.is_outlier ? 1 : 0);
  verdicts->F64(r.score);
  verdicts->U64(r.findings.size());
  for (const SubspaceFinding& f : r.findings) {
    verdicts->U64(f.subspace.bits());
    verdicts->F64(f.pcs.rd);
    verdicts->F64(f.pcs.irsd);
    verdicts->F64(f.pcs.count);
  }
}

/// One eventful run at `num_shards`, fed in batches of `batch` points
/// (kPerPoint: one Process() call per point). `batch` must divide
/// kFeedbackAt so the feedback round lands at the same point.
RunDigests Run(std::size_t num_shards, std::size_t batch = kBatch) {
  stream::SyntheticConfig tcfg;
  tcfg.dimension = kDims;
  tcfg.outlier_probability = 0.0;
  tcfg.concept_seed = 1300;
  tcfg.seed = 1301;
  stream::GaussianStream train_gen(tcfg);
  const auto training = ValuesOf(Take(train_gen, 500));

  stream::DriftConfig dcfg;
  dcfg.base.dimension = kDims;
  dcfg.base.outlier_probability = 0.02;
  dcfg.base.concept_seed = 1300;
  dcfg.base.seed = 1302;
  dcfg.kind = stream::DriftKind::kAbrupt;
  dcfg.period = kStreamLen / 3;
  stream::DriftingStream gen(dcfg);
  const auto stream = Take(gen, kStreamLen);

  SpotConfig cfg = eval::FastTestConfig();
  cfg.os_update_every = 8;
  cfg.evolution_period = 300;
  cfg.drift_detection = true;
  cfg.relearn_on_drift = true;
  cfg.drift_lambda = 8.0;
  cfg.num_shards = num_shards;

  RunDigests out;
  SpotDetector det(cfg);
  EXPECT_TRUE(det.Learn(training));

  Digest verdicts;
  std::vector<DataPoint> chunk;
  const std::size_t step = batch == kPerPoint ? 1 : batch;
  for (std::size_t start = 0; start < stream.size(); start += step) {
    if (batch == kPerPoint) {
      AddVerdict(det.Process(stream[start].point), &verdicts);
    } else {
      chunk.clear();
      for (std::size_t i = start; i < start + step && i < stream.size(); ++i) {
        chunk.push_back(stream[i].point);
      }
      for (const SpotResult& r : det.ProcessBatch(chunk)) {
        AddVerdict(r, &verdicts);
      }
    }
    if (start + step == kFeedbackAt) {
      std::vector<std::uint64_t> ids;
      for (const TopKEntry& e : det.QueryTopK(4)) ids.push_back(e.point_id);
      const std::vector<double> example(kDims, 0.97);
      out.feedback_applied = det.ApplyFeedback(ids, {example});
    }
  }
  out.verdicts = verdicts.value();

  const SpotStats& s = det.stats();
  Digest stats;
  stats.U64(s.points_processed);
  stats.U64(s.outliers_detected);
  stats.U64(s.evolution_rounds);
  stats.U64(s.os_growth_runs);
  stats.U64(s.drifts_detected);
  stats.U64(s.feedback_rounds);
  stats.U64(det.TrackedSubspaces());
  out.stats = stats.value();
  out.final_stats = s;

  std::ostringstream image;
  EXPECT_TRUE(det.SaveState(image));
  Digest state;
  const std::string bytes = image.str();
  state.Bytes(bytes.data(), bytes.size());
  out.state = state.value();
  return out;
}

void ExpectGolden(std::size_t num_shards, std::uint64_t verdicts,
                  std::uint64_t stats, std::uint64_t state,
                  std::size_t batch = kBatch) {
  SCOPED_TRACE(::testing::Message() << "shards=" << num_shards
                                    << " batch=" << batch);
  const RunDigests got = Run(num_shards, batch);
  // The run must cross every learning path the digests are meant to pin.
  EXPECT_TRUE(got.feedback_applied);
  EXPECT_GT(got.final_stats.os_growth_runs, 0u);
  EXPECT_GT(got.final_stats.evolution_rounds, 0u);
  EXPECT_GT(got.final_stats.drifts_detected, 0u);
  EXPECT_EQ(got.final_stats.feedback_rounds, 1u);
  std::printf("shards=%zu batch=%zu verdicts=0x%016llxULL "
              "stats=0x%016llxULL state=0x%016llxULL (outliers %llu, "
              "os growth %llu, evolution %llu, drifts %llu)\n",
              num_shards, batch, static_cast<unsigned long long>(got.verdicts),
              static_cast<unsigned long long>(got.stats),
              static_cast<unsigned long long>(got.state),
              static_cast<unsigned long long>(
                  got.final_stats.outliers_detected),
              static_cast<unsigned long long>(got.final_stats.os_growth_runs),
              static_cast<unsigned long long>(
                  got.final_stats.evolution_rounds),
              static_cast<unsigned long long>(
                  got.final_stats.drifts_detected));
  EXPECT_EQ(got.verdicts, verdicts);
  EXPECT_EQ(got.stats, stats);
  EXPECT_EQ(got.state, state);
}

TEST(GoldenDigestTest, EventfulRunOneShard) {
  ExpectGolden(1, 0x7a1932644f8501cfULL, 0x9b492604e5bf66b3ULL,
               0xe1f7df51e799f9ddULL);
}

TEST(GoldenDigestTest, EventfulRunFourShards) {
  // Verdicts and stats match the one-shard run; the image differs only in
  // the checkpointed shard count.
  ExpectGolden(4, 0x7a1932644f8501cfULL, 0x9b492604e5bf66b3ULL,
               0xdb0521e33fb179d4ULL);
}

// The same run fed one point at a time through Process(): per-point calls
// are not batches, so the image records no batch at all.
TEST(GoldenDigestTest, EventfulRunPerPointProcess) {
  ExpectGolden(1, 0x7a1932644f8501cfULL, 0x9b492604e5bf66b3ULL,
               0x16dd486fc3e22b4dULL, kPerPoint);
}

// Batch sizes that divide the feedback point: a one-point batch, a batch
// far smaller than the 50-point default and one far larger (a batch that
// crosses several OS-growth, evolution and drift events).
TEST(GoldenDigestTest, EventfulRunAcrossBatchSizes) {
  ExpectGolden(1, 0x7a1932644f8501cfULL, 0x9b492604e5bf66b3ULL,
               0xe4b868ae9e054a30ULL, 1);
  ExpectGolden(1, 0x7a1932644f8501cfULL, 0x9b492604e5bf66b3ULL,
               0x5b69ff576ded9aacULL, 8);
  ExpectGolden(4, 0x7a1932644f8501cfULL, 0x9b492604e5bf66b3ULL,
               0xb65330f1b289911eULL, 240);
}

}  // namespace
}  // namespace spot
