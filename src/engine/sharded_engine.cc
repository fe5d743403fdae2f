#include "engine/sharded_engine.h"

#include <algorithm>

#include "common/math_util.h"
#include "common/timer.h"
#include "grid/synapse_manager.h"
#include "obs/perf_counters.h"

namespace spot {

namespace {

/// The calling thread's batch frame. A call stages it, runs, and leaves it
/// for the next call on this thread; shard jobs on other threads reach it
/// only through the pointer the coordinator hands them.
BatchFrame& ThreadFrame() {
  thread_local BatchFrame frame;
  return frame;
}

}  // namespace

ShardedSpotEngine::ShardedSpotEngine(SpotDetector* detector,
                                     std::size_t num_shards, ThreadPool* pool)
    : detector_(detector),
      num_shards_(num_shards == 0 ? 1 : num_shards),
      pool_(num_shards_ > 1 ? pool : nullptr) {}

ShardedSpotEngine::~ShardedSpotEngine() = default;

std::vector<SpotResult> ShardedSpotEngine::ProcessBatch(
    const std::vector<DataPoint>& points) {
  BatchFrame& frame = ThreadFrame();
  frame.Stage(points.size());
  for (std::size_t j = 0; j < points.size(); ++j) {
    frame.values[j] = &points[j].values;
    frame.ids[j] = points[j].id;
  }
  return Run(&frame);
}

std::vector<SpotResult> ShardedSpotEngine::ProcessBatch(
    const std::vector<std::vector<double>>& batch) {
  BatchFrame& frame = ThreadFrame();
  frame.Stage(batch.size());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    frame.values[j] = &batch[j];
    frame.ids[j] = detector_->tick_ + j;
  }
  return Run(&frame);
}

SpotResult ShardedSpotEngine::Process(const std::vector<double>& values,
                                      std::uint64_t id) {
  BatchFrame& frame = ThreadFrame();
  frame.Stage(1);
  frame.values[0] = &values;
  frame.ids[0] = id;
  return std::move(Run(&frame).front());
}

void ShardedSpotEngine::Resync() {
  SynapseManager& synapses = *detector_->synapses_;
  const std::size_t tracked = synapses.NumTracked();
  columns_.resize(tracked);
  for (std::size_t i = 0; i < tracked; ++i) {
    columns_[i] = {synapses.SubspaceAt(i), synapses.GridAt(i),
                   synapses.SerialAt(i), i};
  }
  synced_ = true;
  synced_revision_ = synapses.revision();
}

void ShardedSpotEngine::ResyncMidBatch(std::size_t* next_lane,
                                       std::vector<std::size_t>* fresh) {
  SynapseManager& synapses = *detector_->synapses_;
  lanes_by_serial_.clear();
  for (const ShardColumn& column : columns_) {
    lanes_by_serial_.emplace_back(column.serial, column.lane);
  }
  std::sort(lanes_by_serial_.begin(), lanes_by_serial_.end());
  const std::size_t tracked = synapses.NumTracked();
  columns_.resize(tracked);
  for (std::size_t i = 0; i < tracked; ++i) {
    const std::uint64_t serial = synapses.SerialAt(i);
    std::size_t lane;
    if (serial > synced_revision_) {
      // Tracked (or untracked and re-tracked) since the last sync: every
      // Track() takes a serial above all earlier revisions, so the grid is
      // fresh and empty and replays the batch tail into a new lane.
      lane = (*next_lane)++;
      fresh->push_back(i);
    } else {
      // Tracked at the last sync and never untracked since (untracking
      // destroys the grid), so it has a column and keeps its lane.
      lane = std::lower_bound(lanes_by_serial_.begin(),
                              lanes_by_serial_.end(),
                              std::make_pair(serial, std::size_t{0}))
                 ->second;
    }
    columns_[i] = {synapses.SubspaceAt(i), synapses.GridAt(i), serial, lane};
  }
  synced_revision_ = synapses.revision();
}

std::vector<SpotResult> ShardedSpotEngine::Run(BatchFrame* frame) {
  SpotDetector& detector = *detector_;
  std::vector<SpotResult> results;
  const std::size_t n = frame->n;
  if (n == 0) return results;
  results.reserve(n);

  SynapseManager& synapses = *detector.synapses_;
  const SpotConfig& config = detector.config_;
  const ShardRunParams params{config.rd_threshold, config.irsd_threshold,
                              config.fringe_factor};
  // Counter attribution (DESIGN.md Section 12): per-batch overwrite,
  // mirroring shard_spans_ — the service harvests the deltas right after
  // ProcessBatch returns. Pure measurement on the side: the measured code
  // is untouched, so verdicts stay bit-identical with profiling on.
  const bool perf = detector.collect_perf_counters_;
  if (perf) {
    detector.bin_perf_ = obs::PerfStageTotals{};
    detector.shard_perf_.assign(num_shards_, obs::PerfStageTotals{});
  }

  // Phase 0 — coordinator: bin each point once, fold it into the
  // single-owner base grid, and snapshot the per-point total weight. The
  // base grid never depends on the tracked set, so it can run ahead of the
  // join; every weight is exactly the W a point-at-a-time run would read.
  // Binning the whole batch first lets the fold loop prefetch point j+1's
  // base-cell bucket while folding point j (DESIGN.md Section 3.9).
  {
    obs::ScopedCounters bin_perf(perf ? obs::ThreadPerfGroup() : nullptr,
                                 &detector.bin_perf_);
    bin_perf.set_units(n);
    for (std::size_t j = 0; j < n; ++j) {
      frame->ticks[j] = detector.tick_++;
      synapses.BinBase(*frame->values[j], &frame->base_coords[j]);
    }
    const BaseGrid& base = synapses.base_grid();
    std::uint64_t hash = base.PrefetchCoords(frame->base_coords[0]);
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t next_hash =
          j + 1 < n ? base.PrefetchCoords(frame->base_coords[j + 1]) : 0;
      frame->total_weights[j] =
          synapses.AddBase(frame->base_coords[j], hash, *frame->values[j],
                           frame->ticks[j]);
      hash = next_hash;
    }
  }

  // Phase 1 — fan the per-subspace work out to the shards. The columns are
  // rebuilt only when the tracked set moved since they were last synced;
  // otherwise column i keeps lane i. When the flight recorder asks for
  // shard timings, each worker clocks its own span into a distinct slot
  // (no contention; Dispatch joins before anyone reads them). The tail
  // replays below are deliberately untimed: they are rare correction work,
  // not the steady-state probe cost.
  if (!synced_ || synapses.revision() != synced_revision_) {
    Resync();
  } else {
    for (std::size_t i = 0; i < columns_.size(); ++i) columns_[i].lane = i;
  }
  std::size_t next_lane = columns_.size();
  frame->ReserveLanes(next_lane);
  const bool timed = detector.collect_shard_timings_;
  if (timed) detector.shard_spans_.assign(num_shards_, ShardSpan{});
  const auto run_shard = [&](std::size_t k) {
    const std::uint64_t t0 = timed ? SteadyMicrosSinceStart() : 0;
    {
      // Each worker thread measures with its own group into its own
      // slot — no contention; Dispatch joins before anyone reads them.
      obs::ScopedCounters probe_perf(
          perf ? obs::ThreadPerfGroup() : nullptr,
          perf ? &detector.shard_perf_[k] : nullptr);
      probe_perf.set_units(
          n * SynapseShard::NumGrids(columns_.size(), k, num_shards_));
      SynapseShard::ProcessRun(columns_, k, num_shards_, frame, 0, n, params);
    }
    if (timed) {
      detector.shard_spans_[k] = {t0, SteadyMicrosSinceStart() - t0};
    }
  };
  if (pool_ != nullptr) {
    pool_->Dispatch(num_shards_, run_shard);
  } else {
    run_shard(0);
  }

  // Phase 2 — serial join in arrival order, with the side-effect machinery
  // (reservoir, OS growth, self-evolution, drift) running point by point.
  for (std::size_t j = 0; j < n; ++j) {
    const std::vector<double>& values = *frame->values[j];
    detector.AddToReservoir(values);
    SpotResult result;
    double min_rd = 1.0;
    for (const ShardColumn& column : columns_) {
      const std::size_t at = column.lane * n + j;
      const Pcs& pcs = frame->pcs[at];
      min_rd = std::min(min_rd, pcs.rd);
      if (pcs.IsSparse(config.rd_threshold, config.irsd_threshold) &&
          frame->vetoed[at] == 0) {
        result.findings.push_back({column.subspace, pcs});
      }
    }
    result.is_outlier = !result.findings.empty();
    result.score = Clamp(1.0 - min_rd, 0.0, 1.0);

    detector.ApplyPointSideEffects(frame->ids[j], frame->ticks[j], values,
                                   result);

    if (synapses.revision() != synced_revision_) {
      // The tracked set changed (OS growth, self-evolution or drift
      // relearning): resync the columns and replay the batch tail into the
      // newly tracked grids — they start empty at this event point, exactly
      // as point-at-a-time processing would leave them.
      fresh_.clear();
      ResyncMidBatch(&next_lane, &fresh_);
      frame->ReserveLanes(next_lane);
      const std::size_t begin = j + 1;
      if (begin < n && !fresh_.empty()) {
        const auto replay = [&](std::size_t f) {
          ColumnProbe probe;
          const ShardColumn& column = columns_[fresh_[f]];
          SynapseShard::Stage(column, *frame, begin, &probe);
          SynapseShard::ProcessColumn(column, frame, begin, n, params, &probe);
        };
        if (pool_ != nullptr) {
          pool_->Dispatch(fresh_.size(), replay);
        } else {
          for (std::size_t f = 0; f < fresh_.size(); ++f) replay(f);
        }
      }
    }
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace spot
