#ifndef SPOT_ENGINE_SHARDED_ENGINE_H_
#define SPOT_ENGINE_SHARDED_ENGINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "engine/thread_pool.h"
#include "grid/synapse_shard.h"

namespace spot {

/// The detection stage of a SpotDetector: every batch, and every single
/// point as a batch of one, runs through this engine.
///
/// The engine views the tracked SST subspaces as dense columns, slices them
/// round-robin into `num_shards` disjoint shards, each run by one worker of
/// a reusable fork-join pool (K = 1 runs inline without one), and processes
/// a batch in three phases:
///
///   0. Coordinator: bin every point's base-cell coordinates once, fold it
///      into the (single-owner) base grid, and snapshot the decayed total
///      weight after each fold — the authoritative per-point W.
///   1. Fan-out: every shard folds the whole batch into its own grids in
///      arrival order, recording per-(subspace, point) PCS and fringe
///      verdicts in the columns' lanes. A grid's state depends only on its
///      own input sequence, so this is the same as interleaving the points
///      one at a time.
///   2. Serial join, in arrival order: assemble each point's verdict from
///      the lanes in the manager's dense tracked order, then run the
///      side-effect machinery (reservoir, OS growth, CS self-evolution,
///      drift detection) point by point. When a side effect changes the
///      tracked set mid-batch, the columns resync and the newly tracked
///      grids replay the remaining batch tail (they start empty at the
///      event point, exactly like point-at-a-time processing); verdicts
///      past the event are assembled from the new tracked order.
///
/// Verdicts (labels, findings, scores) and side-effect counters are
/// bit-identical at every shard count and batch size (DESIGN.md
/// Section 3.6).
///
/// Lane storage lives for one call: it sits in a per-thread BatchFrame
/// that the next call on the same thread reuses, so a detector holds no
/// per-point buffers between batches, and a batch whose tracked set is
/// unchanged since the last one allocates nothing per column.
class ShardedSpotEngine {
 public:
  /// Borrows `detector` and `pool`, both of which must outlive the engine.
  /// `num_shards` >= 1. The engine never owns its pool: the detector owns
  /// one lazily for standalone use, and the SpotService shares one pool
  /// across every session's engine (the pool's worker count is independent
  /// of K — Dispatch hands shard jobs to whoever is free, the calling
  /// thread included). `pool` is unused (may be null) when num_shards == 1.
  ShardedSpotEngine(SpotDetector* detector, std::size_t num_shards,
                    ThreadPool* pool);
  ~ShardedSpotEngine();

  ShardedSpotEngine(const ShardedSpotEngine&) = delete;
  ShardedSpotEngine& operator=(const ShardedSpotEngine&) = delete;

  std::size_t num_shards() const { return num_shards_; }
  ThreadPool* pool() const { return pool_; }

  /// Processes `points` in arrival order; one verdict per point. The
  /// detector must be learned. (SpotDetector::ProcessBatch wraps this and
  /// also maintains the timing stats.)
  std::vector<SpotResult> ProcessBatch(const std::vector<DataPoint>& points);

  /// Raw value vectors, processed in place; point j's id is the tick it is
  /// folded at.
  std::vector<SpotResult> ProcessBatch(
      const std::vector<std::vector<double>>& batch);

  /// One point with id `id`: a batch of one.
  SpotResult Process(const std::vector<double>& values, std::uint64_t id);

 private:
  /// Runs the staged frame (points, ids and n set) through all three
  /// phases.
  std::vector<SpotResult> Run(BatchFrame* frame);

  /// Rebuilds the dense columns against the manager's tracked set, lane i
  /// for column i.
  void Resync();

  /// Mid-batch resync after the tracked set changed: surviving grids keep
  /// their lanes; grids tracked since the last sync get fresh lanes from
  /// `*next_lane` and their dense positions are appended to `fresh`.
  void ResyncMidBatch(std::size_t* next_lane, std::vector<std::size_t>* fresh);

  SpotDetector* detector_;
  std::size_t num_shards_;
  ThreadPool* pool_;  // borrowed; null when num_shards_ == 1

  std::vector<ShardColumn> columns_;  // manager dense order
  bool synced_ = false;
  std::uint64_t synced_revision_ = 0;  // manager revision columns_ reflect
  /// (serial, lane) of the columns before a mid-batch resync, sorted.
  std::vector<std::pair<std::uint64_t, std::size_t>> lanes_by_serial_;
  std::vector<std::size_t> fresh_;
};

}  // namespace spot

#endif  // SPOT_ENGINE_SHARDED_ENGINE_H_
