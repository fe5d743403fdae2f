#ifndef SPOT_GRID_SYNAPSE_SHARD_H_
#define SPOT_GRID_SYNAPSE_SHARD_H_

#include <cstdint>
#include <vector>

#include "grid/partition.h"
#include "grid/pcs.h"
#include "grid/projected_grid.h"
#include "subspace/subspace.h"

namespace spot {

/// Everything one batch run reads and writes outside the grids: the points'
/// values and ids, their base-cell coordinates (binned once by the
/// coordinator), their ticks, the decayed total stream weight right after
/// each point's base-grid fold — the authoritative W that every subspace
/// query for that point uses — and the output lanes.
///
/// A frame's contents live for one batch; its storage is reused by the
/// next batch on the same thread (every vector only grows, so a steady
/// stream allocates nothing). Shard workers read it and write disjoint lane
/// slots; only the coordinating thread resizes it, never while workers run.
struct BatchFrame {
  std::size_t n = 0;  // points in the batch; every per-point vector has >= n
  std::vector<const std::vector<double>*> values;
  std::vector<std::uint64_t> ids;
  std::vector<CellCoords> base_coords;
  std::vector<std::uint64_t> ticks;
  std::vector<double> total_weights;

  /// Output lanes, n slots each and addressed by lane offset: lane l holds
  /// point j's PCS at pcs[l * n + j] and its fringe veto at vetoed[l * n + j].
  std::vector<Pcs> pcs;
  std::vector<unsigned char> vetoed;

  /// Makes room for `points` points (grow-only) and sets n.
  void Stage(std::size_t points);
  /// Makes room for `lanes` lanes of n slots, keeping existing lanes.
  void ReserveLanes(std::size_t lanes);
};

/// One tracked subspace as the engine sees it during a batch: its grid and
/// the frame lane its verdicts go to. Exactly one shard worker writes a
/// column's lane; the coordinating thread reads it only after the workers
/// have been joined.
struct ShardColumn {
  Subspace subspace;
  ProjectedGrid* grid = nullptr;  // borrowed from SynapseManager
  std::uint64_t serial = 0;       // SynapseManager::SerialAt of `grid`
  std::size_t lane = 0;           // lane offset in the batch frame
};

/// Probe scratch of one column run: the projected coordinates and hash of
/// the point about to be probed, and the buffer the next point is
/// projected into while it is.
struct ColumnProbe {
  CellCoords cur;
  CellCoords next;
  std::uint64_t cur_hash = 0;
};

/// Detection thresholds a shard run needs to decide, per (point, subspace),
/// whether the fringe neighborhood must be probed.
struct ShardRunParams {
  double rd_threshold = 0.0;
  double irsd_threshold = 0.0;
  double fringe_factor = 0.0;
};

/// The per-subspace work of a batch: shard k of K owns the columns at
/// dense positions k, k + K, k + 2K, ... of the SynapseManager's tracked
/// order and folds the batch into their grids.
///
/// Columns borrow ProjectedGrid pointers from the manager, so there is one
/// copy of the synapses whatever the shard count.
///
/// Determinism: a ProjectedGrid's state depends only on its own input
/// sequence (coordinates, ticks, per-point total weights), never on sibling
/// grids. Each grid is updated by exactly one shard, in arrival order, with
/// the ticks and weights of the frame — so every cell aggregate, compaction
/// sweep, PCS and fringe verdict is the same at every shard count.
class SynapseShard {
 public:
  /// Folds points [begin, end) into every column shard `shard` of
  /// `num_shards` owns. Every owned grid's first probe is staged before any
  /// probe executes, so those cache misses overlap instead of serializing —
  /// for a batch of one there is no later point to pipeline against.
  static void ProcessRun(const std::vector<ShardColumn>& columns,
                         std::size_t shard, std::size_t num_shards,
                         BatchFrame* frame, std::size_t begin, std::size_t end,
                         const ShardRunParams& params);

  /// Columns shard `shard` of `num_shards` owns out of `num_columns`.
  static std::size_t NumGrids(std::size_t num_columns, std::size_t shard,
                              std::size_t num_shards) {
    return shard < num_columns
               ? (num_columns - shard + num_shards - 1) / num_shards
               : 0;
  }

  /// Projects point `begin` into `column`'s subspace, hashes it and
  /// prefetches its index bucket: the first probe of a column run.
  static void Stage(const ShardColumn& column, const BatchFrame& frame,
                    std::size_t begin, ColumnProbe* probe) {
    column.grid->ProjectBaseInto(frame.base_coords[begin], &probe->cur);
    probe->cur_hash = column.grid->PrefetchCoords(probe->cur);
  }

  /// Folds points [begin, end) of the frame into `column`'s grid in arrival
  /// order, recording each point's PCS and fringe veto in the column's
  /// lane. `probe` must be staged at `begin`. The engine also calls this to
  /// replay batch tails into grids tracked mid-batch.
  static void ProcessColumn(const ShardColumn& column, BatchFrame* frame,
                            std::size_t begin, std::size_t end,
                            const ShardRunParams& params, ColumnProbe* probe);
};

}  // namespace spot

#endif  // SPOT_GRID_SYNAPSE_SHARD_H_
