#include "grid/synapse_shard.h"

#include <utility>

namespace spot {

void BatchFrame::Stage(std::size_t points) {
  n = points;
  if (values.size() < n) {
    values.resize(n);
    ids.resize(n);
    base_coords.resize(n);
    ticks.resize(n);
    total_weights.resize(n);
  }
}

void BatchFrame::ReserveLanes(std::size_t lanes) {
  if (pcs.size() < lanes * n) {
    pcs.resize(lanes * n);
    vetoed.resize(lanes * n);
  }
}

void SynapseShard::ProcessRun(const std::vector<ShardColumn>& columns,
                              std::size_t shard, std::size_t num_shards,
                              BatchFrame* frame, std::size_t begin,
                              std::size_t end, const ShardRunParams& params) {
  if (begin >= end) return;
  // One probe slot per owned column, per thread: a slot keeps its column's
  // coordinate width from batch to batch, so staging never reallocates,
  // and no two threads ever write the same cache line.
  thread_local std::vector<ColumnProbe> probes;
  const std::size_t owned = NumGrids(columns.size(), shard, num_shards);
  if (probes.size() < owned) probes.resize(owned);
  for (std::size_t i = shard, m = 0; i < columns.size();
       i += num_shards, ++m) {
    Stage(columns[i], *frame, begin, &probes[m]);
  }
  for (std::size_t i = shard, m = 0; i < columns.size();
       i += num_shards, ++m) {
    ProcessColumn(columns[i], frame, begin, end, params, &probes[m]);
  }
}

void SynapseShard::ProcessColumn(const ShardColumn& column, BatchFrame* frame,
                                 std::size_t begin, std::size_t end,
                                 const ShardRunParams& params,
                                 ColumnProbe* probe) {
  ProjectedGrid& grid = *column.grid;
  Pcs* pcs_lane = frame->pcs.data() + column.lane * frame->n;
  unsigned char* veto_lane = frame->vetoed.data() + column.lane * frame->n;

  // Software-pipelined batch probe: while point j's fused update+query
  // executes, point j+1's projected coordinates are already hashed and its
  // index bucket prefetched — consecutive probes against the same grid
  // overlap their cache misses instead of serializing (the prefetched
  // address can go stale across a rehash; that only costs the hint).
  CellCoords* cur = &probe->cur;
  CellCoords* next = &probe->next;
  std::uint64_t cur_hash = probe->cur_hash;
  for (std::size_t j = begin; j < end; ++j) {
    std::uint64_t next_hash = 0;
    if (j + 1 < end) {
      grid.ProjectBaseInto(frame->base_coords[j + 1], next);
      next_hash = grid.PrefetchCoords(*next);
    }
    const Pcs pcs = grid.AddAndQueryCoords(*cur, cur_hash, *frame->values[j],
                                           frame->ticks[j],
                                           frame->total_weights[j]);
    pcs_lane[j] = pcs;
    // Veto sparse cells that are merely the fringe of an adjacent dense
    // cluster (statistical tails revisit such cells forever; genuinely
    // projected outliers sit in isolated cells). The neighborhood is probed
    // only for sparse cells, against the grid state with points <= j
    // folded in (the next point is not added until this verdict is
    // recorded).
    bool veto = false;
    if (params.fringe_factor > 0.0 &&
        pcs.IsSparse(params.rd_threshold, params.irsd_threshold)) {
      veto = grid.IsClusterFringe(*cur, pcs.count, params.fringe_factor);
    }
    veto_lane[j] = veto ? 1 : 0;
    std::swap(cur, next);
    cur_hash = next_hash;
  }
}

}  // namespace spot
