#include "moga/objectives.h"

#include <cmath>

#include "grid/pcs.h"

namespace spot {

bool Dominates(const ObjectiveVector& a, const ObjectiveVector& b) {
  bool strictly_better = false;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    if (a.values[i] > b.values[i]) return false;
    if (a.values[i] < b.values[i]) strictly_better = true;
  }
  return strictly_better;
}

namespace {
constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
}  // namespace

BatchSparsityObjectives::BatchSparsityObjectives(std::size_t num_rows,
                                                 const Partition& partition)
    : num_rows_(num_rows),
      num_dims_(static_cast<std::size_t>(partition.num_dims())),
      cells_per_dim_(static_cast<std::uint32_t>(partition.cells_per_dim())),
      bins_(num_rows_ * num_dims_),
      values_(num_rows_ * num_dims_),
      su_(num_dims_) {
  for (std::size_t d = 0; d < num_dims_; ++d) {
    su_[d] = partition.CellWidth(static_cast<int>(d)) / std::sqrt(12.0);
  }
}

BatchSparsityObjectives::BatchSparsityObjectives(
    const Partition* partition, const std::vector<std::vector<double>>* data,
    std::vector<std::size_t> targets)
    : BatchSparsityObjectives(data->size(), *partition) {
  for (std::size_t r = 0; r < num_rows_; ++r) {
    BinRow(*partition, r, (*data)[r]);
  }
  Retarget(std::move(targets));
}

BatchSparsityObjectives::BatchSparsityObjectives(
    const Partition* partition, const std::vector<std::vector<double>>& sample,
    const std::vector<double>& target_row)
    : BatchSparsityObjectives(sample.size() + 1, *partition) {
  for (std::size_t r = 0; r < sample.size(); ++r) {
    BinRow(*partition, r, sample[r]);
  }
  BinRow(*partition, sample.size(), target_row);
  Retarget({sample.size()});
}

void BatchSparsityObjectives::BinRow(const Partition& partition,
                                     std::size_t r,
                                     const std::vector<double>& row) {
  for (std::size_t d = 0; d < num_dims_; ++d) {
    values_[d * num_rows_ + r] = row[d];
    bins_[d * num_rows_ + r] =
        partition.IntervalIndex(static_cast<int>(d), row[d]);
  }
}

void BatchSparsityObjectives::Retarget(std::vector<std::size_t> targets) {
  targets_ = std::move(targets);
  if (targets_.empty()) {
    targets_.resize(num_rows_);
    for (std::size_t i = 0; i < targets_.size(); ++i) targets_[i] = i;
  }
  cache_.clear();
}

std::size_t BatchSparsityObjectives::AssignSlots(const std::vector<int>& dims) {
  const std::size_t n = num_rows_;
  row_slot_.resize(n);
  std::size_t keys = 1;
  for (std::size_t i = 0; i < dims.size() && keys <= kMaxDenseKeys; ++i) {
    keys *= cells_per_dim_;
  }
  std::uint32_t cells = 0;

  if (keys <= kMaxDenseKeys) {
    // Mixed-radix key of the projected cell, one attribute column at a time.
    row_key_.assign(n, 0);
    std::uint32_t stride = 1;
    for (int d : dims) {
      const std::uint32_t* col = bins_.data() + static_cast<std::size_t>(d) * n;
      for (std::size_t r = 0; r < n; ++r) row_key_[r] += col[r] * stride;
      stride *= cells_per_dim_;
    }
    if (key_slot_.size() < keys) key_slot_.resize(keys, kNoSlot);
    for (std::size_t r = 0; r < n; ++r) {
      std::uint32_t& slot = key_slot_[row_key_[r]];
      if (slot == kNoSlot) {
        slot = cells++;
        used_keys_.push_back(row_key_[r]);
      }
      row_slot_[r] = slot;
    }
    for (std::uint32_t key : used_keys_) key_slot_[key] = kNoSlot;
    used_keys_.clear();
    return cells;
  }

  // Projected grid too large for a dense table: key the coordinates.
  const std::size_t width = dims.size();
  if (!cell_index_ || cell_index_->key_width() != width) {
    cell_index_.emplace(width, n);
  }
  coords_.resize(width);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < width; ++i) {
      coords_[i] = bins_[static_cast<std::size_t>(dims[i]) * n + r];
    }
    const auto [slot, inserted] = cell_index_->Insert(
        coords_.data(), FlatIndex::Hash(coords_.data(), width), cells);
    if (inserted) ++cells;
    row_slot_[r] = slot;
  }
  cell_index_->Clear();
  return cells;
}

const ObjectiveVector& BatchSparsityObjectives::EvaluateCached(
    const Subspace& s) {
  auto it = cache_.find(s);
  if (it != cache_.end()) return it->second;
  ++eval_count_;

  // Pass 1: histogram of the whole batch in subspace s. Every cell's LS / SS
  // accumulate in row order, the order the online PCS would see them.
  const std::vector<int> dims = s.Indices();
  const std::size_t n = num_rows_;
  const std::size_t cells = AssignSlots(dims);
  count_.assign(cells, 0);
  for (std::size_t r = 0; r < n; ++r) ++count_[row_slot_[r]];

  // Only cells holding a target with count >= 2 need LS / SS (their IRSD):
  // number them in first-target order and collect their rows, so a
  // single-target search aggregates one cell instead of the whole grid.
  agg_of_slot_.assign(cells, kNoSlot);
  agg_slot_.clear();
  for (std::size_t t : targets_) {
    const std::uint32_t slot = row_slot_[t];
    if (count_[slot] >= 2 && agg_of_slot_[slot] == kNoSlot) {
      agg_of_slot_[slot] = static_cast<std::uint32_t>(agg_slot_.size());
      agg_slot_.push_back(slot);
    }
  }
  const std::size_t aggs = agg_slot_.size();
  agg_rows_.clear();
  agg_index_.clear();
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint32_t agg = agg_of_slot_[row_slot_[r]];
    if (agg != kNoSlot) {
      agg_rows_.push_back(static_cast<std::uint32_t>(r));
      agg_index_.push_back(agg);
    }
  }
  ls_.assign(dims.size() * aggs, 0.0);
  ss_.assign(dims.size() * aggs, 0.0);
  for (std::size_t i = 0; i < dims.size(); ++i) {
    const double* col = values_.data() + static_cast<std::size_t>(dims[i]) * n;
    double* ls = ls_.data() + i * aggs;
    double* ss = ss_.data() + i * aggs;
    for (std::size_t k = 0; k < agg_rows_.size(); ++k) {
      const double v = col[agg_rows_[k]];
      ls[agg_index_[k]] += v;
      ss[agg_index_[k]] += v * v;
    }
  }

  // IRSD of each aggregated cell, computed once and shared by all the
  // targets in it. Per cell the capped ratios still sum in attribute order.
  irsd_.assign(aggs, 0.0);
  for (std::size_t i = 0; i < dims.size(); ++i) {
    const double su = su_[static_cast<std::size_t>(dims[i])];
    for (std::size_t a = 0; a < aggs; ++a) {
      const double count = static_cast<double>(count_[agg_slot_[a]]);
      const double mean = ls_[i * aggs + a] / count;
      const double var = ss_[i * aggs + a] / count - mean * mean;
      const double sigma = var > 0.0 ? std::sqrt(var) : 0.0;
      const double ratio = su / (sigma + 0.01 * su);
      irsd_[a] += ratio > Pcs::kIrsdCap ? Pcs::kIrsdCap : ratio;
    }
  }
  for (double& irsd : irsd_) irsd /= static_cast<double>(dims.size());

  // Pass 2: average RD / IRSD over the target points' cells. RD uses the
  // same count-weighted-average reference as the online PCS:
  // RD = count * N / sum(count_i^2). The squared counts are integers, so
  // their sum is exact in any order.
  const double total = static_cast<double>(n);
  double sumsq = 0.0;
  for (std::uint32_t c : count_) {
    sumsq += static_cast<double>(c) * static_cast<double>(c);
  }
  if (sumsq <= 0.0) sumsq = 1.0;
  double rd_sum = 0.0;
  double irsd_sum = 0.0;
  for (std::size_t t : targets_) {
    const std::size_t slot = row_slot_[t];
    const double count = static_cast<double>(count_[slot]);
    rd_sum += count * total / sumsq;
    // count < 2: IRSD contribution is 0 (maximally sparse).
    if (count >= 2.0) irsd_sum += irsd_[agg_of_slot_[slot]];
  }
  const double n_targets = static_cast<double>(targets_.size());

  ObjectiveVector obj;
  obj.values = {rd_sum / n_targets, irsd_sum / n_targets,
                static_cast<double>(s.Dimension())};
  auto [rit, ok] = cache_.emplace(s, std::move(obj));
  return rit->second;
}

ObjectiveVector BatchSparsityObjectives::Evaluate(const Subspace& s) {
  return EvaluateCached(s);
}

double BatchSparsityObjectives::SparsityScore(const Subspace& s) {
  const ObjectiveVector& obj = EvaluateCached(s);
  return obj.values[0] + obj.values[1];
}

void BatchSparsityObjectives::AppendEvaluated(
    std::vector<std::pair<Subspace, double>>* out) {
  out->reserve(out->size() + cache_.size());
  for (const auto& [subspace, obj] : cache_) {
    out->emplace_back(subspace, obj.values[0] + obj.values[1]);
  }
}

}  // namespace spot
