#ifndef SPOT_MOGA_OBJECTIVES_H_
#define SPOT_MOGA_OBJECTIVES_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "grid/flat_index.h"
#include "grid/partition.h"
#include "subspace/subspace.h"

namespace spot {

/// A vector of objective values, all to be *minimized*.
struct ObjectiveVector {
  std::vector<double> values;
};

/// Pareto dominance: `a` dominates `b` iff a is no worse in every objective
/// and strictly better in at least one (minimization).
bool Dominates(const ObjectiveVector& a, const ObjectiveVector& b);

/// Interface the genetic search optimizes against. SPOT uses "multiple
/// measurements" of outlier-ness (paper, Section III): implementations
/// return one value per criterion.
class SubspaceObjectives {
 public:
  virtual ~SubspaceObjectives() = default;

  /// Objective values of candidate subspace `s` (lower = sparser = better).
  virtual ObjectiveVector Evaluate(const Subspace& s) = 0;

  virtual int num_objectives() const = 0;

  /// Scalarized sparsity score used for ranking SST members
  /// (RD-mean + IRSD-mean; dimension excluded). Lower is sparser.
  virtual double SparsityScore(const Subspace& s) = 0;

  /// Appends every subspace this object has evaluated so far, with its
  /// sparsity score — the search archive. Implementations without a memo
  /// table may leave this empty; MogaSearch then ranks only the final
  /// population.
  virtual void AppendEvaluated(std::vector<std::pair<Subspace, double>>* out) {
    (void)out;
  }
};

/// Sparsity objectives of a candidate subspace measured over a static batch
/// of points (the learning stage's training data, or the detection stage's
/// reservoir sample during self-evolution and OS growth).
///
/// Objectives, all minimized:
///   f1 = mean over target points of RD of the point's projected cell
///   f2 = mean over target points of IRSD of the point's projected cell
///   f3 = |s| (prefer low-dimensional, interpretable outlying subspaces)
///
/// RD / IRSD use the same definitions as the online PCS (DESIGN.md 3.3),
/// computed over an un-decayed histogram of the batch. Evaluations are
/// memoized: MOGA revisits subspaces freely at no extra cost.
///
/// The batch is binned ONCE, at construction, into column-major interval
/// indices beside a column-major copy of the values; an evaluation then
/// projects each row by index selection, maps its projected cell to a dense
/// slot and aggregates count / LS / SS into a reused structure-of-arrays
/// slab (DESIGN.md Section 2.1 has the layout and the bit-identity argument).
class BatchSparsityObjectives : public SubspaceObjectives {
 public:
  /// `targets` restricts the points whose sparsity is averaged (empty = all
  /// points); the histogram is always built from the whole batch. The batch
  /// is binned and copied here: neither `partition` nor `data` is read
  /// after the constructor returns.
  BatchSparsityObjectives(const Partition* partition,
                          const std::vector<std::vector<double>>* data,
                          std::vector<std::size_t> targets = {});

  /// The batch `sample` plus one extra row `target_row` (row index
  /// sample.size()), which is the only target: a targeted search for one
  /// point against a sample, without copying the sample first.
  BatchSparsityObjectives(const Partition* partition,
                          const std::vector<std::vector<double>>& sample,
                          const std::vector<double>& target_row);

  /// Starts a new search over the same binned batch: replaces the target set
  /// (empty = all points) and empties the memo table, so AppendEvaluated
  /// reports only what the new search evaluates.
  void Retarget(std::vector<std::size_t> targets);

  ObjectiveVector Evaluate(const Subspace& s) override;
  int num_objectives() const override { return 3; }
  double SparsityScore(const Subspace& s) override;
  void AppendEvaluated(
      std::vector<std::pair<Subspace, double>>* out) override;

  /// Number of objective vectors computed so far (memoization hits do not
  /// count). Reported by the MOGA-vs-exhaustive experiment.
  std::size_t evaluation_count() const { return eval_count_; }

  /// Largest cells_per_dim^|s| whose cells are keyed by a mixed-radix index
  /// into a dense slot table; larger projected grids go through a FlatIndex.
  static constexpr std::size_t kMaxDenseKeys = std::size_t{1} << 16;

 private:
  /// Sizes the column slabs for `num_rows` rows of `partition`'s attributes.
  BatchSparsityObjectives(std::size_t num_rows, const Partition& partition);
  void BinRow(const Partition& partition, std::size_t r,
              const std::vector<double>& row);
  const ObjectiveVector& EvaluateCached(const Subspace& s);
  /// Fills row_slot_ with each row's dense cell slot in subspace `dims` and
  /// returns the number of distinct cells.
  std::size_t AssignSlots(const std::vector<int>& dims);

  std::size_t num_rows_ = 0;
  std::size_t num_dims_ = 0;
  std::uint32_t cells_per_dim_ = 1;
  std::vector<std::uint32_t> bins_;  // [dim * num_rows_ + row]
  std::vector<double> values_;       // [dim * num_rows_ + row]
  std::vector<double> su_;           // uniform-spread sigma per dim
  std::vector<std::size_t> targets_;

  // Per-evaluation scratch, reused across evaluations.
  std::vector<std::uint32_t> row_slot_;   // cell slot of each row
  std::vector<std::uint32_t> row_key_;    // mixed-radix cell key of each row
  std::vector<std::uint32_t> key_slot_;   // dense path: key -> slot
  std::vector<std::uint32_t> used_keys_;  // keys to reset after the pass
  std::optional<FlatIndex> cell_index_;   // fallback path: coords -> slot
  std::vector<std::uint32_t> coords_;     // fallback path: one row's key
  std::vector<std::uint32_t> count_;      // [slot]
  // Aggregated cells: the target cells whose IRSD is needed.
  std::vector<std::uint32_t> agg_of_slot_;  // [slot] -> agg or kNoSlot
  std::vector<std::uint32_t> agg_slot_;     // [agg] -> slot
  std::vector<std::uint32_t> agg_rows_;     // rows in aggregated cells
  std::vector<std::uint32_t> agg_index_;    // their agg, row order
  std::vector<double> ls_;                  // [i * aggs + agg]
  std::vector<double> ss_;                  // [i * aggs + agg]
  std::vector<double> irsd_;                // [agg]

  std::unordered_map<Subspace, ObjectiveVector, SubspaceHash> cache_;
  std::size_t eval_count_ = 0;
};

}  // namespace spot

#endif  // SPOT_MOGA_OBJECTIVES_H_
