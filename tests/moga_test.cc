// Unit tests of src/moga: dominance, fast non-dominated sort, crowding,
// genetic operators, the NSGA-II loop, and MOGA vs exhaustive search.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "grid/partition.h"
#include "grid/pcs.h"
#include "moga/moga_search.h"
#include "moga/nsga2.h"
#include "moga/objectives.h"
#include "moga/operators.h"
#include "stream/synthetic.h"
#include "subspace/lattice.h"

namespace spot {
namespace {

ObjectiveVector Obj(std::initializer_list<double> v) {
  ObjectiveVector o;
  o.values = v;
  return o;
}

// ---------------------------------------------------------- Dominance ----

TEST(DominanceTest, StrictDominance) {
  EXPECT_TRUE(Dominates(Obj({1.0, 1.0}), Obj({2.0, 2.0})));
  EXPECT_TRUE(Dominates(Obj({1.0, 2.0}), Obj({2.0, 2.0})));
  EXPECT_FALSE(Dominates(Obj({2.0, 2.0}), Obj({1.0, 1.0})));
}

TEST(DominanceTest, IncomparableAndEqual) {
  EXPECT_FALSE(Dominates(Obj({1.0, 3.0}), Obj({3.0, 1.0})));
  EXPECT_FALSE(Dominates(Obj({3.0, 1.0}), Obj({1.0, 3.0})));
  EXPECT_FALSE(Dominates(Obj({2.0, 2.0}), Obj({2.0, 2.0})));
}

// ------------------------------------------------ FastNonDominatedSort ----

TEST(SortTest, TwoFrontsSeparated) {
  const std::vector<ObjectiveVector> objs = {
      Obj({1.0, 4.0}),  // front 0
      Obj({4.0, 1.0}),  // front 0
      Obj({2.0, 2.0}),  // front 0
      Obj({5.0, 5.0}),  // front 1 (dominated by all above)
  };
  std::vector<int> ranks;
  const auto fronts = FastNonDominatedSort(objs, &ranks);
  ASSERT_EQ(fronts.size(), 2u);
  EXPECT_EQ(fronts[0].size(), 3u);
  EXPECT_EQ(fronts[1].size(), 1u);
  EXPECT_EQ(ranks[3], 1);
  EXPECT_EQ(ranks[0], 0);
}

TEST(SortTest, ChainGivesOneFrontPerElement) {
  const std::vector<ObjectiveVector> objs = {
      Obj({1.0, 1.0}), Obj({2.0, 2.0}), Obj({3.0, 3.0})};
  std::vector<int> ranks;
  const auto fronts = FastNonDominatedSort(objs, &ranks);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(ranks, (std::vector<int>{0, 1, 2}));
}

TEST(SortTest, AllIncomparableSingleFront) {
  const std::vector<ObjectiveVector> objs = {
      Obj({1.0, 3.0}), Obj({2.0, 2.0}), Obj({3.0, 1.0})};
  std::vector<int> ranks;
  const auto fronts = FastNonDominatedSort(objs, &ranks);
  ASSERT_EQ(fronts.size(), 1u);
  EXPECT_EQ(fronts[0].size(), 3u);
}

TEST(SortTest, EmptyInput) {
  std::vector<int> ranks;
  const auto fronts = FastNonDominatedSort({}, &ranks);
  EXPECT_EQ(fronts.size(), 1u);
  EXPECT_TRUE(fronts[0].empty());
  EXPECT_TRUE(ranks.empty());
}

TEST(SortTest, RankInvariant_NoMemberDominatedWithinFront) {
  Rng rng(5);
  std::vector<ObjectiveVector> objs;
  for (int i = 0; i < 60; ++i) {
    objs.push_back(Obj({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()}));
  }
  std::vector<int> ranks;
  const auto fronts = FastNonDominatedSort(objs, &ranks);
  for (const auto& front : fronts) {
    for (std::size_t a : front) {
      for (std::size_t b : front) {
        EXPECT_FALSE(Dominates(objs[a], objs[b]));
      }
    }
  }
  // Every front-1+ member is dominated by someone in the previous front.
  for (std::size_t f = 1; f < fronts.size(); ++f) {
    for (std::size_t q : fronts[f]) {
      bool dominated = false;
      for (std::size_t p : fronts[f - 1]) {
        if (Dominates(objs[p], objs[q])) {
          dominated = true;
          break;
        }
      }
      EXPECT_TRUE(dominated);
    }
  }
}

// ----------------------------------------------------------- Crowding ----

TEST(CrowdingTest, BoundariesAreInfinite) {
  const std::vector<ObjectiveVector> objs = {
      Obj({1.0, 4.0}), Obj({2.0, 3.0}), Obj({3.0, 2.0}), Obj({4.0, 1.0})};
  const std::vector<std::size_t> front = {0, 1, 2, 3};
  const auto crowd = CrowdingDistances(objs, front);
  EXPECT_TRUE(std::isinf(crowd[0]));
  EXPECT_TRUE(std::isinf(crowd[3]));
  EXPECT_FALSE(std::isinf(crowd[1]));
  EXPECT_FALSE(std::isinf(crowd[2]));
}

TEST(CrowdingTest, IsolatedPointGetsLargerDistance) {
  // Middle points: one crowded pair, one isolated.
  const std::vector<ObjectiveVector> objs = {
      Obj({0.0, 10.0}), Obj({1.0, 9.0}), Obj({1.1, 8.9}), Obj({5.0, 5.0}),
      Obj({10.0, 0.0})};
  const std::vector<std::size_t> front = {0, 1, 2, 3, 4};
  const auto crowd = CrowdingDistances(objs, front);
  EXPECT_GT(crowd[3], crowd[2]);  // isolated > crowded
}

TEST(CrowdingTest, SmallFrontsAllInfinite) {
  const std::vector<ObjectiveVector> objs = {Obj({1.0}), Obj({2.0})};
  const auto crowd = CrowdingDistances(objs, {0, 1});
  EXPECT_TRUE(std::isinf(crowd[0]));
  EXPECT_TRUE(std::isinf(crowd[1]));
}

// ---------------------------------------------------------- Operators ----

TEST(OperatorsTest, UniformCrossoverBitsComeFromParents) {
  Rng rng(1);
  const Subspace a = Subspace::FromIndices({0, 1, 2});
  const Subspace b = Subspace::FromIndices({4, 5});
  for (int i = 0; i < 50; ++i) {
    const Subspace child = UniformCrossover(a, b, rng);
    // Any set bit of the child is set in a or b.
    EXPECT_EQ(child.bits() & ~(a.bits() | b.bits()), 0u);
  }
}

TEST(OperatorsTest, CrossoverOfIdenticalParentsIsIdentity) {
  Rng rng(2);
  const Subspace a = Subspace::FromIndices({1, 3, 5});
  EXPECT_EQ(UniformCrossover(a, a, rng), a);
  EXPECT_EQ(OnePointCrossover(a, a, 8, rng), a);
}

TEST(OperatorsTest, MutationFlipRateRoughlyRespected) {
  Rng rng(3);
  const int num_dims = 32;
  int flips = 0;
  const int trials = 2000;
  const Subspace s;
  for (int i = 0; i < trials; ++i) {
    flips += BitFlipMutation(s, num_dims, 0.1, rng).Dimension();
  }
  const double rate =
      static_cast<double>(flips) / (static_cast<double>(trials) * num_dims);
  EXPECT_NEAR(rate, 0.1, 0.01);
}

TEST(OperatorsTest, MutationZeroProbIsIdentity) {
  Rng rng(4);
  const Subspace s = Subspace::FromIndices({2, 7});
  EXPECT_EQ(BitFlipMutation(s, 16, 0.0, rng), s);
}

TEST(OperatorsTest, RepairEnforcesBounds) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const Subspace raw(rng.NextUint64());
    const Subspace fixed = Repair(raw, 20, 3, rng);
    EXPECT_GE(fixed.Dimension(), 1);
    EXPECT_LE(fixed.Dimension(), 3);
    EXPECT_EQ(fixed.bits() >> 20, 0u);  // inside the attribute domain
  }
}

TEST(OperatorsTest, RepairOfEmptyAddsOneBit) {
  Rng rng(6);
  const Subspace fixed = Repair(Subspace(), 10, 3, rng);
  EXPECT_EQ(fixed.Dimension(), 1);
}

TEST(OperatorsTest, RepairKeepsValidSubspaceIntact) {
  Rng rng(7);
  const Subspace s = Subspace::FromIndices({2, 5});
  EXPECT_EQ(Repair(s, 10, 3, rng), s);
}

TEST(OperatorsTest, RandomSubspaceWithinBounds) {
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const Subspace s = RandomSubspace(15, 4, rng);
    EXPECT_GE(s.Dimension(), 1);
    EXPECT_LE(s.Dimension(), 4);
  }
}

// -------------------------------------------- BatchSparsityObjectives ----

class ObjectivesFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // 200 clustered points in dims {0,1}; dim 2 uniform noise. A lone point
    // sits far away in dim 0: subspace {0} should score it sparse.
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
      data_.push_back({0.2 + 0.02 * rng.NextGaussian(),
                       0.7 + 0.02 * rng.NextGaussian(), rng.NextDouble()});
    }
    data_.push_back({0.95, 0.7, 0.5});  // projected outlier in {0}
    partition_ = std::make_unique<Partition>(3, 10, 0.0, 1.0);
  }

  std::vector<std::vector<double>> data_;
  std::unique_ptr<Partition> partition_;
};

TEST_F(ObjectivesFixture, OutlierSubspaceScoresSparser) {
  const std::vector<std::size_t> target = {data_.size() - 1};
  BatchSparsityObjectives obj(partition_.get(), &data_, target);
  const double score_outlying = obj.SparsityScore(Subspace::FromIndices({0}));
  const double score_normal = obj.SparsityScore(Subspace::FromIndices({1}));
  EXPECT_LT(score_outlying, score_normal);
}

TEST_F(ObjectivesFixture, ObjectiveVectorLayout) {
  BatchSparsityObjectives obj(partition_.get(), &data_);
  const ObjectiveVector v = obj.Evaluate(Subspace::FromIndices({0, 2}));
  ASSERT_EQ(v.values.size(), 3u);
  EXPECT_DOUBLE_EQ(v.values[2], 2.0);  // f3 = |s|
  EXPECT_GE(v.values[0], 0.0);
  EXPECT_GE(v.values[1], 0.0);
}

TEST_F(ObjectivesFixture, MemoizationCountsDistinctOnly) {
  BatchSparsityObjectives obj(partition_.get(), &data_);
  obj.Evaluate(Subspace::FromIndices({0}));
  obj.Evaluate(Subspace::FromIndices({0}));
  obj.Evaluate(Subspace::FromIndices({1}));
  EXPECT_EQ(obj.evaluation_count(), 2u);
}

TEST_F(ObjectivesFixture, DefaultTargetsAreAllPoints) {
  BatchSparsityObjectives obj(partition_.get(), &data_);
  // Mean RD over all points is well-defined and positive.
  const ObjectiveVector v = obj.Evaluate(Subspace::FromIndices({1}));
  EXPECT_GT(v.values[0], 0.0);
}

// ------------------------------------ objective kernel vs reference ----
//
// The reference below is the kernel's previous implementation, kept verbatim
// as an oracle: it re-bins every row per subspace into heap-allocated
// CellCoords and aggregates in a std::unordered_map. The flat kernel must
// reproduce its objective vectors bit for bit.

ObjectiveVector ReferenceObjectives(
    const Partition& partition, const std::vector<std::vector<double>>& data,
    std::vector<std::size_t> targets, const Subspace& s) {
  if (targets.empty()) {
    targets.resize(data.size());
    for (std::size_t i = 0; i < targets.size(); ++i) targets[i] = i;
  }
  const std::vector<int> dims = s.Indices();
  struct CellAgg {
    double count = 0.0;
    std::vector<double> ls;
    std::vector<double> ss;
  };
  std::unordered_map<CellCoords, CellAgg, CellCoordsHash> hist;
  std::vector<CellCoords> point_cells;
  point_cells.reserve(data.size());
  for (const auto& row : data) {
    CellCoords coords;
    coords.reserve(dims.size());
    for (int d : dims) {
      coords.push_back(
          partition.IntervalIndex(d, row[static_cast<std::size_t>(d)]));
    }
    auto [cit, inserted] = hist.try_emplace(coords);
    CellAgg& cell = cit->second;
    if (inserted) {
      cell.ls.assign(dims.size(), 0.0);
      cell.ss.assign(dims.size(), 0.0);
    }
    cell.count += 1.0;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      const double v = row[static_cast<std::size_t>(dims[i])];
      cell.ls[i] += v;
      cell.ss[i] += v * v;
    }
    point_cells.push_back(std::move(coords));
  }
  const double total = static_cast<double>(data.size());
  double sumsq = 0.0;
  for (const auto& [coords, cell] : hist) sumsq += cell.count * cell.count;
  if (sumsq <= 0.0) sumsq = 1.0;
  double rd_sum = 0.0;
  double irsd_sum = 0.0;
  for (std::size_t t : targets) {
    const CellAgg& cell = hist.at(point_cells[t]);
    rd_sum += cell.count * total / sumsq;
    if (cell.count >= 2.0) {
      double acc = 0.0;
      for (std::size_t i = 0; i < dims.size(); ++i) {
        const double mean = cell.ls[i] / cell.count;
        const double var = cell.ss[i] / cell.count - mean * mean;
        const double sigma = var > 0.0 ? std::sqrt(var) : 0.0;
        const double su = partition.CellWidth(dims[i]) / std::sqrt(12.0);
        const double ratio = su / (sigma + 0.01 * su);
        acc += ratio > Pcs::kIrsdCap ? Pcs::kIrsdCap : ratio;
      }
      irsd_sum += acc / static_cast<double>(dims.size());
    }
  }
  const double n_targets = static_cast<double>(targets.size());
  ObjectiveVector obj;
  obj.values = {rd_sum / n_targets, irsd_sum / n_targets,
                static_cast<double>(s.Dimension())};
  return obj;
}

void ExpectBitIdentical(const ObjectiveVector& got,
                        const ObjectiveVector& want, const Subspace& s) {
  ASSERT_EQ(got.values.size(), want.values.size()) << s.ToString();
  EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                        got.values.size() * sizeof(double)),
            0)
      << s.ToString() << ": got (" << got.values[0] << ", " << got.values[1]
      << ") want (" << want.values[0] << ", " << want.values[1] << ")";
}

/// Clustered 8-dim rows with values outside the [0, 1] domain (clamped into
/// the boundary intervals) and exact duplicate rows.
std::vector<std::vector<double>> KernelBatch(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 300; ++i) {
    const double centre = i % 3 == 0 ? 0.25 : 0.7;
    std::vector<double> row(8);
    for (double& v : row) v = centre + 0.08 * rng.NextGaussian();
    rows.push_back(std::move(row));
  }
  for (int i = 0; i < 12; ++i) {
    std::vector<double> row(8);
    for (double& v : row) v = rng.NextDouble(-0.4, 1.4);
    rows.push_back(std::move(row));
  }
  for (std::size_t i = 0; i < 20; ++i) rows.push_back(rows[7 * i]);
  return rows;
}

Subspace RandomSubspace(Rng& rng, int num_dims, int max_dimension) {
  Subspace s;
  const int dim = 1 + static_cast<int>(rng.NextUint64(
                          static_cast<std::uint64_t>(max_dimension)));
  while (s.Dimension() < dim) {
    s.Add(static_cast<int>(
        rng.NextUint64(static_cast<std::uint64_t>(num_dims))));
  }
  return s;
}

// cells_per_dim 5 keys every subspace up to |s| = 6 densely; 50 cells per
// dim push |s| >= 3 onto the FlatIndex fallback (50^3 > kMaxDenseKeys).
class KernelDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelDifferentialTest, MatchesReferenceForEveryTargetSet) {
  const int cells = GetParam();
  const Partition part(8, cells, 0.0, 1.0);
  const auto data = KernelBatch(31 + static_cast<std::uint64_t>(cells));
  const std::vector<std::vector<std::size_t>> target_sets = {
      {}, {5}, {data.size() - 1}, {0, 3, 3, 17, 140, 301, 310}};
  Rng rng(99);
  std::vector<Subspace> subspaces;
  for (int i = 0; i < 120; ++i) subspaces.push_back(RandomSubspace(rng, 8, 6));
  subspaces.push_back(Subspace::Full(8));

  for (const auto& targets : target_sets) {
    BatchSparsityObjectives obj(&part, &data, targets);
    for (const Subspace& s : subspaces) {
      ExpectBitIdentical(obj.Evaluate(s),
                         ReferenceObjectives(part, data, targets, s), s);
    }
  }
}

TEST_P(KernelDifferentialTest, ExtraTargetRowMatchesAppendedBatch) {
  const int cells = GetParam();
  const Partition part(8, cells, 0.0, 1.0);
  const auto sample = KernelBatch(57);
  const std::vector<double> outlier = {0.95, 0.1, 1.3,  0.7,
                                       -0.2, 0.5, 0.25, 0.7};
  auto appended = sample;
  appended.push_back(outlier);
  BatchSparsityObjectives obj(&part, sample, outlier);
  Rng rng(7);
  for (int i = 0; i < 120; ++i) {
    const Subspace s = RandomSubspace(rng, 8, 6);
    ExpectBitIdentical(
        obj.Evaluate(s),
        ReferenceObjectives(part, appended, {appended.size() - 1}, s), s);
  }
}

INSTANTIATE_TEST_SUITE_P(DenseAndFlatIndexSlots, KernelDifferentialTest,
                         ::testing::Values(5, 50));

TEST(KernelDifferentialTest, RetargetStartsAFreshArchive) {
  const Partition part(8, 5, 0.0, 1.0);
  const auto data = KernelBatch(3);
  BatchSparsityObjectives obj(&part, &data);
  const Subspace s = Subspace::FromIndices({1, 4});
  obj.Evaluate(s);
  obj.Retarget({11});
  std::vector<std::pair<Subspace, double>> archive;
  obj.AppendEvaluated(&archive);
  EXPECT_TRUE(archive.empty());
  ExpectBitIdentical(obj.Evaluate(s), ReferenceObjectives(part, data, {11}, s),
                     s);
  EXPECT_EQ(obj.evaluation_count(), 2u);
}

TEST(KernelDifferentialTest, MatchesReferenceOnTheWholeLattice) {
  // Every subspace of an 8-dim lattice up to depth 4 (162 subspaces), the
  // single-target form OS growth runs.
  const Partition part(8, 5, 0.0, 1.0);
  const auto data = KernelBatch(12);
  BatchSparsityObjectives obj(&part, &data, {data.size() - 3});
  const auto lattice = EnumerateLattice(8, 4);
  for (const Subspace& s : lattice) {
    ExpectBitIdentical(obj.Evaluate(s),
                       ReferenceObjectives(part, data, {data.size() - 3}, s),
                       s);
  }
  EXPECT_EQ(obj.evaluation_count(), lattice.size());
}

// --------------------------------------------------------------- Nsga2 ----

TEST_F(ObjectivesFixture, Nsga2FindsThePlantedSubspace) {
  const std::vector<std::size_t> target = {data_.size() - 1};
  BatchSparsityObjectives obj(partition_.get(), &data_, target);
  Nsga2Config cfg;
  cfg.num_dims = 3;
  cfg.max_dimension = 2;
  cfg.population_size = 20;
  cfg.generations = 15;
  cfg.seed = 5;
  Nsga2 nsga2(cfg, &obj);
  const auto pop = nsga2.Run();
  ASSERT_EQ(pop.size(), 20u);
  // The singleton {0} must appear in the final Pareto front.
  const auto front = Nsga2::ParetoFront(pop);
  bool found = false;
  for (const auto& ind : front) {
    if (ind.subspace == Subspace::FromIndices({0})) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ObjectivesFixture, Nsga2RespectsDimensionCap) {
  BatchSparsityObjectives obj(partition_.get(), &data_);
  Nsga2Config cfg;
  cfg.num_dims = 3;
  cfg.max_dimension = 1;
  cfg.population_size = 10;
  cfg.generations = 5;
  Nsga2 nsga2(cfg, &obj);
  for (const auto& ind : nsga2.Run()) {
    EXPECT_EQ(ind.subspace.Dimension(), 1);
  }
}

TEST_F(ObjectivesFixture, Nsga2SeedsSurviveWhenGood) {
  const std::vector<std::size_t> target = {data_.size() - 1};
  BatchSparsityObjectives obj(partition_.get(), &data_, target);
  Nsga2Config cfg;
  cfg.num_dims = 3;
  cfg.max_dimension = 2;
  cfg.population_size = 12;
  cfg.generations = 3;
  Nsga2 nsga2(cfg, &obj);
  const auto pop = nsga2.Run({Subspace::FromIndices({0})});
  bool present = false;
  for (const auto& ind : pop) {
    if (ind.subspace == Subspace::FromIndices({0})) present = true;
  }
  EXPECT_TRUE(present);
}

TEST_F(ObjectivesFixture, ParetoFrontDeduplicates) {
  BatchSparsityObjectives obj(partition_.get(), &data_);
  std::vector<Individual> pop(4);
  pop[0].subspace = Subspace::FromIndices({0});
  pop[0].rank = 0;
  pop[1].subspace = Subspace::FromIndices({0});
  pop[1].rank = 0;
  pop[2].subspace = Subspace::FromIndices({1});
  pop[2].rank = 0;
  pop[3].subspace = Subspace::FromIndices({2});
  pop[3].rank = 1;
  const auto front = Nsga2::ParetoFront(pop);
  EXPECT_EQ(front.size(), 2u);
}

// ---------------------------------------------------------- MogaSearch ----

TEST_F(ObjectivesFixture, MogaMatchesExhaustiveTopChoice) {
  const std::vector<std::size_t> target = {data_.size() - 1};
  BatchSparsityObjectives obj(partition_.get(), &data_, target);
  const auto exhaustive = ExhaustiveTopSparse(&obj, 3, 2, 3);
  ASSERT_FALSE(exhaustive.empty());

  Nsga2Config cfg;
  cfg.num_dims = 3;
  cfg.max_dimension = 2;
  cfg.population_size = 16;
  cfg.generations = 10;
  cfg.seed = 77;
  MogaSearch search(cfg, &obj);
  const auto top = search.FindTopSparse(3);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top.front().subspace, exhaustive.front().subspace);
  EXPECT_NEAR(top.front().score, exhaustive.front().score, 1e-12);
}

TEST_F(ObjectivesFixture, FindTopSparseOrderedAndBounded) {
  BatchSparsityObjectives obj(partition_.get(), &data_);
  Nsga2Config cfg;
  cfg.num_dims = 3;
  cfg.max_dimension = 2;
  cfg.population_size = 16;
  cfg.generations = 5;
  MogaSearch search(cfg, &obj);
  const auto top = search.FindTopSparse(4);
  EXPECT_LE(top.size(), 4u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i - 1].score, top[i].score);
  }
}

TEST(MogaLargeTest, RecoversPlantedSubspaceInTwentyDims) {
  // 20-dim stream with outliers planted in a fixed 2-dim subspace; MOGA
  // over the batch (targeted at a planted outlier) should recover it.
  stream::SyntheticConfig scfg;
  scfg.dimension = 20;
  scfg.outlier_probability = 0.0;
  scfg.seed = 123;
  stream::GaussianStream gen(scfg);
  auto batch = ValuesOf(Take(gen, 400));
  // Plant one outlier anomalous exactly in dims {4, 9}.
  std::vector<double> outlier = batch.front();
  outlier[4] = 0.999;
  outlier[9] = 0.001;
  batch.push_back(outlier);

  const Partition part(20, 10, 0.0, 1.0);
  BatchSparsityObjectives obj(&part, &batch, {batch.size() - 1});
  Nsga2Config cfg;
  cfg.num_dims = 20;
  cfg.max_dimension = 3;
  cfg.population_size = 40;
  cfg.generations = 25;
  cfg.seed = 9;
  MogaSearch search(cfg, &obj);
  const auto top = search.FindTopSparse(8);
  ASSERT_FALSE(top.empty());
  // Some top subspace must involve dim 4 or dim 9.
  bool involves_planted = false;
  for (const auto& ss : top) {
    if (ss.subspace.Contains(4) || ss.subspace.Contains(9)) {
      involves_planted = true;
      break;
    }
  }
  EXPECT_TRUE(involves_planted);
}

}  // namespace
}  // namespace spot
