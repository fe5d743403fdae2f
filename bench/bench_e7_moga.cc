// E7 — MOGA vs exhaustive subspace search (table).
//
// Paper claim (Section I): exhaustive search of the subspace lattice "is
// rather computationally demanding and totally infeasible when the
// dimensionality of data is high"; MOGA makes the search tractable. For
// dimensionalities where exhaustive search is still feasible we report
// whether MOGA finds the single sparsest subspace, how close its top-8's
// mean sparsity comes to the true optimum (quality ratio), and how many
// objective evaluations each method spends. Expected shape: top-1 always
// found and quality ratio near 1 with a sub-lattice evaluation budget whose
// advantage grows with phi.
//
// The two "us/eval" columns divide each method's wall time (binning included)
// by its distinct objective evaluations: the exhaustive one is a
// kernel-level trend number for BatchSparsityObjectives, the MOGA one adds
// the NSGA-II bookkeeping. Informational; nothing gates on them.

#include "bench/bench_util.h"
#include "common/math_util.h"
#include "common/timer.h"
#include "eval/table.h"
#include "grid/partition.h"
#include "moga/moga_search.h"
#include "moga/objectives.h"
#include "subspace/subspace.h"

namespace spot {
namespace {

void Run(bench::JsonReporter& reporter) {
  eval::Table table({"phi", "lattice size", "exhaustive evals",
                     "exhaustive us/eval", "MOGA evals", "MOGA us/eval",
                     "best-8 mean (exact)", "best-8 mean (MOGA)",
                     "top-1 hit"});
  const int kMaxDim = 3;
  const std::size_t kTopK = 8;

  for (int dims : {8, 10, 12, 14, 16}) {
    // Training batch with one planted projected outlier as the MOGA target.
    auto batch = bench::MakeTraining(dims, 500, /*concept=*/700 + dims);
    std::vector<double> outlier = batch.front();
    outlier[1] = 0.98;
    outlier[4] = 0.02;
    batch.push_back(outlier);
    const Partition part(dims, 5, 0.0, 1.0);

    const auto us_per_eval = [](const Timer& t, std::size_t evals) {
      return evals == 0 ? 0.0
                        : t.ElapsedSeconds() * 1e6 / static_cast<double>(evals);
    };

    // Exhaustive reference.
    const Timer exact_timer;
    BatchSparsityObjectives exact_obj(&part, &batch, {batch.size() - 1});
    const auto truth = ExhaustiveTopSparse(&exact_obj, dims, kMaxDim, kTopK);
    const std::size_t exact_evals = exact_obj.evaluation_count();
    const double exact_us = us_per_eval(exact_timer, exact_evals);

    // MOGA with a fixed budget.
    const Timer moga_timer;
    BatchSparsityObjectives moga_obj(&part, &batch, {batch.size() - 1});
    Nsga2Config cfg;
    cfg.num_dims = dims;
    cfg.max_dimension = kMaxDim;
    cfg.population_size = 32;
    cfg.generations = 20;
    cfg.seed = 29;
    MogaSearch search(cfg, &moga_obj);
    const auto found = search.FindTopSparse(kTopK);
    const double moga_us =
        us_per_eval(moga_timer, moga_obj.evaluation_count());

    // Mean sparsity score (minimized) of the true top-8 vs MOGA's top-8:
    // close values mean MOGA's set is as sparse as the optimum. Exact
    // set-recall is meaningless here — many near-tied subspaces share the
    // optimum's score.
    auto mean_score = [](const std::vector<ScoredSubspace>& v) {
      double s = 0.0;
      for (const auto& ss : v) s += ss.score;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    const bool top1 =
        !found.empty() && found.front().subspace == truth.front().subspace;

    table.AddRow(
        {eval::Table::Int(static_cast<std::uint64_t>(dims)),
         eval::Table::Int(LatticeSize(dims, kMaxDim)),
         eval::Table::Int(exact_evals), eval::Table::Num(exact_us, 2),
         eval::Table::Int(moga_obj.evaluation_count()),
         eval::Table::Num(moga_us, 2),
         eval::Table::Num(mean_score(truth), 4),
         eval::Table::Num(mean_score(found), 4),
         top1 ? "yes" : "no"});
  }
  reporter.Print(table, "E7: MOGA vs exhaustive lattice search (max dim 3)");
}

}  // namespace
}  // namespace spot

int main(int argc, char** argv) {
  spot::bench::JsonReporter reporter(argc, argv, "e7");
  spot::Run(reporter);
  return 0;
}
