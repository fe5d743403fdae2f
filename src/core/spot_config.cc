#include "core/spot_config.h"

#include "subspace/subspace.h"

namespace spot {

namespace {

std::string ValidateMoga(const Nsga2Config& moga, const std::string& which) {
  if (moga.population_size < 2) {
    return which + " moga population_size must be at least 2";
  }
  if (moga.population_size > SpotConfig::kMaxMogaPopulation) {
    return which + " moga population_size must be at most " +
           std::to_string(SpotConfig::kMaxMogaPopulation);
  }
  if (moga.generations < 1) {
    return which + " moga generations must be at least 1";
  }
  if (moga.generations > SpotConfig::kMaxMogaGenerations) {
    return which + " moga generations must be at most " +
           std::to_string(SpotConfig::kMaxMogaGenerations);
  }
  return "";
}

}  // namespace

std::string SpotConfig::Validate() const {
  if (omega == 0) return "omega must be positive";
  if (epsilon <= 0.0 || epsilon >= 1.0) return "epsilon must be in (0, 1)";
  if (cells_per_dim < 2) return "cells_per_dim must be at least 2";
  if (cells_per_dim > kMaxCellsPerDim) {
    return "cells_per_dim must be at most " + std::to_string(kMaxCellsPerDim);
  }
  if (fs_max_dimension < 0) return "fs_max_dimension must be non-negative";
  if (fs_max_dimension > Subspace::kMaxDimensions) {
    return "fs_max_dimension must be at most " +
           std::to_string(Subspace::kMaxDimensions);
  }
  if (rd_threshold < 0.0) return "rd_threshold must be non-negative";
  if (irsd_threshold < 0.0) return "irsd_threshold must be non-negative";
  if (partition_margin < 0.0) return "partition_margin must be non-negative";
  if (prune_threshold < 0.0) return "prune_threshold must be non-negative";
  if (drift_detection && drift_lambda <= 0.0) {
    return "drift_lambda must be positive when drift detection is enabled";
  }
  std::string problem = ValidateMoga(unsupervised.moga, "unsupervised");
  if (problem.empty()) problem = ValidateMoga(supervised.moga, "supervised");
  if (!problem.empty()) return problem;
  if (num_shards > kMaxShards) {
    return "num_shards must be at most " + std::to_string(kMaxShards);
  }
  if (reservoir_capacity > kMaxReservoirCapacity) {
    return "reservoir_capacity must be at most " +
           std::to_string(kMaxReservoirCapacity);
  }
  if (topk_capacity > kMaxTopKCapacity) {
    return "topk_capacity must be at most " + std::to_string(kMaxTopKCapacity);
  }
  return "";
}

}  // namespace spot
