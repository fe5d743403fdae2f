// Host-speed calibration: a fixed piece of work owned by the benchmark
// (never by the library), timed on the calling thread's CPU clock. The
// same work takes 1.8 ms of CPU on the reference host; reading it
// between rounds tells how fast this host's CPUs run at the moment.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "bench.h"

namespace perfbench {

double CalibrationSeconds() {
  const double t0 = ThreadCpuSeconds();
  std::uint64_t x = 88172645463325252ULL;  // xorshift64
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // Open-addressing hash table churn (512 KB), a sort, and float math:
  // the mix of memory, branch and arithmetic work the detectors do.
  std::vector<std::uint64_t> table(1 << 16, 0);
  std::uint64_t hits = 0;
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t key = next() % 50000 + 1;
    std::size_t h = (key * 0x9E3779B97F4A7C15ULL) >> 48;
    while (table[h] != 0 && table[h] != key) h = (h + 1) & 0xffff;
    if (table[h] == key) {
      ++hits;
    } else {
      table[h] = key;
    }
  }
  std::vector<double> values(8192);
  for (double& v : values) v = static_cast<double>(next() % 1000000) * 1e-6;
  std::sort(values.begin(), values.end());
  double acc = 0.0;
  for (int r = 0; r < 8; ++r) {
    for (double v : values) acc += std::sqrt(v + r) * std::exp(-v);
  }
  volatile double sink = acc + static_cast<double>(hits);
  (void)sink;
  return ThreadCpuSeconds() - t0;
}

double SpeedFactor(const std::vector<double>& calibration_seconds) {
  const double m = Median(calibration_seconds);
  return m > 0.0 ? kReferenceCalibrationSeconds / m : 1.0;
}

}  // namespace perfbench
