// perfbench: the SPOT benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload on inputs drawn from seed N (S seconds' worth of work
// on the reference host, see README), checks the verdicts against
// independent computations, and prints as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Traced runs also write .perfbench_out/<workload>-seed<N>.trace.json
// (Chrome trace of the benchmark's spans) and .layers.txt (per-span self
// time). Exits 1 when a check fails, 2 on bad arguments.

#include <sys/stat.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"
#include "probes.h"

namespace {

using perfbench::Fmt;

std::string SelfExe(const char* argv0) {
  char buf[PATH_MAX];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
  return argv0;
}

std::string JsonMetrics(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += Fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
               i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
               metrics[i].unit.c_str());
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload detect-evolving|detect-wide|"
               "serve-churn|serve-small-frames --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--serve-child") == 0) {
    return perfbench::ServeChild(argc, argv);
  }
  perfbench::Options opt;
  opt.self_exe = SelfExe(argv[0]);
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (argc % 2 == 0 || !(opt.seconds > 0.0) || opt.seconds > 600.0) return Usage();

  perfbench::SpanRecorder spans(opt.trace);
  perfbench::RunResult result;
  if (opt.workload == "detect-evolving") {
    perfbench::RunDetectEvolving(opt, &spans, &result);
  } else if (opt.workload == "detect-wide") {
    perfbench::RunDetectWide(opt, &spans, &result);
  } else if (opt.workload == "serve-churn") {
    perfbench::RunServeChurn(opt, &spans, &result);
  } else if (opt.workload == "serve-small-frames") {
    perfbench::RunServeSmallFrames(opt, &spans, &result);
  } else {
    return Usage();
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  for (const perfbench::Metric& m : result.end_to_end) {
    std::printf("e2e%s %-22s %16.6f %s\n", opt.trace ? " (traced)" : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  if (opt.trace) {
    perfbench::CompleteLayers(&result);
    for (const perfbench::Metric& m : result.per_layer) {
      std::printf("layer %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    mkdir(perfbench::kOutDir, 0755);
    const std::string base =
        Fmt("%s/%s-seed%llu", perfbench::kOutDir, opt.workload.c_str(),
            static_cast<unsigned long long>(opt.seed));
    const std::string table = spans.LayerTable();
    std::ofstream(base + ".layers.txt") << table;
    if (spans.WriteChromeTrace(base + ".trace.json")) {
      std::printf("%strace written to %s.trace.json and .layers.txt\n",
                  table.c_str(), base.c_str());
    }
  }
  std::printf("%s", result.ops.Render().c_str());
  for (const std::string& p : result.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = result.problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.ops.attempted()),
              static_cast<unsigned long long>(result.ops.failed()),
              JsonMetrics(opt.trace ? result.per_layer : result.end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
