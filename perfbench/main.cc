// perfbench: builds one workload from a seed, runs it, checks every output
// and prints its metrics. Usage:
//   perfbench --workload hot|cold|sharded|churn --seed N --seconds S
//             --trace 0|1 [--tiny] [--out DIR] [--corrupt]
// --tiny runs at self-test size: a 5 % corpus, a single set-up and a short
// warm-up.
// The last line of standard output is the JSON result; with --trace 0 it
// holds the end-to-end metrics, with --trace 1 the per-layer metrics, and
// the traced run also writes DIR/<workload>.spans.jsonl and
// DIR/<workload>.layers.txt. Exits 1 when a check fails, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::MetricSet;
using perfbench::MetricSpec;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "hot|cold|sharded|churn --seed N --seconds S --trace 0|1 "
               "[--tiny] [--out DIR] [--corrupt]\n",
               why);
  return 2;
}

/// Exactly the metrics of `specs`, in their order; a metric the workload
/// did not produce reads 0.
MetricSet Select(const MetricSet& all, const std::vector<MetricSpec>& specs) {
  MetricSet out;
  for (const MetricSpec& spec : specs) {
    out.Add(spec.name, all.Has(spec.name) ? all.Get(spec.name) : 0.0,
            spec.unit);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt") {
      options.corrupt = true;
      continue;
    }
    if (arg == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--out") {
      options.out_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed) return Usage("--workload and --seed are required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  std::filesystem::create_directories(options.out_dir);
  perfbench::Progress("start");

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d tiny=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.tiny ? 1 : 0);
  std::fflush(stdout);
  const perfbench::CpuTimes cpu_at_start = perfbench::ReadCpuTimes();
  perfbench::RunResult result;
  if (!perfbench::RunWorkload(options, &result)) {
    return Usage(("unknown workload " + options.workload).c_str());
  }

  perfbench::Progress("run finished");
  std::printf("\nend-to-end (untraced load phase):\n%s",
              result.end_to_end.Table().c_str());
  std::printf("attempted %llu, failed %llu, failed_frac %.6g\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.attempted == 0
                  ? 0.0
                  : static_cast<double>(result.failed) / result.attempted);
  if (options.trace) {
    const std::string table = result.per_layer.Table();
    std::printf("\nper-layer (traced run):\n%s", table.c_str());
    std::ofstream(options.out_dir + "/" + options.workload + ".layers.txt")
        << table;
  }
  std::printf("\ncheck: %llu outputs checked, %s\n",
              static_cast<unsigned long long>(result.checked),
              result.correct ? "all correct"
                             : ("FAILED: " + result.first_failure).c_str());

  // Figures from a host whose hypervisor steals CPU are not comparable
  // with figures from a quiet one; this line lets such runs be told apart.
  std::printf("host cpu steal over the run: %.2f %%\n",
              100.0 * perfbench::StealFraction(cpu_at_start));

  const MetricSet reported =
      options.trace ? Select(result.per_layer, perfbench::PerLayerMetrics())
                    : Select(result.end_to_end, perfbench::EndToEndMetrics());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              reported.Json().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
