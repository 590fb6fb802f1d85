// The four perfbench workloads (hot, cold, sharded, churn); see README.md.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checked = 0;
  std::string first_failure;
  /// End-to-end metrics of the untraced run (trace off).
  MetricSet end_to_end;
  /// Per-layer metrics of the traced run (trace on).
  MetricSet per_layer;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metrics a run reports in its result line: every end-to-end metric
/// with tracing off, every per-layer metric with tracing on. A layer a
/// workload does not exercise reads 0.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Runs one workload as `options` says; false for an unknown name.
bool RunWorkload(const RunOptions& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
