// Turns scenario runs into the benchmark's metrics, and the correctness
// checks the benchmark gates on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "pipeline.h"
#include "report.h"

namespace perfbench {

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// End-to-end metrics of a timed (untraced) run set: medians over the
// repetitions, of host time, peak RSS and each repetition's FCT p50.
// `setups` holds every set-up measurement (repetitions + set-up passes).
// `info` receives the end-to-end figures that are reported but not gated:
// the FCT p99 (same median), whose spread across traffic seeds on the bso13
// workloads is wider than any regression bound, and flows_failed_frac,
// which is 0 whenever the run is healthy.
MetricSet EndToEndMetrics(const std::vector<ScenarioRun>& runs, const std::vector<double>& setups,
                          MetricSet* info);

struct QueueProbe {
  double depth4k_ns = 0;
  double depth256k_ns = 0;
};
// The event-queue hold probe at depths 4096 and 256k, with increments drawn
// from the bso13 graph (HoldIncrements), whatever the workload.
QueueProbe RunQueueProbe(uint64_t seed, int steps_per_batch);

// One row of the per-layer wall-time split; rows sum to the traced wall_s.
struct LayerRow {
  std::string layer;
  double self_s = 0;
  std::string detail;
};

// Per-layer metrics from one traced run, against the untraced run of the same
// config (for the tracing overhead). Fills `rows` with the layer split.
MetricSet PerLayerMetrics(const ScenarioRun& untraced, const ScenarioRun& traced,
                          const QueueProbe& probe, std::vector<LayerRow>* rows);

// The composed pipeline against RunExperiment for the same config.
Check CheckAgainstRunExperiment(const lcmp::ExperimentConfig& config);

// Hex rendering of a digest, as lcmp_sim prints it.
std::string Hex(uint64_t digest);

}  // namespace perfbench
