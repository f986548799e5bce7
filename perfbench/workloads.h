// The benchmark's named workloads. Each is a fixed ExperimentConfig; the
// benchmark only fills in the traffic seed, so the simulator receives nothing
// but the generated config.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace perfbench {

struct Workload {
  std::string name;
  lcmp::ExperimentConfig config;  // `seed` is overwritten per repetition
  // Host seconds one repetition takes on the reference machine (4-core Xeon,
  // GCC 12.2, Release). Sizes the repetition count from --seconds; it is a
  // constant, never a measurement, so the simulated work of a run depends
  // only on (seed, seconds).
  double nominal_rep_s = 1.0;
  // Extra set-up-only passes per run, so the set-up median has enough
  // samples where one set-up is a few milliseconds.
  int setup_only_passes = 0;
  // ExperimentDigest of RunExperiment(config) at seed 7, as printed by
  // `lcmp_sim` for the same flags.
  uint64_t pinned_digest_seed7 = 0;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// Seed of repetition `rep` of a run started with `seed`. Repetition 0 uses
// the seed itself, so `--seed 7` reproduces the pinned digests.
uint64_t RepSeed(uint64_t seed, int rep);

// Repetitions a run of `seconds` makes on `w` (at least two, so medians and
// pooled tails always span more than one traffic draw).
int RepCount(const Workload& w, int seconds);

}  // namespace perfbench
