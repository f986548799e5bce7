// The benchmark's composed scenario: the stages RunExperiment runs, called
// one at a time through the library's public entry points (BuildTopology,
// the Network constructor, ControlPlane::Provision, OfferedLoadForUtilization
// + GenerateTraffic, RdmaTransport::ScheduleFlow, Simulator::Run or
// ShardEngine::Run, and the FctRecorder / LinkUtilizationTracker readouts),
// with a span around each call. Only the features the benchmark's workloads
// use are composed (no faults, incast, bursts or telemetry loop); the gate in
// perfbench.cc proves the composition equal to RunExperiment by digest.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "obs/shard_profile.h"

namespace perfbench {

// One timed call: name, id, parent id (-1 for a root), host-clock interval.
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t count = 1;  // calls folded into this span (ScheduleFlow loop)

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

// In-memory span log; spans nest by open order.
class SpanLog {
 public:
  int Begin(const char* name);
  void End(int id, int64_t count = 1);
  const std::vector<Span>& spans() const { return spans_; }
  // Duration of the first span named `name`, 0 when absent.
  double Seconds(const std::string& name) const;
  // Span duration minus the time its direct children cover.
  double SelfSeconds(int id) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Instrumentation the program already has, read after a traced run.
struct ObsReadout {
  struct Site {
    uint64_t calls = 0;
    uint64_t wall_ns = 0;
  };
  std::map<std::string, Site> sites;        // obs profile sites
  std::map<std::string, int64_t> counters;  // MetricsRegistry counters
  bool has_barrier = false;
  lcmp::obs::BarrierProfiler::Summary barrier;

  Site site(const std::string& tag) const;
  int64_t counter(const std::string& name) const;
};

struct ScenarioRun {
  uint64_t seed = 0;
  uint64_t digest = 0;  // lcmp::ExperimentDigest over the composed result
  uint64_t events = 0;
  int shards = 1;
  int flows_requested = 0;
  int flows_completed = 0;
  std::vector<double> slowdowns;  // one per completed flow
  double setup_s = 0;             // config to first simulated event
  double run_s = 0;               // Simulator::Run / ShardEngine::Run
  double wall_s = 0;              // config to collected results
  double peak_rss_mb = 0;         // set by RunScenarioIsolated only
  size_t topo_bytes = 0;
  size_t path_table_bytes = 0;
  SpanLog spans;
  ObsReadout obs;  // filled only when traced
};

// Runs `config` end to end. `traced` turns the profile sites, the metrics
// registry and the barrier profiler on for this run only, then off again.
ScenarioRun RunScenario(const lcmp::ExperimentConfig& config, bool traced);

// Every stage up to the first simulated event, then teardown. Returns the
// set-up seconds (same boundary as ScenarioRun::setup_s).
double SetupOnly(const lcmp::ExperimentConfig& config);

// RunScenario(config, untraced) -- or SetupOnly when `setup_only` -- in a
// forked child of this (single-threaded) process, which waits for it. Every
// call then starts from the same allocator state, that of a fresh process,
// and peak_rss_mb is the child's own peak. Spans are not returned. False,
// with *error, when the child fails.
bool RunScenarioIsolated(const lcmp::ExperimentConfig& config, bool setup_only, ScenarioRun* out,
                         std::string* error);

}  // namespace perfbench
