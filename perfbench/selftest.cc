// Benchmark self-tests: every workload at a tiny flow count and a
// non-default seed, checking that
//   - each emitted metric has a valid name and a unit, and the names and
//     units match BENCHMARK.json's end_to_end / per_layer lists;
//   - the composed pipeline's digest equals RunExperiment's for the config;
//   - the traced run's digest equals the untraced one, and the layer split
//     sums to the traced wall time.
//
//   perfbench_selftest <path to BENCHMARK.json>
// Exits 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/json_util.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

using lcmp::json::JsonValue;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) {
    ++g_failures;
  }
}

// name -> unit for one metric list of BENCHMARK.json.
std::map<std::string, std::string> DeclaredMetrics(const JsonValue& doc, const char* key) {
  std::map<std::string, std::string> out;
  const JsonValue* list = doc.Find(key);
  if (list == nullptr) {
    return out;
  }
  for (const JsonValue& item : list->items) {
    std::string name;
    std::string unit;
    if (item.Find("name") != nullptr && item.Find("unit") != nullptr &&
        item.Find("name")->AsString(&name) && item.Find("unit")->AsString(&unit)) {
      out[name] = unit;
    }
  }
  return out;
}

void ExpectMatches(const MetricSet& emitted, const std::map<std::string, std::string>& declared,
                   const std::string& label) {
  std::string error;
  Expect(emitted.Validate(&error), label + ": metric names and units valid " + error);
  std::map<std::string, std::string> got;
  for (const Metric& m : emitted.metrics()) {
    got[m.name] = m.unit;
  }
  for (const auto& [name, unit] : declared) {
    const auto it = got.find(name);
    if (it == got.end()) {
      Expect(false, label + ": declared metric '" + name + "' emitted");
    } else if (it->second != unit) {
      Expect(false, label + ": metric '" + name + "' unit " + it->second + " != declared " + unit);
    }
  }
  for (const auto& [name, unit] : got) {
    if (declared.count(name) == 0) {
      Expect(false, label + ": emitted metric '" + name + "' declared in BENCHMARK.json");
    }
  }
}

int Main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <BENCHMARK.json>\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  std::stringstream text;
  text << in.rdbuf();
  JsonValue doc;
  std::string error;
  if (!in || !lcmp::json::ParseJson(text.str(), &doc, &error)) {
    std::fprintf(stderr, "cannot read %s: %s\n", argv[1], error.c_str());
    return 2;
  }
  const auto end_to_end = DeclaredMetrics(doc, "end_to_end");
  const auto per_layer = DeclaredMetrics(doc, "per_layer");
  std::map<std::string, bool> declared_workloads;
  if (const JsonValue* list = doc.Find("workloads")) {
    for (const JsonValue& item : list->items) {
      std::string name;
      if (item.Find("name") != nullptr && item.Find("name")->AsString(&name)) {
        declared_workloads[name] = true;
      }
    }
  }
  Expect(declared_workloads.size() == Workloads().size(),
         "BENCHMARK.json declares every workload and no other");

  const QueueProbe probe = RunQueueProbe(/*seed=*/99, /*steps_per_batch=*/2000);
  for (const Workload& w : Workloads()) {
    const std::string label = w.name;
    Expect(declared_workloads.count(w.name) == 1, label + ": declared in BENCHMARK.json");
    lcmp::ExperimentConfig config = w.config;
    config.num_flows = 24;
    config.seed = 424242;  // not the default seed 7
    ScenarioRun untraced;
    error.clear();
    Expect(RunScenarioIsolated(config, /*setup_only=*/false, &untraced, &error),
           label + ": isolated run " + error);
    const ScenarioRun traced = RunScenario(config, /*traced=*/true);
    Expect(untraced.flows_completed == config.num_flows,
           label + ": non-default seed runs end to end (" +
               std::to_string(untraced.flows_completed) + "/" +
               std::to_string(config.num_flows) + " flows)");
    Expect(traced.digest == untraced.digest,
           label + ": traced digest equals the untraced (forked) run's");
    const Check vs_reference = CheckAgainstRunExperiment(config);
    Expect(vs_reference.ok, label + ": " + vs_reference.name + " " + vs_reference.detail);

    MetricSet info;
    ExpectMatches(EndToEndMetrics({untraced}, {untraced.setup_s}, &info), end_to_end,
                  label + " end_to_end");
    Expect(info.Validate(&error), label + ": info metric names and units valid " + error);
    std::vector<LayerRow> rows;
    ExpectMatches(PerLayerMetrics(untraced, traced, probe, &rows), per_layer,
                  label + " per_layer");
    double sum = 0;
    for (const LayerRow& row : rows) {
      sum += row.self_s;
    }
    Expect(std::fabs(sum - traced.wall_s) <= 1e-6 * traced.wall_s + 1e-9,
           label + ": layer split sums to traced wall_s");
  }
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "selftest passed" : "selftest FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
