// Repo benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Host side it is a closed loop: one simulation at a time from this single
// process, each starting after the previous one ends. Inside each simulation
// flows arrive open-loop (Poisson at the workload's load).
//
// --trace 0 makes the timed repetitions and prints the end-to-end metrics;
// --trace 1 makes one untraced (forked) and one traced run of the same config
// and prints the per-layer metrics. Both gate on the correctness checks and exit
// 1 when any fails. The last stdout line is the JSON result; a records file
// with the machine, seeds, digests, checks and (traced) spans goes to
// --out-dir, which must exist.
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness/json_util.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 7;
  int seconds = 20;
  int trace = 0;
  std::string out_dir;
};

int Usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\nworkloads:");
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    long long v = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, INT64_MAX, &v)) {
        *error = "bad --seed";
        return false;
      }
      args->seed = static_cast<uint64_t>(v);
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 3600, &v)) {
        *error = "bad --seconds";
        return false;
      }
      args->seconds = static_cast<int>(v);
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &v)) {
        *error = "bad --trace (0 or 1)";
        return false;
      }
      args->trace = static_cast<int>(v);
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

std::string RunJson(const ScenarioRun& r) {
  return "{\"seed\": " + std::to_string(r.seed) + ", \"digest\": \"" + Hex(r.digest) +
         "\", \"events\": " + std::to_string(r.events) +
         ", \"flows_requested\": " + std::to_string(r.flows_requested) +
         ", \"flows_completed\": " + std::to_string(r.flows_completed) +
         ", \"setup_s\": " + Num(r.setup_s) + ", \"run_s\": " + Num(r.run_s) +
         ", \"wall_s\": " + Num(r.wall_s) + ", \"peak_rss_mb\": " + Num(r.peak_rss_mb) + "}";
}

std::string SpansJson(const SpanLog& log) {
  std::string out = "[";
  const uint64_t t0 = log.spans().empty() ? 0 : log.spans().front().start_ns;
  for (const Span& s : log.spans()) {
    out += (out.size() > 1 ? ", " : "");
    out += "{\"name\": \"" + lcmp::json::JsonEscape(s.name) + "\", \"id\": " +
           std::to_string(s.id) + ", \"parent\": " + std::to_string(s.parent) +
           ", \"start_ns\": " + std::to_string(s.start_ns - t0) +
           ", \"end_ns\": " + std::to_string(s.end_ns - t0) +
           ", \"count\": " + std::to_string(s.count) + "}";
  }
  return out + "]";
}

void PrintRun(const char* label, const ScenarioRun& r) {
  std::printf("%s seed=%" PRIu64 " digest=%s events=%" PRIu64
              " flows=%d/%d setup_s=%.6f run_s=%.6f wall_s=%.6f",
              label, r.seed, Hex(r.digest).c_str(), r.events, r.flows_completed,
              r.flows_requested, r.setup_s, r.run_s, r.wall_s);
  if (r.peak_rss_mb > 0) {
    std::printf(" peak_rss_mb=%.1f", r.peak_rss_mb);
  }
  std::printf("\n");
  std::fflush(stdout);
}

void AddCheck(std::vector<Check>* checks, Check c) {
  std::printf("check %-32s %s  %s\n", c.name.c_str(), c.ok ? "ok  " : "FAIL", c.detail.c_str());
  std::fflush(stdout);
  checks->push_back(std::move(c));
}

// Checks every invocation makes on its first repetition (`first`, at the
// run's own seed).
void GateFirstRun(const Workload& w, const lcmp::ExperimentConfig& config, const ScenarioRun& first,
                  std::vector<Check>* checks) {
  if (config.seed == 7) {
    Check c;
    c.name = "pinned_digest_seed7";
    c.ok = first.digest == w.pinned_digest_seed7;
    c.detail = "got " + Hex(first.digest) + " pinned " + Hex(w.pinned_digest_seed7);
    AddCheck(checks, c);
  }
  if (first.shards > 1) {
    lcmp::ExperimentConfig sequential = config;
    sequential.shards = 1;
    const ScenarioRun seq = RunScenario(sequential, /*traced=*/false);
    Check c;
    c.name = "sharded_equals_sequential";
    c.ok = seq.digest == first.digest;
    c.detail = "shards=" + std::to_string(first.shards) + " " + Hex(first.digest) +
               " shards=1 " + Hex(seq.digest);
    AddCheck(checks, c);
  }
  // The full-size composition is pinned at seed 7; at any seed, a reduced
  // flow count keeps the RunExperiment comparison cheap.
  lcmp::ExperimentConfig small = config;
  small.num_flows = std::min(config.num_flows, 200);
  AddCheck(checks, CheckAgainstRunExperiment(small));
  Check completed;
  completed.name = "flows_accounted";
  completed.ok = first.flows_requested == config.num_flows &&
                 first.flows_completed <= first.flows_requested &&
                 static_cast<size_t>(first.flows_completed) == first.slowdowns.size();
  completed.detail = std::to_string(first.flows_completed) + "/" +
                     std::to_string(first.flows_requested) + " flows completed";
  AddCheck(checks, completed);
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    return Usage(error.c_str());
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  const Machine machine = DescribeMachine();
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%d trace=%d\n", w->name.c_str(),
              args.seed, args.seconds, args.trace);
  std::printf("machine cores=%u cpu=\"%s\" compiler=\"%s\" build=%s\n", machine.cores,
              machine.cpu.c_str(), machine.compiler.c_str(), machine.build_type.c_str());
  std::fflush(stdout);

  lcmp::ExperimentConfig first_config = w->config;
  first_config.seed = RepSeed(args.seed, 0);
  std::vector<Check> checks;
  std::vector<ScenarioRun> runs;
  MetricSet metrics;
  MetricSet info;  // reported, not gated (see EndToEndMetrics)
  std::vector<LayerRow> rows;
  std::vector<double> setups;
  std::string spans_json = "[]";

  if (args.trace == 0) {
    // Each repetition and set-up pass runs in a forked child, so all start
    // from a fresh process's allocator state and report their own peak RSS.
    // Set-up passes are spread between the repetitions, so their samples
    // span the run's whole duration instead of one burst.
    const int reps = RepCount(*w, args.seconds);
    for (int i = 0; i < reps; ++i) {
      lcmp::ExperimentConfig config = w->config;
      config.seed = RepSeed(args.seed, i);
      ScenarioRun run;
      if (!RunScenarioIsolated(config, /*setup_only=*/false, &run, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 1;
      }
      setups.push_back(run.setup_s);
      runs.push_back(std::move(run));
      PrintRun(("rep " + std::to_string(i)).c_str(), runs.back());
      const int passes = w->setup_only_passes * (i + 1) / reps - w->setup_only_passes * i / reps;
      for (int p = 0; p < passes; ++p) {
        if (!RunScenarioIsolated(config, /*setup_only=*/true, &run, &error)) {
          std::fprintf(stderr, "perfbench: %s\n", error.c_str());
          return 1;
        }
        setups.push_back(run.setup_s);
      }
    }
    GateFirstRun(*w, first_config, runs.front(), &checks);
    metrics = EndToEndMetrics(runs, setups, &info);
  } else {
    // The untraced reference runs in a forked child and the traced run is
    // the first scenario of this process, so both start from a fresh
    // process's allocator state and obs.trace_overhead_frac carries no
    // run-order effect.
    ScenarioRun reference;
    if (!RunScenarioIsolated(first_config, /*setup_only=*/false, &reference, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    runs.push_back(std::move(reference));
    PrintRun("untraced", runs.back());
    runs.push_back(RunScenario(first_config, /*traced=*/true));
    PrintRun("traced", runs.back());
    const ScenarioRun& untraced = runs[0];
    const ScenarioRun& traced = runs[1];
    Check same;
    same.name = "traced_equals_untraced";
    same.ok = traced.digest == untraced.digest && traced.events == untraced.events;
    same.detail = "traced " + Hex(traced.digest) + " untraced " + Hex(untraced.digest);
    AddCheck(&checks, same);
    GateFirstRun(*w, first_config, untraced, &checks);
    const QueueProbe probe = RunQueueProbe(args.seed, 200000);
    metrics = PerLayerMetrics(untraced, traced, probe, &rows);
    spans_json = SpansJson(traced.spans);
    std::printf("\nlayer split of traced wall_s = %.6f s (sim.run_s = %.6f s)\n", traced.wall_s,
                traced.run_s);
    std::printf("%-13s %12s %8s  %s\n", "layer", "self_s", "share", "detail");
    for (const LayerRow& row : rows) {
      std::printf("%-13s %12.6f %7.2f%%  %s\n", row.layer.c_str(), row.self_s,
                  100.0 * row.self_s / traced.wall_s, row.detail.c_str());
    }
  }

  if (!metrics.Validate(&error) || !info.Validate(&error)) {
    AddCheck(&checks, Check{"metric_names", false, error});
  }
  bool correct = true;
  for (const Check& c : checks) {
    correct = correct && c.ok;
  }
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string runs_json = "[";
  for (const ScenarioRun& r : runs) {
    attempted += r.flows_requested;
    failed += r.flows_requested - r.flows_completed;
    runs_json += (runs_json.size() > 1 ? ", " : "") + RunJson(r);
  }
  runs_json += "]";

  std::printf("\n");
  for (const Metric& m : metrics.metrics()) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : info.metrics()) {
    std::printf("info   %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  if (!args.out_dir.empty()) {
    std::string checks_json = "[";
    for (const Check& c : checks) {
      checks_json += (checks_json.size() > 1 ? ", " : "");
      checks_json += "{\"name\": \"" + c.name + "\", \"ok\": " + (c.ok ? "true" : "false") +
                     ", \"detail\": \"" + lcmp::json::JsonEscape(c.detail) + "\"}";
    }
    checks_json += "]";
    std::string setups_json = "[";
    for (double s : setups) {
      setups_json += (setups_json.size() > 1 ? ", " : "") + Num(s);
    }
    setups_json += "]";
    const std::string path = args.out_dir + "/" + w->name + "-seed" + std::to_string(args.seed) +
                             "-trace" + std::to_string(args.trace) + ".json";
    std::ofstream out(path);
    out << "{\"workload\": \"" << w->name << "\", \"seed\": " << args.seed
        << ", \"seconds\": " << args.seconds << ", \"trace\": " << args.trace
        << ", \"machine\": " << MachineJson(machine) << ", \"correct\": "
        << (correct ? "true" : "false") << ", \"checks\": " << checks_json
        << ", \"runs\": " << runs_json << ", \"setup_samples_s\": " << setups_json
        << ", \"metrics\": " << metrics.ToJson() << ", \"info_metrics\": " << info.ToJson()
        << ", \"spans\": " << spans_json << "}\n";
    if (!out) {
      std::printf("warning: cannot write %s\n", path.c_str());
    } else {
      std::printf("records %s\n", path.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
