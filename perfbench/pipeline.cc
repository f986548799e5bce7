#include "pipeline.h"

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "core/control_plane.h"
#include "harness/runner.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "report.h"
#include "sim/network.h"
#include "sim/shard_engine.h"
#include "stats/fct_recorder.h"
#include "stats/link_utilization.h"
#include "transport/rdma_transport.h"
#include "workload/traffic_gen.h"

namespace perfbench {

using namespace lcmp;

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Counters the per-layer table reads, by MetricsRegistry name.
const char* const kCounterNames[] = {
    "sim.port.tx_packets",
    "sim.port.ecn_marks",
    "sim.port.drops",
    "lcmp.dci.lost_packets",
    "lcmp.router.new_flow_decisions",
    "lcmp.router.fallback_decisions",
    "lcmp.flow_cache.hits",
    "lcmp.flow_cache.misses",
    "lcmp.flow_cache.evictions",
    "transport.data_packets_sent",
    "transport.retransmitted_packets",
    "transport.nacks",
    "transport.timeouts",
    "cc.lcp.delay_cuts",
    "cc.lcp.ecn_cuts",
    "cc.dcqcn.cnps",
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name) : log_(log), id_(log->Begin(name)) {}
  ~ScopedSpan() { log_->End(id_, count_); }
  void set_count(int64_t count) { count_ = count; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
  int64_t count_ = 1;
};

// One scenario's objects, built stage by stage in RunExperiment's order.
// Members are destroyed in reverse declaration order, as RunExperiment's
// locals are. The transport's completion callback holds `this`, so the
// object never moves.
class Scenario {
 public:
  Scenario(const ExperimentConfig& config, SpanLog* spans) : config_(config), spans_(spans) {
    {
      ScopedSpan s(spans_, "topo.BuildTopology");
      graph_ = BuildTopology(config_);
    }
    LcmpConfig lcmp_eff = config_.lcmp;
    if (lcmp_eff.flow_cache_auto) {
      lcmp_eff.flow_cache_capacity =
          std::clamp(4 * config_.num_flows, 1024, config_.lcmp.flow_cache_capacity);
    }
    {
      ScopedSpan s(spans_, "sim.Network");
      NetworkConfig nc;
      nc.seed = config_.seed;
      nc.shards = config_.shards;
      nc.enable_int = CcNeedsInt(config_.cc);
      nc.pfc.enabled = config_.pfc_enabled;
      nc.pfc.xoff_bytes = config_.pfc_xoff_bytes;
      nc.pfc.xon_bytes = config_.pfc_xon_bytes;
      nc.paths.strategy = config_.path_strategy;
      nc.paths.layers = config_.path_layers;
      nc.paths.drop_permille = config_.layer_drop_permille;
      nc.paths.seed = config_.topo_seed != 0 ? config_.topo_seed : config_.seed;
      nc.dci_loss_rate = config_.dci_loss_rate;
      nc.dci_burst_len = config_.dci_burst_len;
      nc.fec_k = config_.fec_k;
      nc.fec_m = config_.fec_m;
      net_ = std::make_unique<Network>(graph_, nc, MakePolicyFactory(config_.policy, lcmp_eff));
    }
    {
      ScopedSpan s(spans_, "core.ControlPlane.Provision");
      control_plane_ = std::make_unique<ControlPlane>(lcmp_eff);
      control_plane_->Provision(*net_);
    }
    const std::vector<std::pair<DcId, DcId>> pairs = BuildPairing(config_, graph_.num_dcs());
    TrafficGenConfig traffic;
    traffic.workload = config_.workload;
    {
      ScopedSpan s(spans_, "workload.OfferedLoadForUtilization");
      traffic.offered_bps = OfferedLoadForUtilization(graph_, net_->routes(), pairs, config_.load);
    }
    traffic.num_flows = config_.num_flows;
    traffic.seed = Mix64(config_.seed ^ 0x7ea1);
    traffic.mix_intra = config_.mix_intra;
    std::vector<FlowSpec> flows;
    {
      ScopedSpan s(spans_, "workload.GenerateTraffic");
      flows = GenerateTraffic(graph_, pairs, traffic);
    }
    expected_ = static_cast<int>(flows.size());

    recorder_ = std::make_unique<FctRecorder>(&net_->graph());
    if (net_->num_shards() > 1) {
      engine_ = std::make_unique<ShardEngine<FlowRecord>>(net_.get(), config_.horizon, expected_);
    }
    {
      ScopedSpan s(spans_, "transport.RdmaTransport");
      TransportConfig tc;
      tc.cc = config_.cc;
      tc.cc_inter = config_.cc_inter;
      tc.cc_intra = config_.cc_intra;
      tc.emulation_mode = config_.emulation_mode;
      tc.reliability = config_.reliability;
      tc.ooo_tolerance = config_.ooo_tolerance;
      tc.max_inflight_bytes = config_.max_inflight_bytes;
      transport_ = std::make_unique<RdmaTransport>(net_.get(), tc, [this](const FlowRecord& rec) {
        if (engine_ != nullptr) {
          engine_->OnComplete(rec, rec.spec.dst);
          return;
        }
        recorder_->OnComplete(rec);
        if (recorder_->completed() >= expected_) {
          net_->sim().Stop();
        }
      });
    }
    {
      ScopedSpan s(spans_, "transport.ScheduleFlow");
      for (const FlowSpec& f : flows) {
        transport_->ScheduleFlow(f);
      }
      s.set_count(static_cast<int64_t>(flows.size()));
    }
    {
      ScopedSpan s(spans_, "stats.LinkUtilizationTracker.Begin");
      util_ = std::make_unique<LinkUtilizationTracker>(net_.get());
      util_->Begin();
    }
    {
      ScopedSpan s(spans_, "sim.StartPolicyTicks");
      net_->StartPolicyTicks();
    }
  }

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  // Runs the simulation; `barrier` arms the PDES barrier profiler around a
  // sharded run (it measures host time only).
  void Run(bool barrier, ObsReadout* obs) {
    if (engine_ != nullptr) {
      ScopedSpan s(spans_, "sim.ShardEngine.Run");
      const bool profiled =
          barrier && obs::BarrierProfiler::Instance().Begin(net_->num_shards());
      engine_->Run();
      if (profiled) {
        obs::BarrierProfiler::Instance().End();
        obs->has_barrier = true;
        obs->barrier = obs::BarrierProfiler::Instance().Summarize();
      }
    } else {
      ScopedSpan s(spans_, "sim.Simulator.Run");
      net_->sim().Run(config_.horizon);
    }
  }

  void Collect(ScenarioRun* out) {
    ScopedSpan s(spans_, "stats.Collect");
    if (engine_ != nullptr) {
      for (const auto& c : engine_->SortedCompletions()) {
        recorder_->OnComplete(c.rec);
      }
    }
    ExperimentResult r;
    r.overall = recorder_->Overall();
    r.buckets = recorder_->ByBuckets(SizeBucketEdges(config_.workload));
    r.link_utils = util_->End();
    r.samples = recorder_->samples();
    r.flows_completed = recorder_->completed();
    r.flows_requested = expected_;
    r.events_processed =
        engine_ != nullptr ? engine_->events_processed() : net_->sim().events_processed();
    r.sim_end_time = engine_ != nullptr ? engine_->end_time() : net_->sim().now();
    out->digest = ExperimentDigest(r);
    out->events = r.events_processed;
    out->flows_requested = r.flows_requested;
    out->flows_completed = r.flows_completed;
    out->slowdowns.clear();
    out->slowdowns.reserve(r.samples.size());
    for (const FctRecorder::Sample& sample : r.samples) {
      out->slowdowns.push_back(sample.slowdown);
    }
    out->shards = net_->num_shards();
    out->topo_bytes = net_->TopoBytes();
    out->path_table_bytes = net_->PathTableBytes();
  }

 private:
  const ExperimentConfig config_;
  SpanLog* spans_;
  int expected_ = 0;
  Graph graph_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<ControlPlane> control_plane_;
  std::unique_ptr<FctRecorder> recorder_;
  std::unique_ptr<ShardEngine<FlowRecord>> engine_;
  std::unique_ptr<RdmaTransport> transport_;
  std::unique_ptr<LinkUtilizationTracker> util_;
};

void SetObservability(bool on) {
  obs::SetProfileEnabled(on);
  obs::SetMetricsEnabled(on);
}

}  // namespace

int SpanLog::Begin(const char* name) {
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanLog::End(int id, int64_t count) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = NowNs();
  span.count = count;
  // Spans are scoped, so the closing span is always the innermost open one.
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

double SpanLog::Seconds(const std::string& name) const {
  for (const Span& span : spans_) {
    if (span.name == name) {
      return span.seconds();
    }
  }
  return 0;
}

double SpanLog::SelfSeconds(int id) const {
  double self = spans_[static_cast<size_t>(id)].seconds();
  for (const Span& span : spans_) {
    if (span.parent == id) {
      self -= span.seconds();
    }
  }
  return self;
}

ObsReadout::Site ObsReadout::site(const std::string& tag) const {
  const auto it = sites.find(tag);
  return it == sites.end() ? Site{} : it->second;
}

int64_t ObsReadout::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

ScenarioRun RunScenario(const ExperimentConfig& config, bool traced) {
  ScenarioRun out;
  out.seed = config.seed;
  if (traced) {
    obs::ResetProfile();
    obs::MetricsRegistry::Instance().ResetValues();
    SetObservability(true);
  }
  const int root = out.spans.Begin("scenario");
  {
    Scenario scenario(config, &out.spans);
    out.setup_s = static_cast<double>(NowNs() - out.spans.spans()[root].start_ns) * 1e-9;
    scenario.Run(traced, &out.obs);
    scenario.Collect(&out);
  }
  out.spans.End(root);
  if (traced) {
    SetObservability(false);
    for (const obs::ProfileSiteRow& row : obs::ProfileSiteRows()) {
      out.obs.sites[row.tag] = ObsReadout::Site{row.calls, row.wall_ns};
    }
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
    for (const char* name : kCounterNames) {
      out.obs.counters[name] = reg.GetCounter(name)->Total();
    }
  }
  out.wall_s = out.spans.spans()[root].seconds();
  out.run_s = out.spans.Seconds(out.shards > 1 ? "sim.ShardEngine.Run" : "sim.Simulator.Run");
  return out;
}

double SetupOnly(const ExperimentConfig& config) {
  SpanLog spans;
  const uint64_t start = NowNs();
  Scenario scenario(config, &spans);
  return static_cast<double>(NowNs() - start) * 1e-9;
}

namespace {

// Fixed-size part of a child's result; the slowdowns follow it on the pipe.
struct WireRun {
  uint64_t digest = 0;
  uint64_t events = 0;
  int32_t shards = 0;
  int32_t flows_requested = 0;
  int32_t flows_completed = 0;
  double setup_s = 0;
  double run_s = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;
  uint64_t topo_bytes = 0;
  uint64_t path_table_bytes = 0;
  uint64_t num_slowdowns = 0;
};

bool WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, p, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

[[noreturn]] void ChildMain(const ExperimentConfig& config, bool setup_only, int fd,
                            pid_t parent) {
  // Die with the benchmark process, so killing it never leaves a scenario
  // running.
  if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) {
    _exit(1);
  }
  ScenarioRun run;
  if (setup_only) {
    run.setup_s = SetupOnly(config);
  } else {
    run = RunScenario(config, /*traced=*/false);
  }
  WireRun wire;
  wire.digest = run.digest;
  wire.events = run.events;
  wire.shards = run.shards;
  wire.flows_requested = run.flows_requested;
  wire.flows_completed = run.flows_completed;
  wire.setup_s = run.setup_s;
  wire.run_s = run.run_s;
  wire.wall_s = run.wall_s;
  wire.peak_rss_mb = ReadPeakRssMb();
  wire.topo_bytes = run.topo_bytes;
  wire.path_table_bytes = run.path_table_bytes;
  wire.num_slowdowns = run.slowdowns.size();
  const bool ok = WriteAll(fd, &wire, sizeof(wire)) &&
                  WriteAll(fd, run.slowdowns.data(), run.slowdowns.size() * sizeof(double));
  close(fd);
  // _exit: the child must not run the parent's atexit handlers or flush its
  // copy of the parent's stdio buffers.
  _exit(ok ? 0 : 1);
}

}  // namespace

bool RunScenarioIsolated(const ExperimentConfig& config, bool setup_only, ScenarioRun* out,
                         std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    ChildMain(config, setup_only, fds[1], parent);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    bytes.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  WireRun wire;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || bytes.size() < sizeof(wire)) {
    *error = "scenario child failed (status " + std::to_string(status) + ")";
    return false;
  }
  std::memcpy(&wire, bytes.data(), sizeof(wire));
  if (bytes.size() != sizeof(wire) + wire.num_slowdowns * sizeof(double)) {
    *error = "scenario child returned a truncated result";
    return false;
  }
  *out = ScenarioRun{};
  out->seed = config.seed;
  out->digest = wire.digest;
  out->events = wire.events;
  out->shards = wire.shards;
  out->flows_requested = wire.flows_requested;
  out->flows_completed = wire.flows_completed;
  out->setup_s = wire.setup_s;
  out->run_s = wire.run_s;
  out->wall_s = wire.wall_s;
  out->peak_rss_mb = wire.peak_rss_mb;
  out->topo_bytes = wire.topo_bytes;
  out->path_table_bytes = wire.path_table_bytes;
  out->slowdowns.resize(wire.num_slowdowns);
  std::memcpy(out->slowdowns.data(), bytes.data() + sizeof(wire),
              wire.num_slowdowns * sizeof(double));
  return true;
}

}  // namespace perfbench
