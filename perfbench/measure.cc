#include "measure.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "harness/runner.h"
#include "queue_probe.h"
#include "workloads.h"

namespace perfbench {

namespace {

double SafeDiv(double num, double den) { return den > 0 ? num / den : 0; }

// Mean nanoseconds per call of a profile site, 0 when never called.
double NsPerCall(const ObsReadout::Site& site) {
  return SafeDiv(static_cast<double>(site.wall_ns), static_cast<double>(site.calls));
}

double SiteSeconds(const ObsReadout& obs, std::initializer_list<const char*> tags) {
  uint64_t ns = 0;
  for (const char* tag : tags) {
    ns += obs.site(tag).wall_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

}  // namespace

std::string Hex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return buf;
}

MetricSet EndToEndMetrics(const std::vector<ScenarioRun>& runs, const std::vector<double>& setups,
                          MetricSet* info) {
  std::vector<double> wall;
  std::vector<double> rss;
  std::vector<double> p50;
  std::vector<double> p99;
  int64_t requested = 0;
  int64_t completed = 0;
  for (const ScenarioRun& r : runs) {
    wall.push_back(r.wall_s);
    rss.push_back(r.peak_rss_mb);
    p50.push_back(Percentile(r.slowdowns, 50));
    p99.push_back(Percentile(r.slowdowns, 99));
    requested += r.flows_requested;
    completed += r.flows_completed;
  }
  const double completed_frac =
      SafeDiv(static_cast<double>(completed), static_cast<double>(requested));
  MetricSet m;
  m.Add("wall_s", Median(wall), "s");
  m.Add("setup_s", Median(setups), "s");
  m.Add("peak_rss_mb", Median(rss), "MB");
  m.Add("fct_slowdown_p50", Median(p50), "x");
  m.Add("flows_completed_frac", completed_frac, "frac");
  *info = MetricSet();
  info->Add("fct_slowdown_p99", Median(p99), "x");
  info->Add("flows_failed_frac", 1.0 - completed_frac, "frac");
  return m;
}

QueueProbe RunQueueProbe(uint64_t seed, int steps_per_batch) {
  const std::vector<lcmp::TimeNs> increments =
      HoldIncrements(lcmp::BuildTopology(FindWorkload("bso13_lcmp")->config), seed);
  QueueProbe p;
  p.depth4k_ns = QueueHoldNs(4096, increments, 5, steps_per_batch);
  p.depth256k_ns = QueueHoldNs(256 * 1024, increments, 5, steps_per_batch);
  return p;
}

MetricSet PerLayerMetrics(const ScenarioRun& untraced, const ScenarioRun& traced,
                          const QueueProbe& probe, std::vector<LayerRow>* rows) {
  const ObsReadout& obs = traced.obs;
  const SpanLog& spans = traced.spans;
  const double run_s = traced.run_s;
  const int n = std::max(traced.shards, 1);

  // sim.run split. Profile-site times are summed over worker threads, so on
  // a sharded run every term is expressed per worker (thread seconds / n):
  // the n workers' combined capacity n * run_s splits into site time,
  // busy time outside sites, and time spent waiting on the barrier.
  const double core_sites = SiteSeconds(obs, {"lcmp.select_port", "lcmp.monitor_tick"});
  const double transport_sites =
      SiteSeconds(obs, {"transport.pace", "transport.handle_data", "transport.handle_ack",
                        "transport.handle_nack", "transport.handle_cnp",
                        "transport.rto_recovery"});
  double busy_s = run_s * n;
  double busy_max_s = run_s;
  double stall_s = 0;
  double coord_s = 0;
  double windows = 0;
  double cross_items = 0;
  if (obs.has_barrier) {
    busy_s = 0;
    busy_max_s = 0;
    for (const auto& shard : obs.barrier.per_shard) {
      busy_s += static_cast<double>(shard.busy_ns) * 1e-9;
      busy_max_s = std::max(busy_max_s, static_cast<double>(shard.busy_ns) * 1e-9);
      stall_s += static_cast<double>(shard.stall_ns) * 1e-9;
    }
    coord_s = static_cast<double>(obs.barrier.coord_drain_ns + obs.barrier.coord_advance_ns +
                                  obs.barrier.coord_control_ns) *
              1e-9;
    windows = static_cast<double>(obs.barrier.windows);
    cross_items = static_cast<double>(obs.barrier.drained_items);
  }
  const double run_core = core_sites / n;
  const double run_transport = transport_sites / n;
  const double run_unattributed = (busy_s - core_sites - transport_sites) / n;
  const double run_shard_wait = run_s - run_core - run_transport - run_unattributed;

  const double topo_build = spans.Seconds("topo.BuildTopology");
  const double network_build = spans.Seconds("sim.Network");
  const double start_ticks = spans.Seconds("sim.StartPolicyTicks");
  const double provision = spans.Seconds("core.ControlPlane.Provision");
  const double generate =
      spans.Seconds("workload.OfferedLoadForUtilization") + spans.Seconds("workload.GenerateTraffic");
  const double schedule = spans.Seconds("transport.ScheduleFlow");
  const double transport_ctor = spans.Seconds("transport.RdmaTransport");
  const double util_begin = spans.Seconds("stats.LinkUtilizationTracker.Begin");
  const double collect = spans.Seconds("stats.Collect");
  const double outside_spans = spans.SelfSeconds(0);

  const int64_t tx = obs.counter("sim.port.tx_packets");
  const int64_t sent = obs.counter("transport.data_packets_sent");
  const int64_t retx = obs.counter("transport.retransmitted_packets");
  const int64_t lost = obs.counter("lcmp.dci.lost_packets");
  const int64_t cache_hits = obs.counter("lcmp.flow_cache.hits");
  const int64_t cache_lookups = cache_hits + obs.counter("lcmp.flow_cache.misses");
  const auto count = [](int64_t v) { return static_cast<double>(v); };
  char detail[256];

  rows->clear();
  std::snprintf(detail, sizeof(detail), "BuildTopology; %zu graph B", traced.topo_bytes);
  rows->push_back({"topo", topo_build, detail});
  std::snprintf(detail, sizeof(detail),
                "Network ctor %.4f s + ticks; run: barrier wait %.4f s; %" PRIu64
                " events, %" PRId64 " port tx",
                network_build, run_shard_wait, traced.events, tx);
  rows->push_back({"sim", network_build + start_ticks + run_shard_wait, detail});
  std::snprintf(detail, sizeof(detail), "Provision %.4f s; run: select_port %" PRIu64 " calls",
                provision, obs.site("lcmp.select_port").calls);
  rows->push_back({"core", provision + run_core, detail});
  std::snprintf(detail, sizeof(detail), "ctor+ScheduleFlow %.4f s; run: %" PRId64 " data pkts",
                transport_ctor + schedule, sent);
  rows->push_back({"transport", transport_ctor + schedule + run_transport, detail});
  rows->push_back({"workload", generate, "OfferedLoadForUtilization + GenerateTraffic"});
  rows->push_back({"stats", util_begin + collect, "LinkUtilizationTracker + FctRecorder readout"});
  std::snprintf(detail, sizeof(detail),
                "sim.run outside profile sites %.4f s (queue, port/link, hashing) + %.4f s "
                "outside spans",
                run_unattributed, outside_spans);
  rows->push_back({"unattributed", run_unattributed + outside_spans, detail});

  MetricSet m;
  m.Add("topo.build_s", topo_build, "s");
  m.Add("topo.bytes", static_cast<double>(traced.topo_bytes), "B");
  m.Add("topo.path_table_bytes", static_cast<double>(traced.path_table_bytes), "B");
  m.Add("sim.network_build_s", network_build, "s");
  m.Add("sim.run_s", run_s, "s");
  m.Add("sim.events", static_cast<double>(traced.events), "count");
  m.Add("sim.events_per_s", SafeDiv(static_cast<double>(traced.events), run_s), "1/s");
  m.Add("sim.run_unattributed_frac", SafeDiv(run_unattributed, run_s), "frac");
  m.Add("sim.queue.hold_ns.depth4k", probe.depth4k_ns, "ns");
  m.Add("sim.queue.hold_ns.depth256k", probe.depth256k_ns, "ns");
  m.Add("sim.port.tx_packets", count(tx), "count");
  m.Add("sim.port.ecn_marks", count(obs.counter("sim.port.ecn_marks")), "count");
  m.Add("sim.port.drops", count(obs.counter("sim.port.drops")), "count");
  m.Add("sim.dci.lost_packets", count(lost), "count");
  m.Add("sim.shard.busy_max_s", busy_max_s, "s");
  m.Add("sim.shard.stall_frac", SafeDiv(stall_s, busy_s + stall_s), "frac");
  m.Add("sim.shard.ceiling", SafeDiv(busy_s, busy_max_s), "ratio");
  m.Add("sim.shard.windows", windows, "count");
  m.Add("sim.shard.cross_items", cross_items, "count");
  m.Add("sim.shard.coord_s", coord_s, "s");
  m.Add("sim.shard.wait_s", run_shard_wait, "s");

  m.Add("core.provision_s", provision, "s");
  for (const char* site : {"select_port", "decide_new_flow", "monitor_tick"}) {
    const ObsReadout::Site s = obs.site(std::string("lcmp.") + site);
    m.Add(std::string("core.") + site + "_ns", NsPerCall(s), "ns");
    m.Add(std::string("core.") + site + "_calls", static_cast<double>(s.calls), "count");
  }
  m.Add("core.run_frac", SafeDiv(run_core, run_s), "frac");
  m.Add("core.new_flow_decisions", count(obs.counter("lcmp.router.new_flow_decisions")), "count");
  m.Add("core.flow_cache.hit_frac",
        SafeDiv(static_cast<double>(cache_hits), static_cast<double>(cache_lookups)), "frac");
  m.Add("core.flow_cache.evictions", count(obs.counter("lcmp.flow_cache.evictions")), "count");
  m.Add("core.fallback_decisions", count(obs.counter("lcmp.router.fallback_decisions")), "count");

  m.Add("transport.schedule_s", schedule, "s");
  for (const char* site : {"pace", "handle_data", "handle_ack", "handle_nack"}) {
    const ObsReadout::Site s = obs.site(std::string("transport.") + site);
    m.Add(std::string("transport.") + site + "_ns", NsPerCall(s), "ns");
    m.Add(std::string("transport.") + site + "_calls", static_cast<double>(s.calls), "count");
  }
  m.Add("transport.run_frac", SafeDiv(run_transport, run_s), "frac");
  m.Add("transport.data_packets_sent", count(sent), "count");
  m.Add("transport.retransmitted_packets", count(retx), "count");
  m.Add("transport.nacks", count(obs.counter("transport.nacks")), "count");
  m.Add("transport.timeouts", count(obs.counter("transport.timeouts")), "count");
  m.Add("transport.rto_recoveries", static_cast<double>(obs.site("transport.rto_recovery").calls),
        "count");
  m.Add("transport.goodput_frac",
        sent > 0 ? 1.0 - static_cast<double>(retx) / static_cast<double>(sent) : 0, "frac");
  m.Add("transport.retx_per_loss", SafeDiv(static_cast<double>(retx), static_cast<double>(lost)),
        "ratio");
  m.Add("transport.cc.lcp.delay_cuts", count(obs.counter("cc.lcp.delay_cuts")), "count");
  m.Add("transport.cc.lcp.ecn_cuts", count(obs.counter("cc.lcp.ecn_cuts")), "count");
  m.Add("transport.cc.dcqcn.cnps", count(obs.counter("cc.dcqcn.cnps")), "count");

  m.Add("workload.generate_s", generate, "s");
  m.Add("stats.collect_s", collect, "s");
  m.Add("stats.fct_slowdown_p99", Percentile(traced.slowdowns, 99), "x");
  m.Add("stats.flows_failed_frac",
        SafeDiv(static_cast<double>(traced.flows_requested - traced.flows_completed),
                static_cast<double>(traced.flows_requested)),
        "frac");
  for (const LayerRow& row : *rows) {
    m.Add(row.layer + ".self_s", row.self_s, "s");
  }
  m.Add("unattributed.wall_frac", SafeDiv(rows->back().self_s, traced.wall_s), "frac");
  m.Add("obs.trace_overhead_frac", SafeDiv(traced.wall_s, untraced.wall_s) - 1.0, "frac");
  return m;
}

Check CheckAgainstRunExperiment(const lcmp::ExperimentConfig& config) {
  const uint64_t composed = RunScenario(config, /*traced=*/false).digest;
  const uint64_t reference = lcmp::ExperimentDigest(lcmp::RunExperiment(config));
  Check c;
  c.name = "composed_equals_run_experiment";
  c.ok = composed == reference;
  c.detail = "flows=" + std::to_string(config.num_flows) + " seed=" + std::to_string(config.seed) +
             " composed=" + Hex(composed) + " RunExperiment=" + Hex(reference);
  return c;
}

}  // namespace perfbench
