#include "workloads.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using lcmp::ExperimentConfig;

namespace {

// bso13, all ordered DC pairs, WebSearch at 30% load, 2000 flows (Fig. 7).
ExperimentConfig Bso13AllPairs() {
  ExperimentConfig c;
  c.topo = lcmp::TopologyKind::kBso13;
  c.pairing = lcmp::PairingKind::kAllToAll;
  c.workload = lcmp::WorkloadKind::kWebSearch;
  c.load = 0.3;
  c.num_flows = 2000;
  return c;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  Workload lcmp_seq;
  lcmp_seq.name = "bso13_lcmp";
  lcmp_seq.config = Bso13AllPairs();
  lcmp_seq.config.policy = lcmp::PolicyKind::kLcmp;
  lcmp_seq.nominal_rep_s = 5.0;
  lcmp_seq.setup_only_passes = 40;
  lcmp_seq.pinned_digest_seed7 = 0x823a9b3849a30e07ULL;
  all.push_back(lcmp_seq);

  Workload ecmp_sharded;
  ecmp_sharded.name = "bso13_ecmp_sharded";
  ecmp_sharded.config = Bso13AllPairs();
  ecmp_sharded.config.policy = lcmp::PolicyKind::kEcmp;
  ecmp_sharded.config.shards = 2;
  ecmp_sharded.nominal_rep_s = 4.0;
  ecmp_sharded.setup_only_passes = 40;
  ecmp_sharded.pinned_digest_seed7 = 0x3afbc77d1f1aef61ULL;
  all.push_back(ecmp_sharded);

  Workload lossy;
  lossy.name = "testbed8_lossy_irn";
  lossy.config.topo = lcmp::TopologyKind::kTestbed8;
  lossy.config.pairing = lcmp::PairingKind::kEndpointPair;
  lossy.config.policy = lcmp::PolicyKind::kLcmp;
  lossy.config.workload = lcmp::WorkloadKind::kWebSearch;
  lossy.config.load = 0.3;
  lossy.config.num_flows = 3000;
  lossy.config.reliability = lcmp::ReliabilityMode::kIrn;
  lossy.config.dci_loss_rate = 1e-3;
  lossy.config.max_inflight_bytes = 4LL * 1024 * 1024;
  lossy.config.cc.inter = "lcp";
  lossy.config.cc.intra = "dcqcn";
  lossy.nominal_rep_s = 5.0;
  lossy.setup_only_passes = 40;
  lossy.pinned_digest_seed7 = 0x31db08611b44e1cdULL;
  all.push_back(lossy);

  Workload dragonfly;
  dragonfly.name = "dragonfly200_layered";
  dragonfly.config.topo = lcmp::TopologyKind::kDragonfly;
  dragonfly.config.num_dcs = 200;
  dragonfly.config.topo_seed = 7;
  dragonfly.config.fabric = lcmp::FabricKind::kLeafSpine;
  dragonfly.config.fabric_leaves = 16;
  dragonfly.config.fabric_spines = 8;
  dragonfly.config.hosts_per_dc = 16;
  dragonfly.config.pairing = lcmp::PairingKind::kAllToAll;
  dragonfly.config.path_strategy = lcmp::PathStrategyKind::kLayered;
  dragonfly.config.path_layers = 4;
  dragonfly.config.policy = lcmp::PolicyKind::kLcmp;
  dragonfly.config.workload = lcmp::WorkloadKind::kWebSearch;
  dragonfly.config.load = 0.25;
  dragonfly.config.num_flows = 1000;
  dragonfly.config.lcmp.flow_cache_auto = true;
  dragonfly.nominal_rep_s = 8.5;
  dragonfly.setup_only_passes = 2;
  dragonfly.pinned_digest_seed7 = 0xb5c64f03c2513a7fULL;
  all.push_back(dragonfly);

  return all;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

uint64_t RepSeed(uint64_t seed, int rep) {
  return seed + static_cast<uint64_t>(rep) * 1000003ULL;
}

int RepCount(const Workload& w, int seconds) {
  const int n = static_cast<int>(std::lround(seconds / w.nominal_rep_s));
  return std::clamp(n, 2, 64);
}

}  // namespace perfbench
