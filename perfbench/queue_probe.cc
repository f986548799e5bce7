#include "queue_probe.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/packet.h"

namespace perfbench {

namespace {

volatile uint64_t g_probe_sink = 0;

// Capture the size of a packet-delivery closure (~80 B), so slot moves cost
// what the simulator's do.
struct Payload {
  std::array<uint64_t, 10> words{};
};

}  // namespace

std::vector<lcmp::TimeNs> HoldIncrements(const lcmp::Graph& graph, uint64_t seed) {
  std::vector<lcmp::TimeNs> long_haul;
  std::vector<lcmp::TimeNs> intra_dc;
  for (const lcmp::LinkSpec& link : graph.links()) {
    const lcmp::TimeNs serialization = static_cast<lcmp::TimeNs>(
        lcmp::kDefaultMtuPayload * 8.0 * 1e9 / static_cast<double>(link.rate_bps));
    const bool inter_dc = graph.vertex(link.a).dc != graph.vertex(link.b).dc;
    (inter_dc ? long_haul : intra_dc).push_back(link.delay_ns + serialization);
  }
  // A precomputed ring keeps the RNG out of the timed loop.
  lcmp::Rng rng(seed);
  std::vector<lcmp::TimeNs> inc(1 << 16);
  for (lcmp::TimeNs& d : inc) {
    const std::vector<lcmp::TimeNs>& from =
        rng.NextDouble() < kLongHaulShare ? long_haul : intra_dc;
    d = from[rng.NextBounded(from.size())];
  }
  return inc;
}

double QueueHoldNs(size_t depth, const std::vector<lcmp::TimeNs>& inc, int batches,
                   int steps_per_batch) {
  const size_t mask = inc.size() - 1;
  size_t next = 0;
  uint64_t key = 0;
  uint64_t sink = 0;
  lcmp::EventQueue q;
  Payload payload;
  for (size_t i = 0; i < depth; ++i) {
    payload.words[0] = i;
    q.PushKeyed(inc[next++ & mask], ++key, [payload, &sink] { sink += payload.words[0]; });
  }
  auto step = [&] {
    lcmp::TimeNs t = 0;
    lcmp::EventFn fn = q.Pop(&t);
    fn();
    payload.words[0] = key;
    q.PushKeyed(t + inc[next++ & mask], ++key, [payload, &sink] { sink += payload.words[0]; });
  };
  for (size_t i = 0; i < depth; ++i) {
    step();
  }
  std::vector<double> per_step;
  for (int b = 0; b < batches; ++b) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < steps_per_batch; ++i) {
      step();
    }
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    per_step.push_back(elapsed.count() / steps_per_batch);
  }
  std::sort(per_step.begin(), per_step.end());
  // `sink` depends on every executed closure; publishing it keeps the loop
  // from being optimized away.
  g_probe_sink = sink;
  return per_step[per_step.size() / 2];
}

}  // namespace perfbench
