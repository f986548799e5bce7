// Event-queue hold model: the classic priority-queue benchmark in which every
// step pops the earliest event and pushes one replacement, so the population
// stays at `depth`. Drives lcmp::EventQueue::PushKeyed / Pop directly with
// packet-sized closures, at the queue depths real runs reach (bso13 all-pairs
// averages ~250k pending events), with time increments taken from a real
// topology's links.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "topo/graph.h"

namespace perfbench {

// Share of hold steps that model a delivery across an inter-DC link; the
// rest model a hop over an intra-DC link. This split is an assumption, not a
// measurement: the simulator offers no view of its pending events from
// outside src/.
inline constexpr double kLongHaulShare = 0.75;

// 2^16 hold-step increments drawn from `seed`. A step is one link traversal:
// with probability kLongHaulShare a uniformly chosen inter-DC link of
// `graph`, otherwise a uniformly chosen intra-DC link. Its increment is the
// link's propagation delay plus the serialization of one default-MTU DATA
// packet at the link's rate. `graph` must have links of both kinds.
std::vector<lcmp::TimeNs> HoldIncrements(const lcmp::Graph& graph, uint64_t seed);

// Median host nanoseconds per hold step (one Pop + one PushKeyed) over
// `batches` batches of `steps_per_batch` steps, after one warm-up pass that
// cycles the whole population once. `increments` is used as a ring; its size
// must be a power of two.
double QueueHoldNs(size_t depth, const std::vector<lcmp::TimeNs>& increments, int batches,
                   int steps_per_batch);

}  // namespace perfbench
