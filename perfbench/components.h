// Timed calls into the program's public entry points, one layer at a time.
// Each returns nanoseconds per call: the median of several timed batches.
#ifndef PERFBENCH_COMPONENTS_H_
#define PERFBENCH_COMPONENTS_H_

#include <cstdint>

#include "planet/client.h"
#include "workload/workload.h"

namespace perfbench {

/// Thread CPU seconds of a fixed reference computation that calls no
/// program code: hash-map updates, a binary heap and small allocations, then
/// binomial tails and exponentials — the mix of the simulator's hot path and
/// the likelihood estimator. On a shared machine the
/// speed of every CPU-bound loop drifts by tens of percent over minutes;
/// the reference drifts with it, so the benchmark reports its CPU figures
/// scaled to a fixed reference time.
double ReferenceLoopSeconds();

/// Simulator::Schedule + Simulator::Step pairs with `depth` events pending.
double TimeScheduleStep(size_t depth, uint64_t seed);

/// Network::Send between every DC pair of the five-DC WAN preset, plus the
/// delivery event it schedules.
double TimeSend(uint64_t seed);

/// Store::TryAcceptOption + Store::ApplyOrLearn on keys drawn from the
/// workload's key space.
double TimeAcceptApply(const planet::WorkloadConfig& wl, uint64_t seed);

/// Store::Read on keys drawn from the workload's key space.
double TimeStoreRead(const planet::WorkloadConfig& wl, uint64_t seed);

/// KeyChooser::NextDistinct for one transaction's key set.
double TimeNextDistinct(const planet::WorkloadConfig& wl, uint64_t seed);

/// Histogram::Record of WAN-like round-trip samples (the latency model's
/// per-vote upkeep).
double TimeHistogramRecord(uint64_t seed);

/// CommitLikelihoodEstimator::Estimate / EstimateFresh against a finished
/// run's learned models, on in-flight views of the workload's write sets.
struct EstimateTimes {
  double estimate_ns = 0;
  double estimate_fresh_ns = 0;
};
EstimateTimes TimeEstimator(planet::PlanetContext& ctx,
                            const planet::WorkloadConfig& wl, uint64_t seed,
                            planet::SimTime now);

}  // namespace perfbench

#endif  // PERFBENCH_COMPONENTS_H_
