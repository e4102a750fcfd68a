/**
 * @file
 * The performance surfaces the benchmark drives, plus the serving
 * helpers they share.
 */
#ifndef PERFBENCH_SURFACES_HPP
#define PERFBENCH_SURFACES_HPP

#include <memory>
#include <vector>

#include "bench.hpp"
#include "serve/stats.hpp"

namespace perfbench {

/** Six-tenant serving mix on one 4-device pool (sim + host). */
std::unique_ptr<Surface> makeServeMix();
/** The same mix through a 2x2 fleet with online planning (traced only). */
std::unique_ptr<Surface> makeFleetZipf();
/** Functional CKKS on the host: bootstrap and key switching. */
std::unique_ptr<Surface> makeCkksOps();

/**
 * serve-mix's capacity search for @p seed under a p99 SLO of
 * @p slo_ms (exposed for the benchmark's self-test).
 */
double serveCapacityRps(std::uint64_t seed, double slo_ms);

/**
 * Scheduler counters over the sessions in @p runs: batches, mean
 * batch size, device utilization range and queueing p99 (sim).
 */
void schedulerCounters(const std::vector<const fast::serve::ServeStats *> &runs,
                       Sheet &sheet);

/** p99 (nearest rank) of @p samples_ns, in ms. */
double p99Ms(std::vector<double> samples_ns);

} // namespace perfbench

#endif // PERFBENCH_SURFACES_HPP
