/**
 * @file
 * The fleet part of serve-mix's traced run: the serving mix through
 * `fleet::Fleet` — 2 shards x 2 paper-FAST devices, Zipf tenants over
 * two million simulated users, `PlannerMode::online`, steady open
 * loop. It is the only load on the router, the Zipf/`makeRequest`
 * path of `TrafficGen`, `core::PlannerSession` and config-keyed
 * plan-cache entries.
 *
 * Traffic is `bench/serve_fleet`'s: Zipf exponent 1.2, shard queue
 * depth 16, priority queue, batch 4, 10 ms epochs. With it the fleet
 * stays free of rejections and within the 200 ms p99 SLO up to a mean
 * gap of 5.0 ms (200 req/s, 64 populations of 0.4-0.6 s); at 4.5 ms
 * and below the router starts rejecting. The pass runs at 80% of that
 * capacity: a mean gap of 6.25 ms (160 req/s).
 *
 * It is not a measured workload: each tenant keeps one workload, so a
 * population's load is decided by the workloads its few head tenants
 * drew, and per-population p99 (90-180 ms, quartiles) and host cost per
 * request (8.7-15.8 ms) vary too much between seeds for a gated metric
 * (NOTES.md, "Fleet").
 *
 * Fleet numbers come from request outcomes: the e2e of every
 * completion and the count of every router rejection, timeout and
 * stranded request. `FleetStats::goodput_rps` is not used, because it
 * divides by the traffic horizon rather than by the time the fleet
 * actually served, so a run whose backlog drains past the horizon
 * reports goodput above its throughput.
 */
#include <cstdio>
#include <memory>

#include "fleet/fleet.hpp"
#include "sim/system.hpp"
#include "surfaces.hpp"

namespace perfbench {
namespace {

using namespace fast;

constexpr std::size_t kShards = 2;
constexpr std::size_t kDevicesPerShard = 2;
constexpr std::size_t kQueueDepth = 16;
constexpr double kZipfExponent = 1.2;
constexpr double kMeanGapNs = 6.25e6;
constexpr double kHorizonNs = 0.6e9;
constexpr double kEpochNs = 10e6;
constexpr std::size_t kPopulations = 2;
constexpr std::size_t kTenantPopulation = 2'000'000;
/** Span-tree ids of this pass start here, after serve-mix's. */
constexpr std::uint64_t kTreeBase = 100;

fleet::FleetOptions
fleetOptions()
{
    fleet::FleetOptions options;
    options.shards = kShards;
    options.shard.devices = kDevicesPerShard;
    options.shard.device = hw::FastConfig::fast();
    options.shard.scheduler =
        serve::SchedulerOptions::builder()
            .policy(serve::QueuePolicy::priority)
            .maxQueueDepth(kQueueDepth)
            .maxBatch(4)
            .plannerMode(core::PlannerMode::online)
            .build()
            .value();
    options.epoch_ns = kEpochNs;
    options.horizon_ns = kHorizonNs;
    return options;
}

class FleetZipf final : public Surface
{
  public:
    void
    setup(const RunConfig &config) override
    {
        seed_ = config.seed;
        mix_ = fleet::TrafficGen::servingMix();
        replay_json_.assign(kPopulations, "");
    }

    void tracedPass(Spans &spans, Tally &tally) override;
    void layerMetrics(const Spans &spans, Sheet &sheet) override;

  private:
    fleet::TrafficOptions
    traffic(std::size_t k) const
    {
        fleet::TrafficOptions options;
        options.seed = subSeed(seed_, 100 + k);
        options.mean_interarrival_ns = kMeanGapNs;
        options.tenant_population = kTenantPopulation;
        options.zipf_exponent = kZipfExponent;
        return options;
    }

    std::uint64_t seed_ = 0;
    std::vector<fleet::WorkloadSpec> mix_;
    /** Each population's first FleetStats JSON; later passes replay it. */
    std::vector<std::string> replay_json_;

    // Results of the last pass.
    std::vector<double> execute_ms_;
    std::vector<fleet::FleetStats> stats_;
    double fleet_wall_ms_ = 0;
};

void
FleetZipf::tracedPass(Spans &spans, Tally &tally)
{
    // Per-workload cold planning cost: the unit the planner session
    // and the plan cache spend inside Fleet::run.
    spans.setTree(kTreeBase);
    execute_ms_.clear();
    {
        sim::FastSystem system(hw::FastConfig::fast());
        for (const auto &spec : mix_) {
            auto t0 = Clock::now();
            Spans::Scope span(spans, "sim.system.execute.fleet");
            tally.op(system.execute(spec.stream).stats.total_ns > 0,
                     "cold plan of " + spec.stream.name);
            execute_ms_.push_back(msSince(t0));
        }
    }

    stats_.clear();
    fleet_wall_ms_ = 0;
    for (std::size_t k = 0; k < kPopulations; ++k) {
        spans.setTree(kTreeBase + 1 + k);
        {
            // The generator alone, as Fleet::run drives it: one window
            // per epoch over the horizon.
            Spans::Scope span(spans, "fleet.trafficgen.generate");
            fleet::TrafficGen gen(mix_, traffic(k));
            for (double t = 0; t < kHorizonNs; t += kEpochNs)
                gen.generate(t, t + kEpochNs);
        }
        auto t0 = Clock::now();
        fleet::FleetStats stats;
        {
            Spans::Scope span(spans, "fleet.fleet.run");
            fleet::Fleet fleet(fleetOptions(), mix_, traffic(k));
            stats = fleet.run();
        }
        fleet_wall_ms_ += msSince(t0);
        try {
            stats.requireBalanced();
        } catch (const std::exception &e) {
            tally.op(false, std::string("fleet accounting: ") + e.what());
            continue;
        }
        // Router rejections, shard rejections, timeouts and stranded
        // requests all count against the generated attempts.
        tally.ops(stats.generated,
                  stats.router_rejected + stats.rejected + stats.timed_out,
                  "fleet requests");
        std::string json = fleet::fleetStatsJson(stats);
        if (replay_json_[k].empty())
            replay_json_[k] = std::move(json);
        else
            tally.op(json == replay_json_[k],
                     "fleetStatsJson same-seed replay");
        stats_.push_back(std::move(stats));
    }
}

void
FleetZipf::layerMetrics(const Spans &, Sheet &sheet)
{
    double per_execute = 0;
    for (double ms : execute_ms_)
        per_execute += ms / double(execute_ms_.size());

    std::size_t measurements = 0, replans = 0, misses = 0;
    std::size_t locality = 0, routed = 0, rejected = 0, generated = 0;
    std::vector<double> e2e_ns;
    for (const auto &stats : stats_) {
        locality += stats.locality_hits;
        routed += stats.routed;
        rejected += stats.router_rejected;
        generated += stats.generated;
        for (const auto &shard : stats.shards) {
            measurements += shard.stats.planner.measurements;
            replans += shard.stats.planner.replans;
            misses += shard.stats.plan_cache_misses;
            for (const auto &c : shard.stats.completions)
                e2e_ns.push_back(c.e2eNs());
        }
    }
    sheet.set("core.planner_session.measurements", double(measurements),
              "count", Domain::count);
    sheet.set("core.planner_session.replans", double(replans), "count",
              Domain::count);
    sheet.set("core.planner_session.measure_ms",
              double(measurements) * per_execute, "ms", Domain::host,
              "measurements x mean cold execute");
    sheet.set("fleet.router.locality_hit_rate",
              routed ? double(locality) / double(routed) : 0, "ratio",
              Domain::count);
    sheet.set("fleet.router.rejected", double(rejected), "count",
              Domain::count);
    sheet.set("fleet.fleet.self_ms",
              fleet_wall_ms_ - double(misses) * per_execute, "ms",
              Domain::host, "Fleet::run wall - misses x mean cold execute");
    char detail[96];
    std::snprintf(detail, sizeof(detail), "%zu of %zu requests completed",
                  e2e_ns.size(), generated);
    sheet.set("fleet.fleet.p99_ms", p99Ms(std::move(e2e_ns)), "ms",
              Domain::sim, detail);
    sheet.set("fleet.fleet.host_us_per_req",
              generated ? fleet_wall_ms_ * 1e3 / double(generated) : 0, "us",
              Domain::host, "Fleet::run wall / generated requests");
}

} // namespace

std::unique_ptr<Surface>
makeFleetZipf()
{
    return std::make_unique<FleetZipf>();
}

} // namespace perfbench
