/**
 * @file
 * serve-mix: the six-tenant `TrafficGen::servingMix()` as a Poisson
 * open loop against one 4-device paper-FAST pool (priority queue,
 * batch 4, planner off — the `BENCH_serve.json` configuration).
 *
 * The open loop runs in simulated time: every arrival is stamped
 * before the scheduler sees it, so the generator can never be late and
 * each request's latency is measured from the moment it was due.
 *
 * Latency at a fixed rate is read from a segmented session: 24
 * independent 1,000-request Poisson traces (sub-seeds of the run seed)
 * fed to one `SchedulerSession`, three idle simulated seconds apart so
 * each segment starts drained. The metric is the median over segments
 * of each segment's p99. Near the knee a single trace's p99 is decided
 * by its share of 40 ms ResNet-20 requests and swings by 3x between
 * traces; the median segment is steady. Feeding segments one at a time
 * also keeps memory bounded: every request owns a copy of its trace.
 *
 * Host cost here is planning (one cold `FastSystem::execute` per
 * workload per run) plus the scheduler's dispatch path; the traced
 * pass splits the planning into the public calls it is made of
 * (`Aether::analyze/select`, `Hemera::plan`, `Lowering::lower`,
 * `Simulator::run`) and checks that they reproduce `execute`.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "baseline/published.hpp"
#include "fleet/trafficgen.hpp"
#include "serve/report.hpp"
#include "serve/scheduler.hpp"
#include "sim/system.hpp"
#include "surfaces.hpp"
#include "trace/workloads.hpp"

namespace perfbench {
namespace {

using namespace fast;

constexpr std::size_t kDevices = 4;
constexpr double kRateLowRps = 250;
constexpr double kRateHighRps = 350;
/** Requests per segment: its p99 then has ten samples beyond it. */
constexpr std::size_t kSegmentRequests = 1000;
/** Segments per fixed rate, and per capacity probe. */
constexpr std::size_t kRateSegments = 24;
constexpr std::size_t kProbeSegments = 6;
/** Idle simulated time between segments, so each starts drained. */
constexpr double kDrainGapNs = 3e9;
/** Capacity SLO on p99 end-to-end latency. */
constexpr double kSloMs = 200;
/** Bisection over [200, 520] req/s: 5 steps resolve 10 req/s. */
constexpr double kCapacityFloorRps = 200;
constexpr double kCapacityCeilingRps = 520;
constexpr int kCapacitySteps = 5;
/** The committed BENCH_serve.json trace. */
constexpr std::size_t kLegacyRequests = 60;
constexpr double kLegacyGapNs = 2e6;
constexpr std::uint64_t kLegacySeed = 42;
/** `Scheduler::run` host-timing traces at 250 req/s, cycled by rounds. */
constexpr std::size_t kHostTraces = 5;
/**
 * Arrival stream ids. Segment k of every rate uses stream
 * kSegmentStream + k, so the traces at different rates are scaled
 * copies of each other; the host-timing traces are segments 0..4.
 */
constexpr std::uint64_t kSegmentStream = 10;

serve::SchedulerOptions
servingOptions()
{
    return serve::SchedulerOptions::builder()
        .policy(serve::QueuePolicy::priority)
        .maxQueueDepth(256)
        .maxBatch(4)
        .build()
        .value();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Per-segment outcome of a segmented session. */
struct Segments {
    serve::ServeStats stats;
    Samples p99_ms;
    Samples drain_ms;  ///< last completion - last arrival, per segment
};

/** Per-trace results of the decomposed planning in the traced pass. */
struct PlannedTrace {
    std::string name;
    std::size_t mct_sites = 0;
    std::size_t kernels = 0;
    std::size_t prefetch_hits = 0;
    std::size_t prefetch_misses = 0;
    double hbm_stall_ns = 0;
    double select_ms = 0;
    double execute_ms = 0;
    double sim_ms = 0;
};

class ServeMix final : public Surface
{
  public:
    void
    setup(const RunConfig &config) override
    {
        seed_ = config.seed;
        baseline_path_ = config.serve_baseline;
        mix_ = fleet::TrafficGen::servingMix();
        plan_ms_.assign(mix_.size(), {});
        table5_ = trace::allBenchmarks();
        pool_.emplace(serve::DevicePool::builder()
                          .add(hw::FastConfig::fast(), kDevices)
                          .build()
                          .value());
    }

    void measure(Sheet &sheet, Tally &tally) override;
    void sampleRound(std::size_t round, Tally &tally) override;
    void report(Sheet &sheet) override;
    void tracedPass(Spans &spans, Tally &tally) override;
    void layerMetrics(const Spans &spans, Sheet &sheet) override;

    double capacityRps(double slo_ms, Tally &tally);

  private:
    std::vector<serve::Request>
    arrivals(double rate_rps, std::size_t count, std::uint64_t stream) const
    {
        return fleet::TrafficGen::openLoop(mix_, count, 1e9 / rate_rps,
                                           subSeed(seed_, stream));
    }

    /** One `Scheduler::run`; accounting holes count as a failure. */
    std::optional<serve::ServeStats>
    serveOnce(std::vector<serve::Request> arrivals, Tally &tally,
              double *wall_s = nullptr)
    {
        serve::Scheduler scheduler(*pool_, servingOptions());
        auto t0 = Clock::now();
        serve::ServeStats stats = scheduler.run(std::move(arrivals));
        if (wall_s)
            *wall_s = secondsSince(t0);
        try {
            stats.requireBalanced();
        } catch (const std::exception &e) {
            tally.op(false, std::string("serve accounting: ") + e.what());
            return std::nullopt;
        }
        return stats;
    }

    /** Spans open only when @p spans is armed (the traced pass). */
    std::optional<Segments> serveSegments(double rate_rps,
                                          std::size_t segments,
                                          Spans &spans, Tally &tally);
    bool capacityProbe(double rate_rps, double slo_ms, Tally &tally);
    /** One cold `FastSystem::execute` of each serving workload, timed. */
    void planColdOnce(Tally &tally);
    void legacyCheck(Tally &tally);
    /**
     * Time `Scheduler::run` on host trace @p k. The first run keeps its
     * JSON; every later run is a replay that must match it.
     */
    void hostTimedRun(std::size_t k, Tally &tally);
    double paperErrorPct() const;

    std::uint64_t seed_ = 0;
    std::string baseline_path_;
    std::vector<fleet::WorkloadSpec> mix_;
    std::vector<trace::OpStream> table5_;
    std::optional<serve::DevicePool> pool_;

    // Host samples (cold plans per serving workload); every host-timing
    // trace's first JSON, for replays.
    std::vector<Samples> plan_ms_;
    Samples serve_us_;
    std::vector<std::string> replay_json_;

    // Traced-pass results.
    std::size_t trace_ops_ = 0;
    std::vector<PlannedTrace> planned_;
    double helr1024_sim_ms_ = 0;
    std::optional<serve::ServeStats> low_, high_;
    double low_wall_ms_ = 0;
};

std::optional<Segments>
ServeMix::serveSegments(double rate_rps, std::size_t segments, Spans &spans,
                        Tally &tally)
{
    serve::SchedulerSession session(*pool_, servingOptions(), {});
    std::vector<double> last_arrival_ns(segments, 0);
    double offset_ns = 0;
    std::uint64_t id = 0;
    for (std::size_t k = 0; k < segments; ++k) {
        std::vector<serve::Request> trace;
        {
            Spans::Scope span(spans, "fleet.trafficgen.generate");
            trace = arrivals(rate_rps, kSegmentRequests, kSegmentStream + k);
        }
        for (auto &request : trace) {
            request.id = id++;
            request.submit_ns += offset_ns;
            last_arrival_ns[k] = std::max(last_arrival_ns[k],
                                          request.submit_ns);
        }
        offset_ns = last_arrival_ns[k] + kDrainGapNs;
        Spans::Scope span(spans, "serve.scheduler.session");
        session.offer(std::move(trace));
        session.advanceTo(offset_ns);
    }
    Segments out;
    {
        Spans::Scope span(spans, "serve.scheduler.session");
        out.stats = session.finish();
    }
    try {
        out.stats.requireBalanced();
    } catch (const std::exception &e) {
        tally.op(false, std::string("serve accounting: ") + e.what());
        return std::nullopt;
    }

    std::vector<std::vector<double>> e2e_ns(segments);
    std::vector<double> done_ns(segments, 0);
    for (const auto &c : out.stats.completions) {
        std::size_t k = c.request_id / kSegmentRequests;
        e2e_ns[k].push_back(c.e2eNs());
        done_ns[k] = std::max(done_ns[k], c.done_ns);
    }
    for (std::size_t k = 0; k < segments; ++k) {
        out.p99_ms.add(p99Ms(std::move(e2e_ns[k])));
        out.drain_ms.add((done_ns[k] - last_arrival_ns[k]) / 1e6);
    }
    return out;
}

bool
ServeMix::capacityProbe(double rate_rps, double slo_ms, Tally &tally)
{
    // A rate passes when nothing is rejected or timed out and the
    // median segment meets the SLO and drains within it after its last
    // arrival; a backlog that grows over a segment shows as a drain
    // far beyond one batch's service time.
    Spans untraced;
    auto run = serveSegments(rate_rps, kProbeSegments, untraced, tally);
    tally.op(run.has_value(), "capacity probe");
    return run && run->stats.rejected == 0 && run->stats.timed_out == 0 &&
           run->p99_ms.median() <= slo_ms &&
           run->drain_ms.median() <= slo_ms;
}

double
ServeMix::capacityRps(double slo_ms, Tally &tally)
{
    double lo = kCapacityFloorRps, hi = kCapacityCeilingRps;
    bool passed = false;
    for (int step = 0; step < kCapacitySteps; ++step) {
        double mid = 0.5 * (lo + hi);
        bool ok = capacityProbe(mid, slo_ms, tally);
        passed = passed || ok;
        (ok ? lo : hi) = mid;
    }
    // Every probe failed: the floor itself must pass, or there is no
    // capacity to report.
    if (!passed && !capacityProbe(lo, slo_ms, tally))
        return 0;
    return lo;
}

void
ServeMix::planColdOnce(Tally &tally)
{
    // What every new device config or design point costs: one cold
    // planning of each serving workload on paper FAST.
    sim::FastSystem system(hw::FastConfig::fast());
    for (std::size_t i = 0; i < mix_.size(); ++i) {
        auto t0 = Clock::now();
        auto result = system.execute(mix_[i].stream);
        plan_ms_[i].add(msSince(t0));
        tally.op(result.stats.total_ns > 0,
                 "cold plan of " + mix_[i].stream.name);
    }
}

void
ServeMix::legacyCheck(Tally &tally)
{
    // The committed 60-request trace must reproduce the 4-device block
    // of BENCH_serve.json byte for byte.
    auto stats = serveOnce(
        fleet::TrafficGen::openLoop(mix_, kLegacyRequests, kLegacyGapNs,
                                    kLegacySeed),
        tally);
    if (!stats)
        return;
    std::string block = serve::serveStatsJson(*stats, "    ");
    std::string committed = readFile(baseline_path_);
    bool ok = !committed.empty() && committed.find(block) != std::string::npos;
    std::printf("serve-mix: legacy trace makespan_ns %.1f throughput_rps "
                "%.3f (%s committed BENCH_serve.json)\n",
                stats->makespan_ns, stats->throughput_rps,
                ok ? "matches" : "DIFFERS FROM");
    tally.op(ok, "legacy trace reproduces BENCH_serve.json");
}

double
ServeMix::paperErrorPct() const
{
    sim::FastSystem system(hw::FastConfig::fast());
    const auto &paper = baseline::publishedFast();
    const std::pair<const char *, double> rows[] = {
        {"Bootstrap", paper.bootstrap_ms},
        {"HELR256", paper.helr256_ms},
        {"HELR1024", paper.helr1024_ms},
        {"ResNet-20", paper.resnet_ms},
    };
    double log_sum = 0;
    for (const auto &[name, paper_ms] : rows) {
        auto it = std::find_if(table5_.begin(), table5_.end(),
                               [&](const trace::OpStream &s) {
                                   return s.name == name;
                               });
        if (it == table5_.end())
            return -1;
        double sim_ms = system.execute(*it).stats.milliseconds();
        log_sum += std::log(std::abs(sim_ms / paper_ms - 1.0));
    }
    return 100.0 * std::exp(log_sum / 4.0);
}

void
ServeMix::measure(Sheet &sheet, Tally &tally)
{
    std::printf("serve-mix: open loop in simulated time; arrivals are "
                "stamped before each run, so the generator is never late "
                "(lateness 0 ns)\n");
    legacyCheck(tally);

    double error_pct = paperErrorPct();
    tally.op(error_pct > 0, "Table 5 rows planned");
    sheet.set("paper_error_pct", error_pct, "%", Domain::sim,
              "geomean |sim/paper - 1| over Table 5");

    double capacity = capacityRps(kSloMs, tally);
    tally.op(capacity > 0, "capacity search found a passing rate");
    sheet.set("sim_capacity_rps", capacity, "req/s", Domain::sim,
              "p99 <= 200 ms, no rejects, no growing backlog");

    Spans untraced;
    for (double rate : {kRateLowRps, kRateHighRps}) {
        auto run = serveSegments(rate, kRateSegments, untraced, tally);
        if (!run)
            continue;
        tally.ops(run->stats.submitted,
                  run->stats.rejected + run->stats.timed_out,
                  "requests at " + std::to_string(int(rate)) + " req/s");
        char name[64];
        std::snprintf(name, sizeof(name), "sim_p99_ms_%drps", int(rate));
        char detail[96];
        std::snprintf(detail, sizeof(detail),
                      "median p99 of %zu segments x %zu requests",
                      run->p99_ms.count(), kSegmentRequests);
        sheet.set(name, run->p99_ms.median(), "ms", Domain::sim, detail);
    }

    replay_json_.assign(kHostTraces, "");
}

void
ServeMix::hostTimedRun(std::size_t k, Tally &tally)
{
    double wall_s = 0;
    auto stats = serveOnce(
        arrivals(kRateLowRps, kSegmentRequests, kSegmentStream + k), tally,
        &wall_s);
    if (!stats)
        return;
    tally.ops(stats->submitted, stats->rejected + stats->timed_out,
              "requests at 250 req/s (Scheduler::run)");
    std::string json = serve::serveStatsJson(*stats);
    if (replay_json_[k].empty())
        replay_json_[k] = std::move(json);
    else
        tally.op(json == replay_json_[k], "serveStatsJson same-seed replay");
    serve_us_.add(wall_s * 1e6 / double(stats->submitted));
}

void
ServeMix::sampleRound(std::size_t round, Tally &tally)
{
    planColdOnce(tally);
    hostTimedRun(round % kHostTraces, tally);
}

void
ServeMix::report(Sheet &sheet)
{
    // Each workload's fastest cold plan, summed: a slow stretch of the
    // host that hits one execute does not spoil the other five.
    double plan_ms = 0;
    std::size_t samples = 0;
    for (const Samples &trace : plan_ms_) {
        plan_ms += trace.min();
        samples += trace.count();
    }
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "sum of per-workload fastest of %zu cold plans", samples);
    sheet.set("plan_host_ms", plan_ms, "ms", Domain::host, detail);
    sheet.setTiming("serve_host_us_per_req", serve_us_, "us");
}

void
ServeMix::tracedPass(Spans &spans, Tally &tally)
{
    std::vector<trace::OpStream> traces;
    {
        using Maker = trace::OpStream (*)();
        const Maker makers[] = {
            [] { return trace::bootstrapTrace(); },
            [] { return trace::helrTrace(256); },
            [] { return trace::resnetTrace(); },
            [] { return trace::pirTrace(); },
            [] { return trace::transformerTrace(); },
            [] { return trace::schemeSwitchTrace(); },
            [] { return trace::helrTrace(1024); },
        };
        for (Maker make : makers) {
            Spans::Scope span(spans, "trace.build");
            traces.push_back(make());
        }
    }
    trace_ops_ = 0;
    for (const auto &t : traces)
        trace_ops_ += t.ops.size();

    // Cold planning of each serving workload, split into its public
    // calls, then the one-call FastSystem::execute it must match.
    const hw::FastConfig config = hw::FastConfig::fast();
    sim::FastSystem system(config);
    planned_.clear();
    for (std::size_t i = 0; i + 1 < traces.size(); ++i) {
        const trace::OpStream &stream = traces[i];
        spans.setTree(i + 1);
        PlannedTrace planned;
        planned.name = stream.name;

        std::optional<core::Aether> aether;
        std::vector<core::MctEntry> mct;
        core::AetherConfig aether_config;
        {
            Spans::Scope span(spans, "core.aether.analyze");
            aether.emplace(system.makeAether());
            mct = aether->analyze(stream);
        }
        {
            auto t0 = Clock::now();
            Spans::Scope span(spans, "core.aether.select");
            aether_config = aether->select(mct);
            planned.select_ms = msSince(t0);
        }
        {
            Spans::Scope span(spans, "core.hemera.plan");
            core::Hemera hemera(system.costModel());
            core::PlanOptions options;
            options.mode = config.use_seed_evk
                               ? core::EvkTransferMode::seed_expanded
                               : core::EvkTransferMode::full;
            auto plan = hemera.plan(stream, aether_config, options);
            tally.op(plan.isOk(), "Hemera plan for " + stream.name);
            planned.prefetch_hits = hemera.stats().prefetch_hits;
            planned.prefetch_misses = hemera.stats().prefetch_misses;
        }
        sim::Lowering lowering(config, system.costModel());
        sim::Simulator simulator(config);
        sim::SimStats cold, warm;
        for (bool warm_evk : {false, true}) {
            std::vector<sim::LoweredOp> ops;
            {
                Spans::Scope span(spans, "sim.lowering.lower");
                ops = lowering.lower(stream, aether_config,
                                     config.use_aether, warm_evk);
            }
            for (const auto &op : ops)
                planned.kernels += op.kernels.size();
            Spans::Scope span(spans, "sim.simulator.run");
            (warm_evk ? warm : cold) = simulator.run(ops);
        }
        planned.mct_sites = mct.size();
        planned.hbm_stall_ns = cold.hbm_stall_ns;

        sim::WorkloadResult result;
        {
            auto t0 = Clock::now();
            Spans::Scope span(spans, "sim.system.execute");
            result = system.execute(stream);
            planned.execute_ms = msSince(t0);
        }
        planned.sim_ms = result.stats.milliseconds();
        tally.op(result.stats.total_ns == cold.total_ns &&
                     result.warm_stats.total_ns == warm.total_ns,
                 "decomposed planning matches FastSystem::execute for " +
                     stream.name);
        planned_.push_back(planned);
    }
    {
        spans.setTree(traces.size());
        Spans::Scope span(spans, "sim.system.execute.table5");
        helr1024_sim_ms_ = system.execute(traces.back()).stats.milliseconds();
    }

    // Scheduler::run on the first 250 req/s host trace (its wall minus
    // planning is the scheduler's own cost), then the 350 req/s
    // segmented session the scheduler counters are read from.
    spans.setTree(traces.size() + 1);
    {
        std::vector<serve::Request> trace;
        {
            Spans::Scope span(spans, "fleet.trafficgen.generate");
            trace = arrivals(kRateLowRps, kSegmentRequests, kSegmentStream);
        }
        auto t0 = Clock::now();
        Spans::Scope span(spans, "serve.scheduler.run");
        low_ = serveOnce(std::move(trace), tally);
        low_wall_ms_ = msSince(t0);
        tally.op(low_.has_value(), "traced Scheduler::run");
    }
    spans.setTree(traces.size() + 2);
    auto run = serveSegments(kRateHighRps, kRateSegments, spans, tally);
    tally.op(run.has_value(), "traced segmented session");
    high_.reset();
    if (run)
        high_ = std::move(run->stats);
}

void
ServeMix::layerMetrics(const Spans &spans, Sheet &sheet)
{
    auto host = [&](const char *name, double ms) {
        sheet.set(name, ms, "ms", Domain::host);
    };
    host("trace.build_ms", spans.totalMs("trace.build"));
    sheet.set("trace.ops", double(trace_ops_), "count", Domain::count);
    host("fleet.trafficgen.generate_ms",
         spans.totalMs("fleet.trafficgen.generate"));

    double select_ms = 0, resnet_select_ms = 0, execute_ms = 0,
           stall_ns = 0;
    std::size_t sites = 0, kernels = 0, hits = 0, misses = 0;
    for (const auto &p : planned_) {
        select_ms += p.select_ms;
        if (p.name == "ResNet-20")
            resnet_select_ms = p.select_ms;
        execute_ms += p.execute_ms;
        sites += p.mct_sites;
        kernels += p.kernels;
        hits += p.prefetch_hits;
        misses += p.prefetch_misses;
        stall_ns += p.hbm_stall_ns;
        if (p.name == "Bootstrap")
            sheet.set("sim.table5.bootstrap_ms", p.sim_ms, "ms", Domain::sim);
        if (p.name == "HELR256")
            sheet.set("sim.table5.helr256_ms", p.sim_ms, "ms", Domain::sim);
        if (p.name == "ResNet-20")
            sheet.set("sim.table5.resnet20_ms", p.sim_ms, "ms", Domain::sim);
    }
    sheet.set("sim.table5.helr1024_ms", helr1024_sim_ms_, "ms", Domain::sim);

    double analyze = spans.totalMs("core.aether.analyze");
    double select = spans.totalMs("core.aether.select");
    double plan = spans.totalMs("core.hemera.plan");
    double lower = spans.totalMs("sim.lowering.lower");
    double run = spans.totalMs("sim.simulator.run");
    double execute = spans.totalMs("sim.system.execute");
    host("core.aether.analyze_ms", analyze);
    host("core.aether.select_ms", select);
    sheet.set("core.aether.select_resnet20_share",
              select_ms > 0 ? resnet_select_ms / select_ms : 0, "ratio",
              Domain::host);
    sheet.set("core.aether.mct_sites", double(sites), "count",
              Domain::count);
    host("core.hemera.plan_ms", plan);
    sheet.set("core.hemera.prefetch_hit_rate",
              hits + misses ? double(hits) / double(hits + misses) : 0,
              "ratio", Domain::sim);
    host("sim.lowering.lower_ms", lower);
    sheet.set("sim.lowering.kernels", double(kernels), "count",
              Domain::count);
    host("sim.simulator.run_ms", run);
    sheet.set("sim.simulator.hbm_stall_ms", stall_ns / 1e6, "ms",
              Domain::sim);
    host("sim.system.execute_ms", execute);
    host("sim.system.unattributed_ms",
         execute - (analyze + select + plan + lower + run));

    if (high_) {
        for (std::size_t d = 0; d < high_->devices.size(); ++d)
            sheet.set("sim.simulator.evk_fetch_share.dev" +
                          std::to_string(d),
                      high_->devices[d].evk_fetch_share, "ratio",
                      Domain::sim, "at 350 req/s");
        schedulerCounters({&*high_}, sheet);
    }
    if (low_) {
        sheet.set("serve.plan_cache.misses", double(low_->plan_cache_misses),
                  "count", Domain::count);
        sheet.set("serve.plan_cache.hit_rate", low_->planCacheHitRate(),
                  "ratio", Domain::count);
        // Planning inside the run is one cold execute per cache miss;
        // what is left is the scheduler's own dispatch path.
        double per_miss = planned_.empty()
                              ? 0
                              : execute_ms / double(planned_.size());
        host("serve.scheduler.self_ms",
             low_wall_ms_ - double(low_->plan_cache_misses) * per_miss);
    }
}

} // namespace

std::unique_ptr<Surface>
makeServeMix()
{
    return std::make_unique<ServeMix>();
}

double
serveCapacityRps(std::uint64_t seed, double slo_ms)
{
    ServeMix surface;
    RunConfig config;
    config.seed = seed;
    surface.setup(config);
    Tally tally;
    return surface.capacityRps(slo_ms, tally);
}

double
p99Ms(std::vector<double> samples_ns)
{
    std::sort(samples_ns.begin(), samples_ns.end());
    return nearestRank(samples_ns, 0.99) / 1e6;
}

void
schedulerCounters(const std::vector<const serve::ServeStats *> &runs,
                  Sheet &sheet)
{
    std::size_t batches = 0, requests = 0;
    double util_min = 1, util_max = 0;
    std::vector<double> queue_ns;
    for (const serve::ServeStats *stats : runs) {
        batches += stats->batches;
        for (const auto &device : stats->devices) {
            requests += device.requests;
            util_min = std::min(util_min, device.utilization);
            util_max = std::max(util_max, device.utilization);
        }
        for (const auto &c : stats->completions)
            queue_ns.push_back(c.queueNs());
    }
    sheet.set("serve.scheduler.batches", double(batches), "count",
              Domain::count);
    sheet.set("serve.scheduler.mean_batch_size",
              batches ? double(requests) / double(batches) : 0, "count",
              Domain::count);
    sheet.set("serve.scheduler.device_util_min", util_min, "ratio",
              Domain::sim);
    sheet.set("serve.scheduler.device_util_max", util_max, "ratio",
              Domain::sim);
    sheet.set("serve.scheduler.queue_p99_ms", p99Ms(std::move(queue_ns)),
              "ms", Domain::sim);
}

} // namespace perfbench
