/**
 * @file
 * perfbench entry point: runs one workload of the repository's
 * benchmark and prints its metrics.
 *
 *   fastbench --workload <serve-mix|ckks-ops> --seed <n>
 *             --seconds <s> --trace <0|1> [--serve-baseline <path>]
 *             [--out-dir <dir>] [--git-commit <sha>]
 *             [--source-digest <hex>]
 *   fastbench --selftest capacity [--seed <n>]
 *
 * `--trace 0` prints every end-to-end metric: it sets up both
 * measured surfaces (five times; the median is `setup_s`), runs each
 * surface's one-off part (simulated metrics, references), then
 * interleaved sampling rounds of host timings for `--seconds`. Every
 * run must report every end-to-end metric, so both workloads measure
 * both surfaces; the named workload's surface samples twice per round.
 * `--trace 1` sets up the named workload's traced surfaces only, runs
 * their timed region twice untraced and once with spans armed, and
 * prints every per-layer metric; layers the workload does not drive
 * read 0.
 *
 * The last line of standard output is the result object
 * `{"correct", "attempted", "failed", "metrics"}`.
 */
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "math/parallel.hpp"
#include "math/simd.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "surfaces.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/**
 * One kernel thread. With two, key switches ran in two modes for
 * minutes at a time as the shared host's load changed (hybrid 12 vs
 * 16.5 ms, KLSS 36 vs 57 ms) while single-threaded timings held still;
 * a thread-scaling claim needs its own runs on a multi-core host.
 */
constexpr std::size_t kKernelThreads = 1;
constexpr int kSetupReps = 5;
constexpr double kMinCoveragePct = 95.0;

/** Workload names; index i is measured surface i of makeSurfaces(). */
const char *const kWorkloads[] = {"serve-mix", "ckks-ops"};
constexpr int kWorkloadCount = 2;

struct MetricName {
    const char *name;
    const char *unit;
};

/** Every end-to-end metric, as BENCHMARK.json lists them. */
const MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_capacity_rps", "req/s"},
    {"sim_p99_ms_250rps", "ms"},
    {"sim_p99_ms_350rps", "ms"},
    {"paper_error_pct", "%"},
    {"plan_host_ms", "ms"},
    {"serve_host_us_per_req", "us"},
    {"boot_ms", "ms"},
    {"ks_hybrid_ms", "ms"},
    {"ks_klss_ms", "ms"},
};

/** The repository modules the per-layer split is keyed by. */
const char *const kLayers[] = {
    "trace",           "core.aether",     "core.hemera",
    "core.planner_session", "sim.lowering", "sim.simulator",
    "sim.system",      "serve.plan_cache", "serve.scheduler",
    "fleet.trafficgen", "fleet.fleet",    "ckks.bootstrap",
    "ckks.keyswitch",  "math.ntt",        "math.rns",
};

/** Every per-layer metric, as BENCHMARK.json lists them. */
const MetricName kPerLayer[] = {
    {"trace.build_ms", "ms"},
    {"trace.ops", "count"},
    {"core.aether.analyze_ms", "ms"},
    {"core.aether.select_ms", "ms"},
    {"core.aether.select_resnet20_share", "ratio"},
    {"core.aether.mct_sites", "count"},
    {"core.hemera.plan_ms", "ms"},
    {"core.hemera.prefetch_hit_rate", "ratio"},
    {"core.planner_session.measurements", "count"},
    {"core.planner_session.replans", "count"},
    {"core.planner_session.measure_ms", "ms"},
    {"sim.lowering.lower_ms", "ms"},
    {"sim.lowering.kernels", "count"},
    {"sim.simulator.run_ms", "ms"},
    {"sim.simulator.evk_fetch_share.dev0", "ratio"},
    {"sim.simulator.evk_fetch_share.dev1", "ratio"},
    {"sim.simulator.evk_fetch_share.dev2", "ratio"},
    {"sim.simulator.evk_fetch_share.dev3", "ratio"},
    {"sim.simulator.hbm_stall_ms", "ms"},
    {"sim.system.execute_ms", "ms"},
    {"sim.system.unattributed_ms", "ms"},
    {"sim.table5.bootstrap_ms", "ms"},
    {"sim.table5.helr256_ms", "ms"},
    {"sim.table5.helr1024_ms", "ms"},
    {"sim.table5.resnet20_ms", "ms"},
    {"serve.plan_cache.misses", "count"},
    {"serve.plan_cache.hit_rate", "ratio"},
    {"serve.scheduler.self_ms", "ms"},
    {"serve.scheduler.batches", "count"},
    {"serve.scheduler.mean_batch_size", "count"},
    {"serve.scheduler.device_util_min", "ratio"},
    {"serve.scheduler.device_util_max", "ratio"},
    {"serve.scheduler.queue_p99_ms", "ms"},
    {"fleet.trafficgen.generate_ms", "ms"},
    {"fleet.router.locality_hit_rate", "ratio"},
    {"fleet.router.rejected", "count"},
    {"fleet.fleet.self_ms", "ms"},
    {"fleet.fleet.p99_ms", "ms"},
    {"fleet.fleet.host_us_per_req", "us"},
    {"ckks.bootstrap.mod_raise_ms", "ms"},
    {"ckks.bootstrap.coeff_to_slot_ms", "ms"},
    {"ckks.bootstrap.eval_mod_ms", "ms"},
    {"ckks.bootstrap.slot_to_coeff_ms", "ms"},
    {"ckks.keyswitch.decompose_ms.hybrid", "ms"},
    {"ckks.keyswitch.decompose_ms.klss", "ms"},
    {"ckks.keyswitch.keymult_moddown_ms.hybrid", "ms"},
    {"ckks.keyswitch.keymult_moddown_ms.klss", "ms"},
    {"ckks.keyswitch.moddown_ms", "ms"},
    {"ckks.keyswitch.restrict_key_ms", "ms"},
    {"math.ntt.forward_us", "us"},
    {"math.ntt.inverse_us", "us"},
    {"math.rns.bconv_us", "us"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.span_coverage_pct", "%"},
    {"obs.unattributed_ms", "ms"},
    {"layer.trace.self_ms", "ms"},
    {"layer.core.aether.self_ms", "ms"},
    {"layer.core.hemera.self_ms", "ms"},
    {"layer.core.planner_session.self_ms", "ms"},
    {"layer.sim.lowering.self_ms", "ms"},
    {"layer.sim.simulator.self_ms", "ms"},
    {"layer.sim.system.self_ms", "ms"},
    {"layer.serve.plan_cache.self_ms", "ms"},
    {"layer.serve.scheduler.self_ms", "ms"},
    {"layer.fleet.trafficgen.self_ms", "ms"},
    {"layer.fleet.fleet.self_ms", "ms"},
    {"layer.ckks.bootstrap.self_ms", "ms"},
    {"layer.ckks.keyswitch.self_ms", "ms"},
    {"layer.math.ntt.self_ms", "ms"},
    {"layer.math.rns.self_ms", "ms"},
};

/**
 * The program's own spans the traced run adopts, by layer. They split
 * time inside one public call: `Scheduler::run` and `Fleet::run` plan
 * through the plan cache (`serve.plan`, whose self time holds the
 * lowering and simulation of cold plans, which have no span), the
 * planner session prices candidates, and both reach Aether and Hemera.
 */
const std::map<std::string, std::string> kAdoptedSpans = {
    {"aether.analyze", "core.aether"},
    {"aether.select", "core.aether"},
    {"hemera.plan", "core.hemera"},
    {"planner.plan_for", "core.planner_session"},
    {"serve.plan", "serve.plan_cache"},
    {"serve.run", "serve.scheduler"},
    {"fleet.run", "fleet.fleet"},
};

/** Internal spans of the program, reported beside ours as a cross-check. */
const char *const kInternalSpans[] = {
    "aether.analyze", "aether.select", "hemera.plan", "planner.plan_for",
    "serve.run",      "serve.plan",    "serve.batch", "fleet.run",
    "ks.modup",       "ks.gadget_decompose", "ks.keymult", "ks.moddown",
};

struct Args {
    RunConfig config;
    std::string selftest;
    std::string git_commit = "unknown";
    std::string source_digest = "unknown";
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string value = argv[++i];
        if (flag == "--workload")
            args.config.workload = value;
        else if (flag == "--seed")
            args.config.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.config.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            args.config.trace = value == "1";
        else if (flag == "--serve-baseline")
            args.config.serve_baseline = value;
        else if (flag == "--out-dir")
            args.config.out_dir = value;
        else if (flag == "--git-commit")
            args.git_commit = value;
        else if (flag == "--source-digest")
            args.source_digest = value;
        else if (flag == "--selftest")
            args.selftest = value;
        else
            return false;
    }
    return true;
}

int
workloadIndex(const std::string &name)
{
    for (int i = 0; i < kWorkloadCount; ++i)
        if (name == kWorkloads[i])
            return i;
    return -1;
}

/** The surfaces every `--trace 0` run measures, in kWorkloads order. */
std::vector<std::unique_ptr<Surface>>
makeSurfaces()
{
    std::vector<std::unique_ptr<Surface>> out;
    out.push_back(makeServeMix());
    out.push_back(makeCkksOps());
    return out;
}

/** The surfaces workload @p workload's traced run drives. */
std::vector<std::unique_ptr<Surface>>
makeTracedSurfaces(int workload)
{
    std::vector<std::unique_ptr<Surface>> out;
    if (workload == 0) {
        out.push_back(makeServeMix());
        out.push_back(makeFleetZipf());
    } else {
        out.push_back(makeCkksOps());
    }
    return out;
}

std::string
provenanceJson(const Args &args)
{
    const RunConfig &c = args.config;
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"host_cpus\": %u, \"build_type\": \"%s\", "
        "\"simd_isa\": \"%s\", \"kernel_threads\": %zu, "
        "\"git_commit\": \"%s\", \"source_digest\": \"%s\"}",
        c.workload.c_str(), static_cast<unsigned long long>(c.seed),
        c.seconds, c.trace ? 1 : 0, std::thread::hardware_concurrency(),
        PERFBENCH_BUILD_TYPE,
        fast::math::simdIsaName(fast::math::activeSimdIsa()),
        fast::math::KernelEngine::global().threadCount(),
        args.git_commit.c_str(), args.source_digest.c_str());
    return buf;
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/**
 * Make @p sheet hold exactly the metrics of @p names: missing ones are
 * set to 0 (and fail the run when @p missing_fails), extra ones fail
 * the run.
 */
void
completeSheet(Sheet &sheet, const MetricName *names, std::size_t count,
              bool missing_fails, Tally &tally)
{
    std::set<std::string> wanted;
    for (std::size_t i = 0; i < count; ++i) {
        wanted.insert(names[i].name);
        if (sheet.has(names[i].name))
            continue;
        if (missing_fails)
            tally.op(false, std::string("metric missing: ") + names[i].name);
        sheet.set(names[i].name, 0, names[i].unit, Domain::count,
                  "not driven by this workload");
    }
    for (const auto &[name, metric] : sheet.metrics())
        if (!wanted.count(name))
            tally.op(false, "unlisted metric: " + name);
}

int
finish(const Args &args, const Sheet &sheet, const Tally &tally)
{
    std::string provenance = provenanceJson(args);
    std::printf("provenance: %s\n", provenance.c_str());
    std::printf("%s", sheet.table().c_str());
    for (const auto &failure : tally.failures)
        std::printf("FAILED: %s\n", failure.c_str());

    char head[160];
    std::snprintf(head, sizeof(head),
                  "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, ",
                  tally.failed == 0 ? "true" : "false", tally.attempted,
                  tally.failed);
    std::string result = head + std::string("\"metrics\": ") + sheet.json() +
                         "}";

    if (!args.config.out_dir.empty()) {
        std::string path = args.config.out_dir + "/" + args.config.workload +
                           "-seed" + std::to_string(args.config.seed) +
                           "-trace" + (args.config.trace ? "1" : "0") +
                           ".json";
        std::ofstream out(path);
        out << "{\"provenance\": " << provenance
            << ",\n \"result\": " << result << "}\n";
    }
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return 0;
}

int
measuredRun(const Args &args, int workload)
{
    const RunConfig &config = args.config;
    Samples setup_s;
    std::vector<std::unique_ptr<Surface>> surfaces;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        surfaces.clear();
        auto t0 = Clock::now();
        surfaces = makeSurfaces();
        for (auto &surface : surfaces)
            surface->setup(config);
        setup_s.add(secondsSince(t0));
    }

    Sheet sheet;
    Tally tally;
    char detail[96];
    std::snprintf(detail, sizeof(detail), "median of %d set-ups",
                  kSetupReps);
    sheet.set("setup_s", setup_s.median(), "s", Domain::host, detail);
    std::string phases;
    for (std::size_t i = 0; i < surfaces.size(); ++i) {
        auto t0 = Clock::now();
        surfaces[i]->measure(sheet, tally);
        phases += std::string(kWorkloads[i]) + " " +
                  std::to_string(secondsSince(t0)) + " s, ";
    }
    // Host sampling rounds interleave the surfaces, so a slow stretch
    // of the machine lands on every host metric alike; the named
    // workload's surface samples twice per round.
    Surface &focus = *surfaces[static_cast<std::size_t>(workload)];
    auto t0 = Clock::now();
    std::size_t rounds = 0;
    do {
        for (auto &surface : surfaces)
            surface->sampleRound(rounds, tally);
        focus.sampleRound(rounds, tally);
        ++rounds;
    } while (secondsSince(t0) < config.seconds);
    std::printf("phases: setup %.2f s x %d, %s%zu sampling rounds %.2f s\n",
                setup_s.median(), kSetupReps, phases.c_str(), rounds,
                secondsSince(t0));
    for (auto &surface : surfaces)
        surface->report(sheet);
    surfaces.clear();
    sheet.set("peak_rss_mb", peakRssMb(), "MB", Domain::host,
              "whole run, both surfaces");
    completeSheet(sheet, kEndToEnd, std::size(kEndToEnd), true, tally);
    return finish(args, sheet, tally);
}

/** Wall seconds of one pass of the workload's timed region. */
double
timedPass(const std::string &workload,
          std::vector<std::unique_ptr<Surface>> &surfaces, Spans &spans,
          Tally &tally)
{
    auto t0 = Clock::now();
    spans.setTree(0);
    Spans::Scope root(spans, ("bench." + workload).c_str());
    for (auto &surface : surfaces)
        surface->tracedPass(spans, tally);
    return secondsSince(t0);
}

int
tracedRun(const Args &args, int workload)
{
    const RunConfig &config = args.config;
    auto surfaces = makeTracedSurfaces(workload);
    for (auto &surface : surfaces)
        surface->setup(config);

    Tally tally;
    Spans spans;
    Samples untraced_s;
    untraced_s.add(timedPass(config.workload, surfaces, spans, tally));
    untraced_s.add(timedPass(config.workload, surfaces, spans, tally));

    std::string trace_path =
        (config.out_dir.empty() ? std::string(".") : config.out_dir) +
        "/trace-" + config.workload + "-seed" + std::to_string(config.seed) +
        ".json";
    auto &sink = fast::obs::TraceSink::global();
    sink.enable(trace_path);
    spans.arm(true);
    double traced_s = timedPass(config.workload, surfaces, spans, tally);
    spans.arm(false);
    sink.disable();
    spans.emitChromeEvents();
    std::string chrome = sink.drainJson();
    std::ofstream(trace_path) << chrome;
    spans.adopt(chrome, fast::obs::TraceSink::threadId(), kAdoptedSpans);

    Sheet sheet;
    for (auto &surface : surfaces)
        surface->layerMetrics(spans, sheet);

    std::vector<std::string> layers(std::begin(kLayers), std::end(kLayers));
    auto self = spans.selfMsByLayer(layers);
    for (const auto &layer : layers)
        sheet.set("layer." + layer + ".self_ms", self[layer], "ms",
                  Domain::host, "span self time");

    const Spans::Record *root = nullptr;
    for (const auto &r : spans.records())
        if (r.parent < 0 && r.name == "bench." + config.workload)
            root = &r;
    double coverage = root && root->durUs() > 0
                          ? 100.0 * root->child_us / root->durUs()
                          : 0;
    tally.op(coverage >= kMinCoveragePct,
             "benchmark spans cover >= 95% of the timed region");
    sheet.set("obs.span_coverage_pct", coverage, "%", Domain::host,
              "child spans / timed region");
    sheet.set("obs.unattributed_ms", root ? root->selfUs() / 1e3 : 0, "ms",
              Domain::host, "timed region not under any layer span");
    sheet.set("obs.trace_overhead_pct",
              100.0 * (traced_s / untraced_s.median() - 1.0), "%",
              Domain::host, "traced vs untraced pass");

    // The program's own spans, recorded during the traced pass only.
    double region_ms = root ? root->durUs() / 1e3 : 0;
    for (const char *name : kInternalSpans) {
        auto &hist = fast::obs::Registry::global().histogram(
            std::string(name) + ".ns");
        if (hist.count() == 0)
            continue;
        double total_ms = double(hist.count()) * hist.summary().mean / 1e6;
        std::printf("internal span %-22s calls %8llu  total %10.3f ms "
                    "(%.2f%% of the timed region)\n",
                    name, static_cast<unsigned long long>(hist.count()),
                    total_ms, region_ms > 0 ? 100 * total_ms / region_ms : 0);
    }
    std::printf("trace: %s (%zu spans)\n", trace_path.c_str(),
                spans.records().size());

    completeSheet(sheet, kPerLayer, std::size(kPerLayer), false, tally);
    return finish(args, sheet, tally);
}

int
capacitySelfTest(std::uint64_t seed)
{
    double first = serveCapacityRps(seed, 200);
    double again = serveCapacityRps(seed, 200);
    double tight = serveCapacityRps(seed, 150);
    std::printf("{\"capacity_rps\": %.17g, \"repeat_rps\": %.17g, "
                "\"tight_slo_rps\": %.17g}\n",
                first, again, tight);
    return first > 0 && first == again && tight <= first ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr, "usage: fastbench --workload <name> --seed <n> "
                             "--seconds <s> --trace <0|1> ...\n");
        return 2;
    }
    fast::math::KernelEngine::global().setThreadCount(kKernelThreads);
    if (args.selftest == "capacity")
        return capacitySelfTest(args.config.seed);
    int workload = workloadIndex(args.config.workload);
    if (workload < 0 || !args.selftest.empty()) {
        std::fprintf(stderr, "fastbench: unknown workload or self-test\n");
        return 2;
    }
    try {
        return args.config.trace ? tracedRun(args, workload)
                                 : measuredRun(args, workload);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fastbench: %s\n", e.what());
        return 1;
    }
}
