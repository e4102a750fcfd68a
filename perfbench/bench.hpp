/**
 * @file
 * Shared pieces of the perfbench harness: host-clock samples, the
 * metric sheet a run prints, the operation tally, and the span
 * recorder the traced run uses.
 *
 * Every number carries its clock. `host` is wall time of this
 * program (std::chrono::steady_clock); `sim` is the modelled
 * accelerator's nanosecond axis, a pure function of the seed.
 */
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0 on the host clock. */
double secondsSince(Clock::time_point t0);

/** Milliseconds elapsed since @p t0 on the host clock. */
double msSince(Clock::time_point t0);

/** Derive an independent 64-bit seed for stream @p k of @p seed. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t k);

/** Nearest-rank percentile @p q in [0, 1] of ascending @p sorted. */
double nearestRank(const std::vector<double> &sorted, double q);

/**
 * The highest percentile that still has at least ten samples beyond
 * it, as a fraction (0.99 for 1,000 samples); 0.5 when the set is too
 * small for any tail.
 */
double tailQuantile(std::size_t count);

/** Repeated host-clock measurements of one quantity. */
struct Samples {
    std::vector<double> values;

    void add(double v) { values.push_back(v); }
    std::size_t count() const { return values.size(); }
    double min() const;
    double median() const;
    /** Value at `tailQuantile(count())`. */
    double tail() const;
};

/** Which clock a metric is read from. */
enum class Domain { host, sim, count };

const char *toString(Domain domain);

/** One printed metric. */
struct Metric {
    double value = 0;
    std::string unit;
    Domain domain = Domain::host;
    /** Free-form detail for the human-readable table. */
    std::string detail;
};

/** Ordered metric sheet of one run. */
class Sheet
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit, Domain domain,
             const std::string &detail = "");
    /**
     * A host timing: the fastest of @p samples, with the median, the
     * tail and the count as detail. The fastest sample is the gated
     * value because this host's speed drifts (NOTES.md, "Host noise").
     */
    void setTiming(const std::string &name, const Samples &samples,
                   const std::string &unit);

    bool has(const std::string &name) const
    {
        return metrics_.count(name) != 0;
    }
    const std::map<std::string, Metric> &metrics() const
    {
        return metrics_;
    }

    /** Human-readable table, one metric per line. */
    std::string table() const;
    /** `{"name": {"value": v, "unit": u}, ...}` in name order. */
    std::string json() const;

  private:
    std::map<std::string, Metric> metrics_;
};

/**
 * Operations attempted and failed. A served request, a timed
 * operation and a correctness check each count as one operation.
 */
struct Tally {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;

    /** Count one operation; record @p what when it failed. */
    void op(bool ok, const std::string &what);
    /** Count @p n operations of which @p bad failed. */
    void ops(std::size_t n, std::size_t bad, const std::string &what);
};

/**
 * In-memory span recorder for the traced run. Spans nest strictly
 * (one thread), so a span's children never overlap and its self time
 * is its duration minus the sum of its children's. Disarmed, `Scope`
 * costs one branch.
 */
class Spans
{
  public:
    struct Record {
        std::string name;
        double t0_us = 0;
        double t1_us = 0;
        int parent = -1;
        std::uint64_t tree = 0;
        double child_us = 0;
        /** Set on an adopted span of the program: the layer it counts to. */
        std::string layer;

        double durUs() const { return t1_us - t0_us; }
        double selfUs() const { return durUs() - child_us; }
    };

    class Scope
    {
      public:
        Scope(Spans &spans, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans *spans_ = nullptr;
        int index_ = -1;
    };

    bool armed() const { return armed_; }
    void arm(bool on) { armed_ = on; }
    /** Id stamped on every span opened from now on (request/workload). */
    void setTree(std::uint64_t tree) { tree_ = tree; }

    const std::vector<Record> &records() const { return records_; }
    /** Total duration (ms) of spans named @p name. */
    double totalMs(const std::string &name) const;
    /** Number of spans named @p name. */
    std::size_t calls(const std::string &name) const;
    /**
     * Self time (ms) per layer; an adopted span belongs to its layer,
     * any other to the longest layer name that prefixes it, and to
     * "bench" otherwise.
     */
    std::map<std::string, double>
    selfMsByLayer(const std::vector<std::string> &layers) const;

    /** Emit every span as a Chrome-trace Complete event. */
    void emitChromeEvents() const;

    /**
     * Adopt the program's own spans from @p chrome_json, the trace
     * `obs::TraceSink::drainJson` renders: each Complete event of
     * thread @p tid whose name is a key of @p layers becomes a record
     * of that layer, nested by time under the innermost span holding
     * it. Self time then also splits where the program's spans do,
     * inside a single public call.
     */
    void adopt(const std::string &chrome_json, std::uint32_t tid,
               const std::map<std::string, std::string> &layers);

  private:
    int open(const char *name);
    void close(int index);
    /** Re-nest adopted records and recompute every child total. */
    void nest();

    bool armed_ = false;
    std::uint64_t tree_ = 0;
    std::vector<Record> records_;
    std::vector<int> stack_;
};

/** Run-wide knobs handed to every workload surface. */
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10;
    bool trace = false;
    std::string serve_baseline;  ///< committed BENCH_serve.json path
    std::string out_dir;
};

/**
 * One performance surface. `setup` builds the inputs (the harness
 * times it as `setup_s`); `measure` runs the surface's one-off part —
 * simulated metrics and reference outputs; `sampleRound` does one
 * round of host-timed work (rounds of all surfaces interleave, so
 * every host metric sees the whole run's machine state); `report`
 * adds the metrics of all rounds. A surface without end-to-end
 * metrics keeps the empty defaults. `tracedPass` runs the surface's
 * timed region with spans open when armed, and `layerMetrics` reads
 * the last armed pass.
 */
class Surface
{
  public:
    virtual ~Surface() = default;
    Surface() = default;
    Surface(const Surface &) = delete;
    Surface &operator=(const Surface &) = delete;

    virtual void setup(const RunConfig &config) = 0;
    virtual void measure(Sheet &, Tally &) {}
    virtual void sampleRound(std::size_t, Tally &) {}
    virtual void report(Sheet &) {}
    virtual void tracedPass(Spans &spans, Tally &tally) = 0;
    virtual void layerMetrics(const Spans &spans, Sheet &sheet) = 0;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
