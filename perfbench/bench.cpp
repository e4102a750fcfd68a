/**
 * @file
 * Samples, metric sheet, tally and span recorder of the harness.
 */
#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "obs/trace.hpp"

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e3;
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t k)
{
    // splitmix64 finalizer over (seed, k): independent streams per k.
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (k + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
nearestRank(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

double
tailQuantile(std::size_t count)
{
    // Ten samples must lie strictly above the reported rank.
    if (count < 20)
        return 0.5;
    return 1.0 - 10.0 / static_cast<double>(count);
}

double
Samples::min() const
{
    return values.empty() ? 0 : *std::min_element(values.begin(), values.end());
}

double
Samples::median() const
{
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.empty())
        return 0;
    std::size_t mid = sorted.size() / 2;
    return sorted.size() % 2 ? sorted[mid]
                             : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

double
Samples::tail() const
{
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    return nearestRank(sorted, tailQuantile(sorted.size()));
}

const char *
toString(Domain domain)
{
    switch (domain) {
    case Domain::host:
        return "host";
    case Domain::sim:
        return "sim";
    case Domain::count:
        return "count";
    }
    return "?";
}

void
Sheet::set(const std::string &name, double value, const std::string &unit,
           Domain domain, const std::string &detail)
{
    metrics_[name] = Metric{value, unit, domain, detail};
}

void
Sheet::setTiming(const std::string &name, const Samples &samples,
                 const std::string &unit)
{
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "min of %zu; median %.6g; p%.0f %.6g", samples.count(),
                  samples.median(), 100 * tailQuantile(samples.count()),
                  samples.tail());
    set(name, samples.min(), unit, Domain::host, detail);
}

std::string
Sheet::table() const
{
    std::string out;
    char line[512];
    for (const auto &[name, m] : metrics_) {
        std::snprintf(line, sizeof(line), "  %-44s %14.6g %-6s %-5s %s\n",
                      name.c_str(), m.value, m.unit.c_str(),
                      toString(m.domain), m.detail.c_str());
        out += line;
    }
    return out;
}

std::string
Sheet::json() const
{
    std::string out = "{";
    char buf[96];
    bool first = true;
    for (const auto &[name, m] : metrics_) {
        // %.17g keeps every digit of the measured double.
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    return out + "}";
}

void
Tally::op(bool ok, const std::string &what)
{
    ops(1, ok ? 0 : 1, what);
}

void
Tally::ops(std::size_t n, std::size_t bad, const std::string &what)
{
    attempted += n;
    failed += bad;
    if (bad != 0)
        failures.push_back(what + " (" + std::to_string(bad) + " of " +
                           std::to_string(n) + ")");
}

Spans::Scope::Scope(Spans &spans, const char *name)
{
    if (!spans.armed())
        return;
    spans_ = &spans;
    index_ = spans.open(name);
}

Spans::Scope::~Scope()
{
    if (spans_)
        spans_->close(index_);
}

int
Spans::open(const char *name)
{
    Record record;
    record.name = name;
    record.t0_us = fast::obs::TraceSink::global().nowUs();
    record.parent = stack_.empty() ? -1 : stack_.back();
    record.tree = tree_;
    records_.push_back(std::move(record));
    int index = static_cast<int>(records_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
Spans::close(int index)
{
    Record &record = records_[static_cast<std::size_t>(index)];
    record.t1_us = fast::obs::TraceSink::global().nowUs();
    stack_.pop_back();
    if (record.parent >= 0)
        records_[static_cast<std::size_t>(record.parent)].child_us +=
            record.durUs();
}

double
Spans::totalMs(const std::string &name) const
{
    double us = 0;
    for (const Record &r : records_)
        if (r.name == name)
            us += r.durUs();
    return us / 1e3;
}

std::size_t
Spans::calls(const std::string &name) const
{
    return static_cast<std::size_t>(
        std::count_if(records_.begin(), records_.end(),
                      [&](const Record &r) { return r.name == name; }));
}

std::map<std::string, double>
Spans::selfMsByLayer(const std::vector<std::string> &layers) const
{
    std::map<std::string, double> self;
    for (const Record &r : records_) {
        if (!r.layer.empty()) {
            self[r.layer] += r.selfUs() / 1e3;
            continue;
        }
        std::string owner = "bench";
        std::size_t matched = 0;
        for (const std::string &layer : layers) {
            bool prefix = r.name.compare(0, layer.size(), layer) == 0 &&
                          (r.name.size() == layer.size() ||
                           r.name[layer.size()] == '.');
            if (prefix && layer.size() > matched) {
                owner = layer;
                matched = layer.size();
            }
        }
        self[owner] += r.selfUs() / 1e3;
    }
    return self;
}

void
Spans::adopt(const std::string &chrome_json, std::uint32_t tid,
             const std::map<std::string, std::string> &layers)
{
    // drainJson writes one event per line in a fixed layout.
    std::istringstream in(chrome_json);
    std::string line;
    while (std::getline(in, line)) {
        char name[128] = {};
        double ts_us = 0, dur_us = 0;
        unsigned event_tid = 0;
        if (std::sscanf(line.c_str(),
                        "{\"name\": \"%127[^\"]\", \"cat\": \"fast\", "
                        "\"ph\": \"X\", \"ts\": %lf, \"dur\": %lf, "
                        "\"pid\": 1, \"tid\": %u",
                        name, &ts_us, &dur_us, &event_tid) != 4 ||
            event_tid != tid)
            continue;
        auto it = layers.find(name);
        if (it == layers.end())
            continue;
        Record record;
        record.name = name;
        record.t0_us = ts_us;
        record.t1_us = ts_us + dur_us;
        record.layer = it->second;
        records_.push_back(std::move(record));
    }
    nest();
}

void
Spans::nest()
{
    // Adopted times are printed to the nanosecond, so containment
    // allows that much slack.
    constexpr double kSlackUs = 2e-3;
    std::vector<std::size_t> order(records_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         const Record &x = records_[a], &y = records_[b];
                         if (x.t0_us != y.t0_us)
                             return x.t0_us < y.t0_us;
                         return x.t1_us > y.t1_us;
                     });
    std::vector<std::size_t> open;
    for (std::size_t i : order) {
        Record &r = records_[i];
        while (!open.empty() &&
               r.t1_us > records_[open.back()].t1_us + kSlackUs)
            open.pop_back();
        if (!r.layer.empty() && !open.empty()) {
            r.parent = static_cast<int>(open.back());
            r.tree = records_[open.back()].tree;
        }
        open.push_back(i);
    }
    for (Record &r : records_)
        r.child_us = 0;
    for (const Record &r : records_)
        if (r.parent >= 0)
            records_[static_cast<std::size_t>(r.parent)].child_us +=
                r.durUs();
}

void
Spans::emitChromeEvents() const
{
    auto &sink = fast::obs::TraceSink::global();
    for (const Record &r : records_) {
        std::string args = "\"tree\": " + std::to_string(r.tree) +
                           ", \"self_us\": " +
                           std::to_string(r.selfUs());
        if (r.parent >= 0)
            args += ", \"parent\": \"" +
                    records_[static_cast<std::size_t>(r.parent)].name +
                    "\"";
        sink.emitComplete(r.name.c_str(), r.t0_us, r.durUs(), args);
    }
}

} // namespace perfbench
