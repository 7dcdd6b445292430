#include "bench.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/registry.hpp"
#include "obs/stats.hpp"

namespace perfbench {

double
Samples::median() const
{
    if (values.empty())
        return 0;
    std::vector<double> v = values;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
Samples::quantile(double q) const
{
    std::vector<double> v = values;
    std::sort(v.begin(), v.end());
    return fast::obs::percentileOfSorted(v, q);
}

double
bestPerInputMedian(const std::vector<Samples> &per_input)
{
    Samples best;
    for (const Samples &input : per_input)
        if (input.size() > 0)
            best.add(*std::min_element(input.values.begin(),
                                       input.values.end()));
    return best.median();
}

double
Samples::supportedPercentile() const
{
    double best = 0;
    for (double q : {0.9, 0.99, 0.999})
        if (static_cast<double>(size()) * (1 - q) >= 10)
            best = q;
    return best;
}

void
printMetric(const std::string &name, double value, const std::string &note)
{
    const auto &def = metricDef(name);
    std::printf("metric %-34s = %.6g %s [%s]%s%s\n", name.c_str(), value,
                def.unit, toString(def.kind), note.empty() ? "" : "  ",
                note.c_str());
}

void
printSamples(const std::string &name, const Samples &s)
{
    char note[160];
    double p = s.supportedPercentile();
    if (p > 0)
        std::snprintf(note, sizeof(note), "n=%zu, p%g=%.6g", s.size(),
                      p * 100, s.quantile(p));
    else
        std::snprintf(note, sizeof(note),
                      "n=%zu, no percentile above p50 has 10 samples "
                      "beyond it",
                      s.size());
    printMetric(name, s.median(), note);
}

// ---------------------------------------------------------------------

namespace {

const char *const kTracked[] = {
    "ntt.forward",          "ntt.inverse",
    "bconv.convert_poly",   "engine.regions",
    "engine.regions_inline", "ks.modup",
    "ks.gadget_decompose",  "ks.keymult",
    "ks.moddown",           "aether.mct_entries",
    "hemera.prefetch_hits", "hemera.prefetch_misses",
    "planner.replans",      "planner.measurements",
};

} // namespace

CounterSnapshot
CounterSnapshot::take()
{
    CounterSnapshot snap;
    auto &registry = fast::obs::Registry::global();
    for (const char *name : kTracked)
        snap.values_[name] = registry.counter(name).value();
    return snap;
}

std::map<std::string, std::uint64_t>
CounterSnapshot::since(const CounterSnapshot &earlier) const
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, v] : values_) {
        std::uint64_t d = v - earlier.value(name);
        if (d != 0)
            out[name] = d;
    }
    return out;
}

std::uint64_t
CounterSnapshot::value(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------

Tracer::Scope::Scope(Tracer &tracer, const std::string &name)
    : tracer_(tracer), t0_(Clock::now())
{
    if (!tracer_.enabled_)
        return;
    before_ = CounterSnapshot::take();
    Span span;
    span.name = name;
    span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    span.group = tracer_.group_;
    index_ = static_cast<int>(tracer_.spans_.size());
    tracer_.spans_.push_back(std::move(span));
    tracer_.open_.push_back(index_);
    // Start the clock last so the bookkeeping above is not billed.
    tracer_.spans_.back().start_ms = tracer_.nowMs();
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    double end = tracer_.nowMs();
    Span &span = tracer_.spans_[static_cast<std::size_t>(index_)];
    span.end_ms = end;
    span.counters = CounterSnapshot::take().since(before_);
    tracer_.open_.pop_back();
}

double
Tracer::selfMs(std::size_t index) const
{
    // Children run sequentially on this thread, so their durations
    // never overlap and the covered time is their sum.
    double covered = 0;
    for (std::size_t i = index + 1; i < spans_.size(); ++i)
        if (spans_[i].parent == static_cast<int>(index))
            covered += spans_[i].durationMs();
    return spans_[index].durationMs() - covered;
}

std::map<std::string, Samples>
Tracer::selfByName() const
{
    std::map<std::string, Samples> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name].add(selfMs(i));
    return out;
}

std::map<std::string, Samples>
Tracer::inclusiveByName() const
{
    std::map<std::string, Samples> out;
    for (const auto &span : spans_)
        out[span.name].add(span.durationMs());
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n  {\"id\": %zu, \"name\": \"%s\", \"group\": %llu, "
                     "\"parent\": %d, \"start_ms\": %.6f, \"end_ms\": %.6f, "
                     "\"self_ms\": %.6f, \"counters\": {",
                     i ? "," : "", i, s.name.c_str(),
                     static_cast<unsigned long long>(s.group), s.parent,
                     s.start_ms, s.end_ms, selfMs(i));
        bool first = true;
        for (const auto &[name, v] : s.counters) {
            std::fprintf(f, "%s\"%s\": %llu", first ? "" : ", ",
                         name.c_str(), static_cast<unsigned long long>(v));
            first = false;
        }
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

void
Tracer::printSummary() const
{
    auto self = selfByName();
    auto incl = inclusiveByName();
    std::printf("span summary (ms): %-36s %6s %12s %12s\n", "name", "count",
                "incl p50", "self p50");
    for (const auto &[name, s] : incl)
        std::printf("span               %-36s %6zu %12.4f %12.4f\n",
                    name.c_str(), s.size(), s.median(),
                    self.at(name).median());
}

} // namespace perfbench
