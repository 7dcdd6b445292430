/**
 * @file
 * Shared infrastructure of the end-to-end benchmark: the metric
 * catalog, the per-run result, wall-clock helpers, registry counter
 * snapshots and the in-memory span recorder used by traced runs.
 *
 * The benchmark measures every layer from outside: it times calls into
 * public functions and reads the always-on obs::Registry counters. It
 * never arms FAST_TRACE.
 */
#ifndef FAST_PERFBENCH_BENCH_HPP
#define FAST_PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** What a metric measures, and so how it may vary between runs. */
enum class Kind {
    host,          ///< host wall-clock (varies run to run)
    sim,           ///< simulated time or rate, exact for a given seed
    exact,         ///< count, ratio or precision, exact for a seed
    computed,      ///< derived from sizes, not measured
    per_workload,  ///< host on the host workloads, sim on the others
};

/** Where a metric is reported. */
enum class Scope {
    gated,      ///< end-to-end, in every untraced run's result line
    report,     ///< end-to-end, printed by name for its workload only
    per_layer,  ///< per-layer, in every traced run's result line
};

struct MetricDef {
    const char *name;
    const char *unit;
    const char *better;     ///< "lower" or "higher"
    Kind kind;
    Scope scope;
    const char *workloads;  ///< comma list of workloads that measure it
    const char *moves;      ///< what it should move, and on which workload
    const char *meaning;
};

/** The one definition of every metric the benchmark emits. */
const std::vector<MetricDef> &catalog();
const MetricDef &metricDef(const std::string &name);
const char *toString(Kind kind);
const char *toString(Scope scope);

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;     ///< self-test sizes
    bool corrupt = false;  ///< self-test: corrupt one host result
    bool tight_deadlines = false;  ///< self-test: HELR deadlines that fire
    std::string out_dir = ".";
};

/** One sample set with its summary statistics. */
struct Samples {
    std::vector<double> values;
    void add(double v) { values.push_back(v); }
    std::size_t size() const { return values.size(); }
    double median() const;
    double quantile(double q) const;
    /**
     * The highest of p90/p99/p99.9 that has at least 10 samples beyond
     * it, or 0 when the sample count supports none.
     */
    double supportedPercentile() const;
};

/**
 * Host time of a unit on a shared host: each input's best (lowest)
 * repetition, then the median over inputs. A neighbour's load only
 * adds time and can hold for a minute, so a run's median moves with
 * it; the best repetition of each input moves far less.
 */
double bestPerInputMedian(const std::vector<Samples> &per_input);

/**
 * Everything one run produces. A failed attempt (a refused or timed-out
 * simulated request) counts toward fail_frac only; a failed correctness
 * check counts toward fail_frac and makes the run incorrect.
 */
struct RunResult {
    std::size_t attempted = 0;
    std::size_t failed = 0;         ///< failed attempts and failed checks
    std::size_t checks_failed = 0;
    std::vector<std::string> failures;  ///< one line per failed check
    std::map<std::string, double> metrics;

    void fail(const std::string &what)
    {
        ++failed;
        ++checks_failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }
    bool correct() const { return checks_failed == 0 && attempted > 0; }
    void set(const std::string &name, double value)
    {
        metrics[name] = value;
    }
};

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Print "metric <name> = <value> <unit>" plus an optional note. */
void printMetric(const std::string &name, double value,
                 const std::string &note = "");

/** Print a latency sample set: median, sample count, tail. */
void printSamples(const std::string &name, const Samples &s);

/** Registry counters the benchmark reads as deltas. */
class CounterSnapshot
{
  public:
    static CounterSnapshot take();
    /** this - earlier, for every tracked counter. */
    std::map<std::string, std::uint64_t>
    since(const CounterSnapshot &earlier) const;
    std::uint64_t value(const std::string &name) const;

  private:
    std::map<std::string, std::uint64_t> values_;
};

/**
 * In-memory span recorder. Spans carry a name, start, end, parent and
 * a group id shared by the spans of one op or request, plus the
 * registry counter deltas across the span. Disabled recorders cost one
 * branch per scope.
 */
class Tracer
{
  public:
    struct Span {
        std::string name;
        double start_ms = 0;
        double end_ms = 0;
        int parent = -1;
        std::uint64_t group = 0;
        std::map<std::string, std::uint64_t> counters;
        double durationMs() const { return end_ms - start_ms; }
    };

    /** RAII span; nests under the innermost open span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const std::string &name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        /** Duration so far (ms), valid whether or not tracing is on. */
        double elapsedMs() const { return msSince(t0_); }

      private:
        Tracer &tracer_;
        int index_ = -1;
        Clock::time_point t0_;
        CounterSnapshot before_;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}
    void setEnabled(bool on) { enabled_ = on; }
    /** Start a new op/request group; later spans carry its id. */
    void newGroup() { ++group_; }

    const std::vector<Span> &spans() const { return spans_; }
    /** Self time: duration minus the time its direct children cover. */
    double selfMs(std::size_t index) const;
    /** Median self / inclusive time per span name. */
    std::map<std::string, Samples> selfByName() const;
    std::map<std::string, Samples> inclusiveByName() const;
    /** Write every span as JSON to @p path. */
    bool write(const std::string &path) const;
    /** Print a per-name table: count, inclusive and self medians. */
    void printSummary() const;

  private:
    double nowMs() const { return msSince(epoch_); }

    bool enabled_;
    std::uint64_t group_ = 0;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Workload entry points (host.cpp, simulated.cpp). */
RunResult runKsN16(const Options &options, Tracer &tracer);
RunResult runBootN12(const Options &options, Tracer &tracer);
RunResult runFleetSteady(const Options &options, Tracer &tracer);
RunResult runServeDrift(const Options &options, Tracer &tracer);

} // namespace perfbench

#endif // FAST_PERFBENCH_BENCH_HPP
