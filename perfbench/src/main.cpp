/**
 * @file
 * fast_perfbench: one benchmark for both stacks.
 *
 *   fast_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--out-dir <dir>] [--tiny] [--corrupt]
 *                  [--tight-deadlines]
 *   fast_perfbench --list-metrics
 *
 * Prints a human-readable report, then as its last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}. Untraced runs
 * report every end-to-end (gated) metric; traced runs report every
 * per-layer metric, with 0 for a layer the workload does not use.
 * Exits 1 when a correctness check failed; refused or timed-out
 * simulated requests count in "failed" (fail_frac) but are not
 * correctness failures.
 */
#include "bench.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "math/parallel.hpp"
#include "math/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define FAST_PERFBENCH_HAVE_CPUID 1
#endif

#ifndef FAST_PERFBENCH_BUILD_TYPE
#define FAST_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FAST_PERFBENCH_NATIVE
#define FAST_PERFBENCH_NATIVE 0
#endif

namespace {

using namespace perfbench;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

/** CPU brand string from CPUID (no file outside the checkout is read). */
std::string
cpuModel()
{
#ifndef FAST_PERFBENCH_HAVE_CPUID
    return "unknown";
#else
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
#endif
}

void
printProvenance(const Options &options)
{
    using namespace fast::math;
    std::printf("provenance {\"cpu_model\": \"%s\", \"nproc\": %u, "
                "\"compiler\": \"g++ %s\", \"build_type\": \"%s\", "
                "\"fast_native\": %s, \"simd_isa\": \"%s\", "
                "\"engine_threads\": %zu, \"workload\": \"%s\", "
                "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
                jsonEscape(cpuModel()).c_str(),
                std::thread::hardware_concurrency(), __VERSION__,
                FAST_PERFBENCH_BUILD_TYPE,
                FAST_PERFBENCH_NATIVE ? "true" : "false",
                simdIsaName(activeSimdIsa()),
                KernelEngine::global().threadCount(),
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
}

void
listMetrics()
{
    std::printf("{\"metrics\": [\n");
    const auto &all = catalog();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const auto &m = all[i];
        std::printf("  {\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                    "\"%s\", \"kind\": \"%s\", \"scope\": \"%s\", "
                    "\"workloads\": \"%s\", \"moves\": \"%s\", "
                    "\"meaning\": \"%s\"}%s\n",
                    m.name, m.unit, m.better, toString(m.kind),
                    toString(m.scope), m.workloads, m.moves,
                    jsonEscape(m.meaning).c_str(),
                    i + 1 < all.size() ? "," : "");
    }
    std::printf("]}\n");
}

bool
measuredOn(const MetricDef &def, const std::string &workload)
{
    std::stringstream list(def.workloads);
    std::string w;
    while (std::getline(list, w, ','))
        if (w == workload)
            return true;
    return false;
}

/** What the traced run cannot measure from outside, and why. */
const char *const kNotMeasured[] = {
    "sim.paper_ratio for pir, transformer and schemeswitch: "
    "baseline::publishedFast() has no Table 5 row for them",
    "planning vs simulation inside Fleet::run / Scheduler::run: no "
    "public hook splits them; core.plan_attributed_frac attributes cold "
    "plans x unit plan cost instead",
    "ModDown inside keyMultModDown: one public call; ckks.moddown_ms "
    "times KeySwitcher::modDown alone on an extended-basis polynomial",
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "fast_perfbench: %s\nusage: fast_perfbench --workload "
                 "<ks-n16|boot-n12|fleet-steady|serve-drift> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] [--tiny] "
                 "[--corrupt] [--tight-deadlines] | --list-metrics\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::atof(value().c_str());
        } else if (a == "--trace") {
            o.trace = value() == "1";
        } else if (a == "--out-dir") {
            o.out_dir = value();
        } else if (a == "--tiny") {
            o.tiny = true;
        } else if (a == "--corrupt") {
            o.corrupt = true;
        } else if (a == "--tight-deadlines") {
            o.tight_deadlines = true;
        } else if (a == "--list-metrics") {
            listMetrics();
            std::exit(0);
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options = parse(argc, argv);
    Tracer tracer(options.trace);
    RunResult result;
    try {
        const std::string &w = options.workload;
        if (w == "ks-n16")
            result = runKsN16(options, tracer);
        else if (w == "boot-n12")
            result = runBootN12(options, tracer);
        else if (w == "fleet-steady")
            result = runFleetSteady(options, tracer);
        else if (w == "serve-drift")
            result = runServeDrift(options, tracer);
        else
            usage(("unknown workload " + w).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fast_perfbench: %s\n", e.what());
        return 3;
    }
    printProvenance(options);

    // Every metric of the run's scope, each exactly once. A metric the
    // workload should have measured but did not is a benchmark bug; a
    // per-layer metric of a layer the workload never calls reads 0.
    std::string metrics;
    for (const auto &def : catalog()) {
        bool wanted = options.trace ? def.scope == Scope::per_layer
                                    : def.scope == Scope::gated;
        if (!wanted)
            continue;
        auto it = result.metrics.find(def.name);
        double value = 0;
        if (it != result.metrics.end()) {
            value = it->second;
        } else if (measuredOn(def, options.workload)) {
            std::fprintf(stderr, "fast_perfbench: %s did not measure %s\n",
                         options.workload.c_str(), def.name);
            return 3;
        }
        if (def.scope == Scope::gated)
            printMetric(def.name, value);
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", def.name, value, def.unit);
        metrics += buf;
    }
    if (options.trace) {
        std::printf("tracing overhead: %+.2f%% of the untraced unit time "
                    "(bench.trace_overhead_frac)\n",
                    100 * result.metrics["bench.trace_overhead_frac"]);
        for (const char *gap : kNotMeasured)
            std::printf("not measured from outside: %s\n", gap);
        tracer.printSummary();
        std::string path = options.out_dir + "/spans-" + options.workload +
                           ".json";
        if (tracer.write(path))
            std::printf("spans written to %s\n", path.c_str());
        else
            std::printf("could not write spans to %s\n", path.c_str());
    }
    for (const auto &f : result.failures)
        std::printf("FAILED CHECK: %s\n", f.c_str());
    if (!options.trace)
        printMetric("fail_frac",
                    result.attempted ? double(result.failed) /
                                           double(result.attempted)
                                     : 0,
                    std::to_string(result.failed) + " of " +
                        std::to_string(result.attempted) + " attempts");
    bool correct = result.correct();
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", result.attempted, result.failed,
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
