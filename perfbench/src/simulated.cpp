/**
 * @file
 * Simulated-stack workloads: `fleet-steady` (4 shards x 2 FAST devices
 * under the six-tenant serving mix) and `serve-drift` (one 2-device
 * scheduler under a HELR -> ResNet -> HELR drift with online planning).
 *
 * Simulated metrics are computed here from ServeStats::completions and
 * the rejection and failure records, never from the library's own
 * throughput/goodput fields, and repeat exactly for a seed. Host
 * metrics are the wall-clock cost of producing them.
 */
#include "bench.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <functional>
#include <random>
#include <set>
#include <stdexcept>

#include "baseline/published.hpp"
#include "fleet/fleet.hpp"
#include "serve/device_pool.hpp"
#include "sim/system.hpp"
#include "trace/workloads.hpp"

namespace perfbench {

using namespace fast;

namespace {

/** SLO of a request: this multiple of its unloaded service time. */
constexpr double kSloMultiple = 8.0;

std::string
mixKey(const std::string &stream_name)
{
    std::string key;
    for (char c : stream_name)
        key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return key;
}

/** Exact unloaded one-device latency (ms), by stream name. */
using ServiceMs = std::map<std::string, double>;

ServiceMs
unloaded(const std::vector<trace::OpStream> &streams)
{
    ServiceMs u;
    sim::FastSystem system{hw::FastConfig::fast()};
    for (const auto &s : streams)
        u[s.name] = system.execute(s).stats.milliseconds();
    return u;
}

/** What one simulated run produced, summarized by the benchmark. */
struct SimSummary {
    std::size_t generated = 0;
    std::size_t completed = 0;
    std::size_t refused = 0;    ///< router refusals + admission rejections
    std::size_t timed_out = 0;
    std::size_t slo_met = 0;
    double window_s = 0;        ///< first submit to last completion, summed
    double p50_ms = 0, p99_ms = 0;
    double queue_p50_ms = 0, queue_p99_ms = 0, service_p50_ms = 0;
    bool backlog_grows = false;

    double throughputRps() const { return window_s > 0 ? completed / window_s : 0; }
    double goodputRps() const { return window_s > 0 ? slo_met / window_s : 0; }
    /** Requests that failed: refused, rejected or timed out. */
    std::size_t failed() const { return refused + timed_out; }
    /** Share of generated requests that failed or missed their SLO. */
    double sloMissFrac() const
    {
        return generated ? 1 - double(slo_met) / double(generated) : 0;
    }
    /** Exact fields, for replay comparison. */
    std::vector<double> exact() const
    {
        return {double(generated), double(completed), double(refused),
                double(timed_out),  double(slo_met),   window_s,
                p50_ms,             p99_ms,            queue_p50_ms,
                queue_p99_ms,       service_p50_ms};
    }
};

/** Nearest-rank percentile (ms) of ns samples. */
double
pctMs(std::vector<double> ns, double q)
{
    Samples s;
    s.values = std::move(ns);
    return s.quantile(q) / 1e6;
}

/** The records of one simulated run (one fleet or one scheduler). */
struct RunView {
    std::vector<const serve::ServeStats *> shards;
    std::size_t generated = 0;
    std::size_t router_refused = 0;
};

/**
 * Pool the completion, rejection and failure records of @p runs. Each
 * run has its own timeline, so the windows add up; latencies pool.
 */
SimSummary
summarize(const std::vector<RunView> &runs, const ServiceMs &u)
{
    SimSummary out;
    std::vector<double> e2e, queue, service;
    for (const RunView &run : runs) {
        out.generated += run.generated;
        out.refused += run.router_refused;
        struct Arrival {
            double submit, queue;
        };
        std::vector<Arrival> arrivals;
        double first = INFINITY, last = 0;
        for (const auto *st : run.shards) {
            out.refused += st->rejections.size();
            out.timed_out += st->failures.size();
            for (const auto &c : st->completions) {
                ++out.completed;
                e2e.push_back(c.e2eNs());
                queue.push_back(c.queueNs());
                service.push_back(c.done_ns - c.start_ns);
                arrivals.push_back({c.submit_ns, c.queueNs()});
                first = std::min(first, c.submit_ns);
                last = std::max(last, c.done_ns);
                double slo_ns =
                    kSloMultiple * u.at(c.workload) * 1e6;
                if (c.e2eNs() <= slo_ns)
                    ++out.slo_met;
            }
        }
        if (last > first)
            out.window_s += (last - first) / 1e9;

        // Backlog growth: arrivals in the last quarter wait longer than
        // 1.5x (+1 ms) the arrivals of the second quarter.
        std::sort(arrivals.begin(), arrivals.end(),
                  [](const Arrival &a, const Arrival &b) {
                      return a.submit < b.submit;
                  });
        auto meanQueue = [&arrivals](std::size_t lo, std::size_t hi) {
            double sum = 0;
            for (std::size_t i = lo; i < hi; ++i)
                sum += arrivals[i].queue;
            return hi > lo ? sum / double(hi - lo) : 0.0;
        };
        std::size_t n = arrivals.size();
        if (n >= 8 && meanQueue(3 * n / 4, n) >
                          1.5 * meanQueue(n / 4, n / 2) + 1e6)
            out.backlog_grows = true;
    }
    out.p50_ms = pctMs(e2e, 0.50);
    out.p99_ms = pctMs(e2e, 0.99);
    out.queue_p50_ms = pctMs(queue, 0.50);
    out.queue_p99_ms = pctMs(queue, 0.99);
    out.service_p50_ms = pctMs(service, 0.50);
    return out;
}

/** Invariant checks on one run; each violation is a failure. */
void
checkRun(const SimSummary &s, RunResult &out, const std::string &what)
{
    if (s.completed + s.refused + s.timed_out != s.generated)
        out.fail(what + ": completed " + std::to_string(s.completed) +
                 " + refused " + std::to_string(s.refused) +
                 " + timed out " + std::to_string(s.timed_out) +
                 " != generated " + std::to_string(s.generated));
    if (s.goodputRps() > s.throughputRps())
        out.fail(what + ": goodput above throughput");
}

void
printSim(const SimSummary &s, const std::vector<Samples> &us_per_req,
         const std::string &workload)
{
    char note[96];
    std::snprintf(note, sizeof(note), "n=%zu completions", s.completed);
    printMetric("sim_e2e_p50_ms", s.p50_ms, note);
    printMetric("sim_e2e_p99_ms", s.p99_ms,
                s.completed >= 1000 ? note
                                    : "fewer than 10 samples beyond p99");
    char slo[160];
    std::snprintf(slo, sizeof(slo),
                  "SLO = %.0f x sim.service_ms.<wl>; throughput %.3f 1/s; "
                  "%.2f%% of requests miss the SLO",
                  kSloMultiple, s.throughputRps(), 100 * s.sloMissFrac());
    printMetric("sim_slo_goodput_rps", s.goodputRps(), slo);
    std::printf("requests: %zu generated, %zu completed, %zu refused or "
                "rejected, %zu timed out (these count in fail_frac, not "
                "as failed checks)\n",
                s.generated, s.completed, s.refused, s.timed_out);
    std::size_t runs = 0;
    for (const auto &input : us_per_req)
        runs += input.size();
    char host[128];
    std::snprintf(host, sizeof(host),
                  "median over %zu inputs of the best of their runs, n=%zu "
                  "%s runs",
                  us_per_req.size(), runs, workload.c_str());
    printMetric("host_us_per_sim_req", bestPerInputMedian(us_per_req), host);
}

/** Host cost (ms) of one cold plan of each workload, by stream name. */
struct PlanCosts {
    std::map<std::string, double> full;     ///< execute(stream): plan + simulate
    std::map<std::string, double> planned;  ///< execute(stream, config)
    std::map<std::string, double> session;  ///< analyze + select
};

/** Median wall time (ms) of three calls of @p body. */
template <typename F>
double
median3(F &&body)
{
    Samples s;
    for (int i = 0; i < 3; ++i) {
        auto t0 = Clock::now();
        body();
        s.add(msSince(t0));
    }
    return s.median();
}

/** Probe phase: analyze, select and execute each workload of the mix. */
PlanCosts
probeMix(const std::vector<trace::OpStream> &streams, Tracer &tracer,
         RunResult &out)
{
    PlanCosts costs;
    sim::FastSystem system{hw::FastConfig::fast()};
    const auto &paper = baseline::publishedFast();
    for (const auto &stream : streams) {
        std::string key = mixKey(stream.name);
        tracer.newGroup();
        Tracer::Scope probe(tracer, "probe." + key);
        auto aether = system.makeAether();
        std::vector<core::MctEntry> mct;
        core::AetherConfig config;
        double analyze_ms, select_ms, exec_ms;
        {
            Tracer::Scope s(tracer, "core.aether_analyze");
            mct = aether.analyze(stream);
            analyze_ms = s.elapsedMs();
        }
        {
            Tracer::Scope s(tracer, "core.aether_select");
            config = aether.select(mct);
            select_ms = s.elapsedMs();
        }
        sim::WorkloadResult result;
        {
            Tracer::Scope s(tracer, "sim.execute");
            result = system.execute(stream);
            exec_ms = s.elapsedMs();
        }
        // Unit plan costs for attribution, outside the spans.
        costs.full[stream.name] =
            median3([&] { (void)system.execute(stream); });
        costs.planned[stream.name] =
            median3([&] { (void)system.execute(stream, config); });
        costs.session[stream.name] = analyze_ms + select_ms;
        double service = result.stats.milliseconds();
        out.set("core.aether_analyze_ms." + key, analyze_ms);
        out.set("core.aether_select_ms." + key, select_ms);
        out.set("sim.execute_ms." + key, exec_ms);
        out.set("sim.service_ms." + key, service);
        double published = key == "bootstrap"   ? paper.bootstrap_ms
                           : key == "helr256"   ? paper.helr256_ms
                           : key == "resnet-20" ? paper.resnet_ms
                                                : -1;
        if (published > 0)
            out.set("sim.paper_ratio." + key, service / published);
    }
    return costs;
}

/** Per-layer serve/sim/core metrics shared by both simulated workloads. */
void
serveLayers(const std::vector<const serve::ServeStats *> &shards,
            const SimSummary &s, const Tracer::Span &run_span,
            const std::map<std::string, double> &plan_ms,
            const std::map<std::string, double> *session_ms,
            RunResult &out)
{
    double batches = 0, hits = 0, misses = 0, timed_out = 0, retries = 0;
    double evk_ns = 0, busy_ns = 0, util = 0, devices = 0, attributed = 0;
    for (const auto *st : shards) {
        batches += double(st->batches);
        hits += double(st->plan_cache_hits);
        misses += double(st->plan_cache_misses);
        timed_out += double(st->timed_out);
        retries += double(st->faults.retries);
        for (const auto &d : st->devices) {
            evk_ns += d.evk_fetch_ns;
            busy_ns += d.busy_ns;
            util += d.utilization;
            devices += 1;
        }
        // Each cold plan costs one FastSystem::execute of a workload the
        // shard served; plan_ms holds that unit cost per workload.
        std::set<std::string> planned;
        for (const auto &c : st->completions)
            planned.insert(c.workload);
        double unit = 0;
        for (const auto &w : planned)
            unit += plan_ms.at(w);
        if (!planned.empty())
            attributed += unit / double(planned.size()) *
                          double(st->plan_cache_misses);
        // A planner session analyzes and selects once per workload.
        if (session_ms)
            for (const auto &w : planned)
                attributed += session_ms->at(w);
    }
    auto counter = [&run_span](const char *name) {
        auto it = run_span.counters.find(name);
        return it == run_span.counters.end() ? 0.0 : double(it->second);
    };
    double wall = run_span.durationMs();
    out.set("core.cold_plans", misses);
    out.set("core.mct_entries", counter("aether.mct_entries"));
    out.set("core.plan_attributed_frac", wall > 0 ? attributed / wall : 0);
    out.set("core.replans", counter("planner.replans"));
    out.set("core.planner_measurements", counter("planner.measurements"));
    double ph = counter("hemera.prefetch_hits");
    double pm = counter("hemera.prefetch_misses");
    out.set("core.evk_prefetch_hit_rate", ph + pm > 0 ? ph / (ph + pm) : 0);
    out.set("sim.evk_fetch_share", busy_ns > 0 ? evk_ns / busy_ns : 0);
    out.set("sim.device_util", devices > 0 ? util / devices : 0);
    out.set("serve.queue_p50_ms", s.queue_p50_ms);
    out.set("serve.queue_p99_ms", s.queue_p99_ms);
    out.set("serve.service_p50_ms", s.service_p50_ms);
    out.set("serve.batch_size_mean",
            batches > 0 ? double(s.completed) / batches : 0);
    out.set("serve.plan_cache_hit_rate",
            hits + misses > 0 ? hits / (hits + misses) : 0);
    out.set("serve.timed_out", timed_out);
    out.set("serve.retries", retries);
    std::printf("layer-sum run wall %.1f ms: attributed planning + "
                "simulation (cold plans x unit plan cost) %.1f ms "
                "(%.1f%%), unattributed %.1f ms\n",
                wall, attributed, wall > 0 ? 100 * attributed / wall : 0,
                wall - attributed);
}

/** Exact replay check: every repetition must match the first. */
void
checkReplay(const SimSummary &first, const SimSummary &again,
            RunResult &out, const std::string &what)
{
    if (first.exact() != again.exact())
        out.fail(what + ": same-seed repetition diverged");
}

// ---------------------------------------------------------------------
// The measured phase both simulated workloads share.

/** One repetition: its host time, per-run host cost and summary. */
struct Repetition {
    double ms = 0;                   ///< every sub-run
    std::vector<double> us_per_req;  ///< host us per request, per sub-run
    SimSummary summary;
};

/** Host time of the repetitions, whole and per simulated request. */
struct Measured {
    Samples rep_ms;
    std::vector<Samples> us_per_req;  ///< by sub-run (input)
};

/**
 * Repeat @p rep until the time is up (traced runs: a warm-up, an
 * untraced and a traced repetition). Every repetition must reproduce
 * the first exactly; @p rep is told when it is the first, so it can
 * keep that repetition's records.
 */
Measured
measure(const Options &options, Tracer &tracer, const std::string &name,
        const std::function<Repetition(bool first)> &rep,
        SimSummary &first, RunResult &out)
{
    Measured m;
    auto t_start = Clock::now();
    do {
        tracer.setEnabled(options.trace && m.rep_ms.size() == 2);
        Repetition r = rep(m.rep_ms.size() == 0);
        m.rep_ms.add(r.ms);
        m.us_per_req.resize(r.us_per_req.size());
        for (std::size_t k = 0; k < r.us_per_req.size(); ++k)
            m.us_per_req[k].add(r.us_per_req[k]);
        if (m.rep_ms.size() == 1)
            first = r.summary;
        else
            checkReplay(first, r.summary, out, name);
    } while (options.trace ? m.rep_ms.size() < 3
                           : msSince(t_start) < options.seconds * 1e3);
    return m;
}

/**
 * Attempts, failed requests and invariant checks of the first
 * repetition. Refused and timed-out requests are failed attempts, not
 * failed checks.
 */
void
account(const SimSummary &first, RunResult &out, const std::string &name)
{
    out.attempted = first.generated;
    out.failed += first.failed();
    checkRun(first, out, name);
}

/** The gated metrics and the by-name report of an untraced run. */
void
reportUntraced(const SimSummary &first, const Measured &m,
               const Samples &setup_ms, const std::string &name,
               RunResult &out)
{
    out.set("setup_s", setup_ms.median() / 1e3);
    out.set("goodput_per_s", first.goodputRps());
    out.set("host_ms_per_unit", bestPerInputMedian(m.us_per_req) / 1e3);
    printSim(first, m.us_per_req, name);
}

/** Sub-seeds of one run: each repetition serves every sub-seed once. */
std::uint64_t
subSeed(std::uint64_t seed, std::size_t k)
{
    return seed * 1000 + k;
}

// ---------------------------------------------------------------------
// fleet-steady

fleet::FleetOptions
fleetOptions(bool tiny)
{
    fleet::FleetOptions o;
    o.shards = 4;
    o.shard.devices = 2;
    o.shard.device = hw::FastConfig::fast();
    o.shard.scheduler = serve::SchedulerOptions::builder()
                            .policy(serve::QueuePolicy::priority)
                            .maxQueueDepth(16)
                            .maxBatch(4)
                            .build()
                            .value();
    o.epoch_ns = 10e6;
    o.horizon_ns = tiny ? 0.3e9 : 2.4e9;
    return o;
}

fleet::TrafficOptions
fleetTraffic(std::uint64_t seed, double rate_rps)
{
    fleet::TrafficOptions t;
    t.seed = seed;
    t.mean_interarrival_ns = 1e9 / rate_rps;
    t.tenant_population = 2'000'000;
    t.zipf_exponent = 0.8;
    return t;
}

/**
 * Nominal offered rate (1/s) and the fixed ladder below it. Short
 * requests queued behind ResNet batches put the 99% SLO knee near
 * 75 1/s, so the ladder is dense there. Each rung serves the same
 * number of requests.
 */
constexpr double kFleetNominalRps = 500;
const double kFleetLadder[] = {25, 50, 75, 100, 150, 200, 300};
constexpr double kLadderRequests = 600;
/** Independent fleets (sub-seeds) per repetition. */
constexpr std::size_t kFleetSubRuns = 4;

RunView
fleetView(const fleet::FleetStats &stats)
{
    RunView view;
    for (const auto &sh : stats.shards)
        view.shards.push_back(&sh.stats);
    view.generated = stats.generated;
    view.router_refused = stats.router_rejected;
    return view;
}

void
requireBalanced(const fleet::FleetStats &stats, RunResult &out,
                const std::string &what)
{
    try {
        stats.requireBalanced();
    } catch (const std::exception &e) {
        out.fail(what + ": " + e.what());
    }
}

/** Offered-rate ladder: the highest rate inside the SLO (1/s). */
double
fleetLadder(const Options &options, const std::vector<fleet::WorkloadSpec> &mix,
            const ServiceMs &u, RunResult &out)
{
    double max_rate = 0;
    auto ladder_options = fleetOptions(options.tiny);
    for (double rate : kFleetLadder) {
        if (options.tiny && rate != 50 && rate != 300)
            continue;
        double requests = options.tiny ? kLadderRequests / 6 : kLadderRequests;
        ladder_options.horizon_ns = requests / rate * 1e9;
        fleet::Fleet f(ladder_options, mix,
                       fleetTraffic(subSeed(options.seed, 0), rate));
        auto stats = f.run();
        auto s = summarize({fleetView(stats)}, u);
        std::string what = "ladder " + std::to_string(int(rate));
        requireBalanced(stats, out, what);
        checkRun(s, out, what);
        double met =
            s.generated ? double(s.slo_met) / double(s.generated) : 0;
        bool ok = met >= 0.99 && !s.backlog_grows;
        if (ok)
            max_rate = std::max(max_rate, rate);
        std::printf("ladder rate %4.0f 1/s: p50 %.3f ms, p99 %.3f ms, "
                    "SLO met %.2f%%, refused %zu, backlog %s%s\n",
                    rate, s.p50_ms, s.p99_ms, 100 * met, s.refused,
                    s.backlog_grows ? "grows" : "steady",
                    ok ? "" : "  (over)");
    }
    return max_rate;
}

} // namespace

RunResult
runFleetSteady(const Options &options, Tracer &tracer)
{
    RunResult out;
    auto options_fleet = fleetOptions(options.tiny);
    auto makeFleets = [&](const std::vector<fleet::WorkloadSpec> &mix) {
        std::vector<std::unique_ptr<fleet::Fleet>> fleets;
        for (std::size_t k = 0; k < kFleetSubRuns; ++k)
            fleets.push_back(std::make_unique<fleet::Fleet>(
                options_fleet, mix,
                fleetTraffic(subSeed(options.seed, k), kFleetNominalRps)));
        return fleets;
    };

    // Set-up: trace generation + fleet construction, many times.
    Samples setup_ms, gen_ms;
    std::vector<fleet::WorkloadSpec> mix;
    for (int i = 0; i < 200; ++i) {
        auto t0 = Clock::now();
        mix = fleet::TrafficGen::servingMix();
        gen_ms.add(msSince(t0));
        auto fleets = makeFleets(mix);
        setup_ms.add(msSince(t0));
    }
    std::vector<trace::OpStream> streams;
    for (const auto &w : mix)
        streams.push_back(w.stream);
    auto u = unloaded(streams);

    std::printf("fleet-steady: %zu fleets of 4 shards x 2 FAST devices, "
                "six-tenant serving mix, Zipf(0.8) tenants over 2M users, "
                "open-loop Poisson arrivals at %.0f 1/s for %.2f simulated "
                "s each; arrivals are drawn in simulated time, so the "
                "generator never runs late\n",
                kFleetSubRuns, kFleetNominalRps,
                options_fleet.horizon_ns / 1e9);

    std::vector<fleet::FleetStats> first_stats;
    Tracer::Span rep_span;
    SimSummary first;
    auto measured = measure(
        options, tracer, "fleet-steady",
        [&](bool is_first) {
            auto fleets = makeFleets(mix);
            std::vector<fleet::FleetStats> stats(kFleetSubRuns);
            std::size_t span_index = tracer.spans().size();
            Repetition r;
            {
                tracer.newGroup();
                Tracer::Scope rep(tracer, "fleet.repetition");
                for (std::size_t k = 0; k < kFleetSubRuns; ++k) {
                    Tracer::Scope span(tracer, "fleet.run");
                    stats[k] = fleets[k]->run();
                    r.us_per_req.push_back(span.elapsedMs() * 1e3 /
                                           double(stats[k].generated));
                }
                r.ms = rep.elapsedMs();
            }
            if (span_index < tracer.spans().size())
                rep_span = tracer.spans()[span_index];
            std::vector<RunView> views;
            for (const auto &st : stats)
                views.push_back(fleetView(st));
            r.summary = summarize(views, u);
            if (is_first)
                first_stats = std::move(stats);
            return r;
        },
        first, out);

    account(first, out, "fleet-steady");
    for (const auto &st : first_stats)
        requireBalanced(st, out, "fleet-steady");

    if (!options.trace) {
        reportUntraced(first, measured, setup_ms, "fleet-steady", out);
        printMetric("sim_max_rate_rps", fleetLadder(options, mix, u, out),
                    "ladder 25..300 1/s, SLO met >= 99%, steady backlog");
        return out;
    }

    // PlannerMode::off: a cold plan is a full execute (Aether included).
    auto costs = probeMix(streams, tracer, out);
    std::vector<const serve::ServeStats *> shards;
    std::vector<double> per_shard(options_fleet.shards, 0.0);
    double router_rejected = 0, routed = 0, locality_hits = 0;
    for (const auto &st : first_stats) {
        for (std::size_t i = 0; i < st.shards.size(); ++i) {
            shards.push_back(&st.shards[i].stats);
            per_shard[i % per_shard.size()] +=
                double(st.shards[i].stats.completed);
        }
        router_rejected += double(st.router_rejected);
        routed += double(st.routed);
        locality_hits += double(st.locality_hits);
    }
    serveLayers(shards, first, rep_span, costs.full, nullptr, out);
    double mean = 0, mx = 0;
    for (double c : per_shard) {
        mean += c / double(per_shard.size());
        mx = std::max(mx, c);
    }
    out.set("fleet.router_reject_frac",
            first.generated ? router_rejected / double(first.generated) : 0);
    out.set("fleet.locality_hit_rate", routed > 0 ? locality_hits / routed : 0);
    out.set("fleet.shard_imbalance", mean > 0 ? mx / mean : 0);
    out.set("trace.gen_ms", gen_ms.median());
    out.set("bench.trace_overhead_frac",
            measured.rep_ms.values[2] / measured.rep_ms.values[1] - 1);
    return out;
}

// ---------------------------------------------------------------------
// serve-drift

namespace {

/** Independent drifting traces (sub-seeds) per repetition. */
constexpr std::size_t kDriftSubRuns = 6;
/**
 * HELR deadline after submission. The nominal one never fires (no
 * HELR request waits longer than ~140 ms); the self-test's tight one
 * times requests out to show they count as failed, not as wrong.
 */
constexpr double kHelrDeadlineNs = 2.32e8;
constexpr double kTightHelrDeadlineNs = 1e7;

/**
 * Drifting arrivals, fixed in advance: a HELR-heavy leg, a
 * ResNet-heavy leg, then HELR-heavy again. Each leg has a fixed
 * workload composition; the seed shuffles its order and jitters the
 * arrival times inside evenly spaced slots. HELR requests carry a
 * deadline.
 */
std::vector<serve::Request>
driftArrivals(std::uint64_t seed, bool tiny, double helr_deadline_ns)
{
    using serve::Priority;
    struct Tenant {
        const char *name;
        Priority priority;
        trace::OpStream stream;
    };
    Tenant boot{"tenant-boot", Priority::high, trace::bootstrapTrace()};
    Tenant helr{"tenant-helr", Priority::normal, trace::helrTrace(256)};
    Tenant resnet{"tenant-resnet", Priority::normal, trace::resnetTrace()};
    struct Leg {
        std::vector<std::pair<const Tenant *, std::size_t>> counts;
        double gap_ns;
    };
    std::size_t scale = tiny ? 8 : 1;
    const Leg legs[] = {
        {{{&boot, 100 / scale}, {&helr, 300 / scale}}, 0.6e6},
        {{{&helr, 4 / scale + 1}, {&resnet, 12 / scale + 1}}, 12e6},
        {{{&boot, 175 / scale}, {&helr, 525 / scale}}, 0.6e6},
    };
    std::mt19937_64 rng(seed * 0xD1B54A32D192ED03ULL + 5);
    std::uniform_real_distribution<double> jitter(0.0, 1.0);
    std::vector<serve::Request> all;
    double clock = 0;
    for (const Leg &leg : legs) {
        std::vector<const Tenant *> order;
        for (const auto &[tenant, count] : leg.counts)
            order.insert(order.end(), count, tenant);
        std::shuffle(order.begin(), order.end(), rng);
        for (const Tenant *t : order) {
            serve::Request r;
            r.id = all.size();
            r.tenant = t->name;
            r.priority = t->priority;
            r.submit_ns = clock + jitter(rng) * leg.gap_ns;
            r.stream = t->stream;
            if (t == &helr)
                r.deadline_ns = r.submit_ns + helr_deadline_ns;
            all.push_back(std::move(r));
            clock += leg.gap_ns;
        }
    }
    return all;
}

serve::SchedulerOptions
driftOptions()
{
    core::PlannerOptions planner;
    planner.mode = core::PlannerMode::online;
    planner.window_ns = 4.0e6;
    planner.min_window_requests = 4;
    planner.hysteresis = 0.006;
    return serve::SchedulerOptions::builder()
        .policy(serve::QueuePolicy::priority)
        .maxQueueDepth(256)
        .maxBatch(4)
        .plannerOptions(planner)
        .build()
        .value();
}

/** One 2-device pool and its scheduler. */
struct DriftServer {
    serve::DevicePool pool;
    serve::Scheduler scheduler;

    DriftServer()
        : pool(serve::DevicePool::builder()
                   .add(hw::FastConfig::fast(), 2)
                   .build()
                   .value()),
          scheduler(pool, driftOptions())
    {
    }
};

/**
 * How close the HELR deadlines come to firing: a request times out when
 * its deadline passes before it starts service; one that starts in time
 * may still finish after it.
 */
void
printDeadlines(const std::vector<std::vector<serve::Request>> &arrivals,
               const std::vector<serve::ServeStats> &stats)
{
    std::size_t with_deadline = 0, timed_out = 0, late = 0;
    double min_margin_ns = INFINITY;
    for (std::size_t k = 0; k < stats.size(); ++k) {
        for (const auto &r : arrivals[k])
            with_deadline += r.hasDeadline();
        timed_out += stats[k].timed_out;
        for (const auto &c : stats[k].completions) {
            const auto &r = arrivals[k].at(c.request_id);
            if (!r.hasDeadline())
                continue;
            late += c.done_ns > r.deadline_ns;
            min_margin_ns = std::min(min_margin_ns, r.deadline_ns - c.start_ns);
        }
    }
    std::printf("HELR deadlines: %zu requests carry one, %zu timed out, %zu "
                "finished after it, smallest start-to-deadline margin "
                "%.3f ms\n",
                with_deadline, timed_out, late, min_margin_ns / 1e6);
}

} // namespace

RunResult
runServeDrift(const Options &options, Tracer &tracer)
{
    RunResult out;
    auto makeServers = [] {
        std::vector<std::unique_ptr<DriftServer>> servers;
        for (std::size_t k = 0; k < kDriftSubRuns; ++k)
            servers.push_back(std::make_unique<DriftServer>());
        return servers;
    };

    // Set-up: arrival generation + scheduler construction, many times.
    Samples setup_ms, gen_ms;
    std::vector<std::vector<serve::Request>> arrivals(kDriftSubRuns);
    for (int i = 0; i < 25; ++i) {
        auto t0 = Clock::now();
        for (std::size_t k = 0; k < kDriftSubRuns; ++k)
            arrivals[k] = driftArrivals(subSeed(options.seed, k), options.tiny,
                                        options.tight_deadlines
                                            ? kTightHelrDeadlineNs
                                            : kHelrDeadlineNs);
        gen_ms.add(msSince(t0));
        auto servers = makeServers();
        setup_ms.add(msSince(t0));
    }
    auto streams = trace::allServingWorkloads();
    auto u = unloaded(streams);

    std::printf("serve-drift: %zu traces of HELR -> ResNet -> HELR, %zu "
                "requests each, on 1 scheduler x 2 FAST devices, "
                "PlannerMode::online; arrival times are fixed in advance, "
                "so the generator never runs late\n",
                kDriftSubRuns, arrivals[0].size());

    std::vector<serve::ServeStats> first_stats;
    Tracer::Span rep_span;
    SimSummary first;
    auto measured = measure(
        options, tracer, "serve-drift",
        [&](bool is_first) {
            auto servers = makeServers();
            std::vector<serve::ServeStats> stats(kDriftSubRuns);
            std::size_t span_index = tracer.spans().size();
            Repetition r;
            {
                tracer.newGroup();
                Tracer::Scope rep(tracer, "serve.repetition");
                for (std::size_t k = 0; k < kDriftSubRuns; ++k) {
                    Tracer::Scope span(tracer, "serve.run");
                    stats[k] = servers[k]->scheduler.run(arrivals[k]);
                    r.us_per_req.push_back(span.elapsedMs() * 1e3 /
                                           double(arrivals[k].size()));
                }
                r.ms = rep.elapsedMs();
            }
            if (span_index < tracer.spans().size())
                rep_span = tracer.spans()[span_index];
            std::vector<RunView> views;
            for (std::size_t k = 0; k < kDriftSubRuns; ++k)
                views.push_back({{&stats[k]}, arrivals[k].size(), 0});
            r.summary = summarize(views, u);
            if (is_first)
                first_stats = std::move(stats);
            return r;
        },
        first, out);

    account(first, out, "serve-drift");
    for (const auto &st : first_stats) {
        try {
            st.requireBalanced();
        } catch (const std::exception &e) {
            out.fail(std::string("serve-drift: ") + e.what());
        }
    }

    if (!options.trace) {
        reportUntraced(first, measured, setup_ms, "serve-drift", out);
        printDeadlines(arrivals, first_stats);
        return out;
    }

    // PlannerMode::online: the session analyzes and selects once per
    // workload, and a cold plan simulates under the selected config.
    // Candidate re-scoring (further selects) stays unattributed.
    auto costs = probeMix(streams, tracer, out);
    std::vector<const serve::ServeStats *> shards;
    for (const auto &st : first_stats)
        shards.push_back(&st);
    serveLayers(shards, first, rep_span, costs.planned, &costs.session,
                out);
    out.set("trace.gen_ms", gen_ms.median());
    out.set("bench.trace_overhead_frac",
            measured.rep_ms.values[2] / measured.rep_ms.values[1] - 1);
    return out;
}

} // namespace perfbench
