/**
 * @file
 * The metric catalog: name, unit, direction, kind, which workloads
 * measure each metric, and which end-to-end metric a per-layer metric
 * should move. `run.py --list-metrics` prints it; the self-test checks
 * BENCHMARK.json against it.
 */
#include "bench.hpp"

#include <deque>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr const char *kAll = "ks-n16,boot-n12,fleet-steady,serve-drift";
constexpr const char *kHost = "ks-n16,boot-n12";
constexpr const char *kKs = "ks-n16";
constexpr const char *kBoot = "boot-n12";
constexpr const char *kSim = "fleet-steady,serve-drift";
constexpr const char *kFleet = "fleet-steady";

constexpr const char *kMovesOps =
    "host_ms_per_unit on ks-n16 (hmult_hybrid_ms, hmult_klss_ms, hrot_ms, "
    "hoisted_rot8_ms) and on boot-n12 (bootstrap_ms)";
constexpr const char *kMovesHost =
    "host_ms_per_unit on fleet-steady (host_us_per_sim_req)";
constexpr const char *kMovesDrift =
    "host_ms_per_unit and goodput_per_s on serve-drift "
    "(host_us_per_sim_req, sim_*)";

std::vector<MetricDef>
build()
{
    std::vector<MetricDef> m = {
        // -- Gated end-to-end metrics: every workload reports them.
        {"setup_s", "s", "lower", Kind::host, Scope::gated, kAll, "",
         "median of several set-ups in one run: context creation and "
         "key generation (host workloads); trace generation and fleet "
         "or scheduler construction (simulated workloads)"},
        {"goodput_per_s", "1/s", "higher", Kind::per_workload,
         Scope::gated, kAll, "",
         "units of work completed correctly per second: key-switch "
         "rounds (ks-n16) or bootstraps (boot-n12) whose every result "
         "passed its check, per second of the measured loop's wall time "
         "(checks included), closed loop with one caller; requests "
         "finished inside their SLO per simulated second (fleet-steady, "
         "serve-drift; exact for a seed)"},
        {"host_ms_per_unit", "ms", "lower", Kind::host, Scope::gated,
         kAll, "",
         "host wall-clock per unit of work: median round of four ops "
         "(ks-n16), median bootstrap (boot-n12), run wall time per "
         "simulated request, the best repetition of each fleet or "
         "trace and the median over them (fleet-steady, serve-drift)"},

        // -- Workload-specific end-to-end metrics, printed by name.
        {"fail_frac", "frac", "lower", Kind::exact, Scope::report, kAll,
         "", "failed / attempted; a host op fails its decrypt check, a "
         "simulated request fails when refused, rejected or timed out"},
        {"hmult_hybrid_ms", "ms", "lower", Kind::host, Scope::report,
         kKs, "", "median HMult+relin, hybrid key switch"},
        {"hmult_klss_ms", "ms", "lower", Kind::host, Scope::report, kKs,
         "", "median HMult+relin, KLSS key switch"},
        {"hrot_ms", "ms", "lower", Kind::host, Scope::report, kKs, "",
         "median HRot, hybrid key switch"},
        {"hoisted_rot8_ms", "ms", "lower", Kind::host, Scope::report,
         kKs, "", "median HoistedRotator family of 8 rotations"},
        {"bootstrap_ms", "ms", "lower", Kind::host, Scope::report, kBoot,
         "", "median Bootstrapper::bootstrap, 1 engine thread"},
        {"boot_precision_bits", "bits", "higher", Kind::exact,
         Scope::report, kBoot, "",
         "-log2 of the largest slot error over all bootstraps"},
        {"sim_e2e_p50_ms", "ms", "lower", Kind::sim, Scope::report, kSim,
         "", "simulated end-to-end p50 over completions"},
        {"sim_e2e_p99_ms", "ms", "lower", Kind::sim, Scope::report, kSim,
         "", "simulated end-to-end p99 over completions"},
        {"sim_slo_goodput_rps", "1/s", "higher", Kind::sim, Scope::report,
         kSim, "",
         "completions within their SLO per simulated second from the "
         "first arrival to the last completion; gated as goodput_per_s"},
        {"host_us_per_sim_req", "us", "lower", Kind::host, Scope::report,
         kSim, "",
         "run wall time per simulated request: the best repetition of "
         "each fleet or trace, then the median over them"},
        {"sim_max_rate_rps", "1/s", "higher", Kind::sim, Scope::report,
         kFleet, "",
         "highest ladder rate with >= 99% of attempts inside the SLO "
         "and no growing backlog"},

        // -- math
        {"math.ntt_fwd_us", "us", "lower", Kind::host, Scope::per_layer,
         kHost, kMovesOps,
         "one limb through NttTableCache::get(n,q)->forward at the "
         "workload's N"},
        {"math.ntt_inv_us", "us", "lower", Kind::host, Scope::per_layer,
         kHost, kMovesOps, "same, inverse"},
        {"math.bconv_us", "us", "lower", Kind::host, Scope::per_layer,
         kHost, kMovesOps,
         "BaseConverter::convertPoly at the first hybrid ModUp digit's "
         "shape"},
        {"math.ntt_calls_per_op", "count", "lower", Kind::exact,
         Scope::per_layer, kHost, kMovesOps,
         "ntt.forward + ntt.inverse counter delta per op"},
        {"math.bconv_calls_per_op", "count", "lower", Kind::exact,
         Scope::per_layer, kHost, kMovesOps,
         "bconv.convert_poly counter delta per op"},
        {"math.engine_regions_per_op", "count", "lower", Kind::exact,
         Scope::per_layer, kHost,
         "ckks.op_ms.bootstrap on boot-n12 (the traced run's parallel "
         "bootstrap; the gated 1-thread host_ms_per_unit barely feels it)",
         "engine.regions counter delta per op"},
        {"math.engine_inline_frac", "frac", "lower", Kind::exact,
         Scope::per_layer, kHost,
         "ckks.op_ms.bootstrap on boot-n12 (traced, min(nproc,4) "
         "threads); 1 by construction on ks-n16 (1 thread), the bypass "
         "workload",
         "engine.regions_inline / engine.regions"},
        {"math.bytes_per_ks", "bytes", "lower", Kind::computed,
         Scope::per_layer, kHost, kMovesOps,
         "computed, not measured: bytes one top-level hybrid key switch "
         "reads and writes (input limbs, digits, evk parts, output)"},

        // -- ckks
        {"ckks.decompose_ms.hybrid", "ms", "lower", Kind::host,
         Scope::per_layer, kKs,
         "host_ms_per_unit on ks-n16 (hmult_hybrid_ms)",
         "KeySwitcher::decompose, hybrid, top level"},
        {"ckks.decompose_ms.klss", "ms", "lower", Kind::host,
         Scope::per_layer, kKs,
         "host_ms_per_unit on ks-n16 (hmult_klss_ms)",
         "KeySwitcher::decompose, KLSS, top level"},
        {"ckks.keymult_moddown_ms.hybrid", "ms", "lower", Kind::host,
         Scope::per_layer, kKs,
         "host_ms_per_unit on ks-n16 (hmult_hybrid_ms)",
         "KeySwitcher::keyMultModDown, hybrid"},
        {"ckks.keymult_moddown_ms.klss", "ms", "lower", Kind::host,
         Scope::per_layer, kKs,
         "host_ms_per_unit on ks-n16 (hmult_klss_ms)",
         "KeySwitcher::keyMultModDown, KLSS"},
        {"ckks.moddown_ms", "ms", "lower", Kind::host, Scope::per_layer,
         kKs, "host_ms_per_unit on ks-n16 (hmult_*)",
         "KeySwitcher::modDown of one extended-basis polynomial"},
        {"ckks.op_unexplained_frac", "frac", "lower", Kind::host,
         Scope::per_layer, kHost, "",
         "share of the summed op medians that no stage span covers"},
        {"ckks.hoist_decompose_ms", "ms", "lower", Kind::host,
         Scope::per_layer, kKs,
         "host_ms_per_unit on ks-n16 (hoisted_rot8_ms)",
         "HoistedRotator construction (one shared decomposition)"},
        {"ckks.hoist_rot_ms", "ms", "lower", Kind::host,
         Scope::per_layer, kKs,
         "host_ms_per_unit on ks-n16 (hoisted_rot8_ms)",
         "one HoistedRotator::rotate"},
        {"ckks.hoist_saving", "ratio", "higher", Kind::host,
         Scope::per_layer, kKs,
         "host_ms_per_unit on ks-n16 (hoisted_rot8_ms)",
         "8 x hrot median / hoisted family median"},
        {"ckks.op_ms.hmult_hybrid", "ms", "lower", Kind::host,
         Scope::per_layer, kKs, "", "traced HMult+relin hybrid, one call"},
        {"ckks.op_ms.hmult_klss", "ms", "lower", Kind::host,
         Scope::per_layer, kKs, "", "traced HMult+relin KLSS, one call"},
        {"ckks.op_ms.hrot", "ms", "lower", Kind::host, Scope::per_layer,
         kKs, "", "traced HRot, one call"},
        {"ckks.op_ms.hoisted_rot8", "ms", "lower", Kind::host,
         Scope::per_layer, kKs, "", "traced hoisted family, one call"},
        {"ckks.op_ms.bootstrap", "ms", "lower", Kind::host,
         Scope::per_layer, kBoot, "",
         "traced bootstrap, one call, at min(nproc,4) engine threads "
         "(the gated bootstrap_ms runs on 1 thread)"},
        {"ckks.boot.modraise_ms", "ms", "lower", Kind::host,
         Scope::per_layer, kBoot,
         "host_ms_per_unit on boot-n12 (bootstrap_ms)",
         "Bootstrapper::modRaise"},
        {"ckks.boot.cts_ms", "ms", "lower", Kind::host, Scope::per_layer,
         kBoot, "host_ms_per_unit on boot-n12 (bootstrap_ms)",
         "Bootstrapper::coeffToSlot + splitReIm"},
        {"ckks.boot.evalmod_ms", "ms", "lower", Kind::host,
         Scope::per_layer, kBoot,
         "host_ms_per_unit on boot-n12 (bootstrap_ms)",
         "both Bootstrapper::evalMod calls"},
        {"ckks.boot.stc_ms", "ms", "lower", Kind::host, Scope::per_layer,
         kBoot, "host_ms_per_unit on boot-n12 (bootstrap_ms)",
         "Bootstrapper::slotToCoeff"},
        {"ckks.boot.ks_per_boot", "count", "lower", Kind::exact,
         Scope::per_layer, kBoot,
         "host_ms_per_unit on boot-n12 (bootstrap_ms)",
         "ks.keymult counter delta per bootstrap"},
        {"ckks.keygen_s", "s", "lower", Kind::host, Scope::per_layer,
         kHost, "setup_s on ks-n16 and boot-n12",
         "key generation part of one set-up"},

        // -- core
        {"core.cold_plans", "count", "lower", Kind::exact,
         Scope::per_layer, kSim, kMovesHost,
         "sum of plan_cache_misses over shards"},
        {"core.mct_entries", "count", "lower", Kind::exact,
         Scope::per_layer, kSim, kMovesHost,
         "aether.mct_entries counter delta over the run"},
        {"core.plan_attributed_frac", "frac", "lower", Kind::host,
         Scope::per_layer, kSim, kMovesHost,
         "cold plans x unit plan cost (FastSystem::execute of the "
         "planned workload) / run wall time"},
        {"core.replans", "count", "lower", Kind::exact, Scope::per_layer,
         kSim, kMovesDrift, "planner.replans counter delta"},
        {"core.planner_measurements", "count", "lower", Kind::exact,
         Scope::per_layer, kSim, kMovesDrift,
         "planner.measurements counter delta"},
        {"core.evk_prefetch_hit_rate", "frac", "higher", Kind::exact,
         Scope::per_layer, kSim,
         "goodput_per_s on fleet-steady and serve-drift (sim_e2e_p50_ms)",
         "hemera.prefetch_hits / (hits + misses)"},

        // -- sim
        {"sim.evk_fetch_share", "frac", "lower", Kind::sim,
         Scope::per_layer, kSim,
         "goodput_per_s on fleet-steady and serve-drift (sim_e2e_p99_ms, "
         "sim_slo_goodput_rps)",
         "evk fetch time / busy time over all devices"},
        {"sim.device_util", "frac", "lower", Kind::sim, Scope::per_layer,
         kSim,
         "goodput_per_s on fleet-steady and serve-drift (sim_e2e_p99_ms, "
         "sim_slo_goodput_rps)",
         "mean device busy_ns / makespan"},

        // -- serve
        {"serve.queue_p50_ms", "sim_ms", "lower", Kind::sim,
         Scope::per_layer, kSim,
         "goodput_per_s on fleet-steady and serve-drift (sim_e2e_p99_ms)",
         "start - submit, p50"},
        {"serve.queue_p99_ms", "sim_ms", "lower", Kind::sim,
         Scope::per_layer, kSim,
         "goodput_per_s on fleet-steady and serve-drift (sim_e2e_p99_ms)",
         "start - submit, p99"},
        {"serve.service_p50_ms", "sim_ms", "lower", Kind::sim,
         Scope::per_layer, kSim,
         "goodput_per_s on fleet-steady and serve-drift (sim_e2e_p50_ms)",
         "done - start, p50"},
        {"serve.batch_size_mean", "count", "higher", Kind::sim,
         Scope::per_layer, kSim,
         "sim_slo_goodput_rps and fail_frac on fleet-steady, serve-drift",
         "requests per dispatched batch"},
        {"serve.plan_cache_hit_rate", "frac", "higher", Kind::exact,
         Scope::per_layer, kSim,
         "sim_slo_goodput_rps and fail_frac on fleet-steady, serve-drift",
         "plan cache hits / lookups over all shards"},
        {"serve.timed_out", "count", "lower", Kind::exact,
         Scope::per_layer, kSim,
         "sim_slo_goodput_rps and fail_frac on fleet-steady, serve-drift",
         "post-admission failures"},
        {"serve.retries", "count", "lower", Kind::exact,
         Scope::per_layer, kSim,
         "sim_slo_goodput_rps and fail_frac on fleet-steady, serve-drift",
         "retry attempts scheduled"},

        // -- fleet
        {"fleet.router_reject_frac", "frac", "lower", Kind::exact,
         Scope::per_layer, kFleet, "fail_frac on fleet-steady",
         "router_rejected / generated"},
        {"fleet.locality_hit_rate", "frac", "higher", Kind::exact,
         Scope::per_layer, kFleet,
         "core.cold_plans and goodput_per_s on fleet-steady",
         "locality hits / routed"},
        {"fleet.shard_imbalance", "ratio", "lower", Kind::exact,
         Scope::per_layer, kFleet,
         "goodput_per_s on fleet-steady (sim_e2e_p99_ms)",
         "max / mean completions per shard"},

        // -- trace
        {"trace.gen_ms", "ms", "lower", Kind::host, Scope::per_layer,
         kSim, "setup_s on fleet-steady and serve-drift",
         "op-stream and arrival generation"},

        // -- the benchmark itself
        {"bench.trace_overhead_frac", "frac", "lower", Kind::host,
         Scope::per_layer, kAll, "",
         "traced unit time / untraced unit time - 1, same invocation"},
    };
    return m;
}

/** The six serving-mix workloads, keyed as in metric names. */
const char *const kMixKeys[] = {"bootstrap", "helr256", "resnet-20",
                                "pir", "transformer", "schemeswitch"};

std::vector<MetricDef>
buildAll()
{
    auto m = build();
    // Per-workload metrics of the serving mix. The names live in
    // static storage (a deque never moves its elements) so MetricDef
    // can hold plain pointers.
    static std::deque<std::string> names;
    auto add = [&m](const std::string &name, const char *unit,
                    const char *better, Kind kind, const char *moves,
                    const char *meaning) {
        names.push_back(name);
        m.push_back({names.back().c_str(), unit, better, kind,
                     Scope::per_layer, kSim, moves, meaning});
    };
    for (const char *wl : kMixKeys) {
        std::string w = wl;
        add("core.aether_analyze_ms." + w, "ms", "lower", Kind::host,
            kMovesHost, "FastSystem::makeAether().analyze(stream)");
        add("core.aether_select_ms." + w, "ms", "lower", Kind::host,
            kMovesHost, "Aether::select over the analyzed MCT");
        add("sim.execute_ms." + w, "ms", "lower", Kind::host, kMovesHost,
            "host time of FastSystem::execute(stream)");
        add("sim.service_ms." + w, "sim_ms", "lower", Kind::sim,
            "goodput_per_s on fleet-steady and serve-drift "
            "(sim_e2e_p50_ms)",
            "exact unloaded latency on one device");
        if (w == "bootstrap" || w == "helr256" || w == "resnet-20")
            add("sim.paper_ratio." + w, "ratio", "lower", Kind::sim, "",
                "sim.service_ms / baseline::publishedFast() Table 5 row");
    }
    return m;
}

} // namespace

const std::vector<MetricDef> &
catalog()
{
    static const std::vector<MetricDef> all = buildAll();
    return all;
}

const MetricDef &
metricDef(const std::string &name)
{
    for (const auto &def : catalog())
        if (name == def.name)
            return def;
    throw std::out_of_range("unknown metric " + name);
}

const char *
toString(Kind kind)
{
    switch (kind) {
    case Kind::host:
        return "host";
    case Kind::sim:
        return "sim";
    case Kind::exact:
        return "exact";
    case Kind::computed:
        return "computed";
    case Kind::per_workload:
        return "host on ks-n16/boot-n12, sim on fleet-steady/serve-drift";
    }
    return "?";
}

const char *
toString(Scope scope)
{
    switch (scope) {
    case Scope::gated:
        return "end_to_end";
    case Scope::report:
        return "report";
    case Scope::per_layer:
        return "per_layer";
    }
    return "?";
}

} // namespace perfbench
