/**
 * @file
 * Host workloads: `ks-n16` (key-switch ops at N=2^16, one thread) and
 * `boot-n12` (full bootstraps on CkksParams::testBoot(): one thread in
 * the measured run, min(nproc, 4) in the traced run).
 *
 * Every result is decrypted outside the timed region and compared
 * with the plaintext computation. Key-switch results are checked
 * exactly in the ring: decrypt(ct) - expected is CRT-reconstructed
 * from two limbs, every other limb must agree with it, and its largest
 * coefficient must stay inside the tolerance. Bootstraps are checked
 * on the decoded slots.
 */
#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <thread>

#include "ckks/bootstrap.hpp"
#include "math/ntt.hpp"
#include "math/parallel.hpp"
#include "math/primes.hpp"

namespace perfbench {

using namespace fast;
using ckks::Ciphertext;
using ckks::Complex;
using ckks::KeySwitchMethod;
using math::RnsPoly;
using math::u64;

namespace {

/** Slot-error tolerance of a key-switch op result. */
constexpr double kOpTolerance = 1.0 / 1024;
/** Slot-error bound of one bootstrap (as examples/bootstrap_demo). */
constexpr double kBootTolerance = 5e-2;
/** Rotation steps of the hoisted family; HRot uses the first. */
constexpr int kHoistCount = 8;

std::vector<Complex>
randomSlots(std::mt19937_64 &rng, std::size_t n, double amplitude)
{
    std::uniform_real_distribution<double> u(-amplitude, amplitude);
    std::vector<Complex> z(n);
    for (auto &v : z)
        v = Complex(u(rng), u(rng));
    return z;
}

/**
 * Largest |coefficient| of decrypt(ct) - expected, or +inf when the
 * residues do not describe one small integer (a corrupted limb).
 * The estimate max|d| * sqrt(N) / scale is the returned slot error.
 */
double
ringError(const ckks::CkksEvaluator &eval, const ckks::SecretKey &sk,
          const Ciphertext &ct, const RnsPoly &expected_eval)
{
    RnsPoly d = eval.decrypt(ct, sk).poly;
    RnsPoly e = expected_eval;
    e.toCoeff();
    d -= e;
    u64 q0 = d.modulus(0), q1 = d.modulus(1);
    unsigned __int128 q01 = static_cast<unsigned __int128>(q0) * q1;
    u64 q0_inv = math::invMod(q0 % q1, q1);
    double max_abs = 0;
    for (std::size_t j = 0; j < d.degree(); ++j) {
        u64 r0 = d.limb(0)[j], r1 = d.limb(1)[j];
        u64 t = math::mulMod(math::subMod(r1, r0 % q1, q1), q0_inv, q1);
        unsigned __int128 x = r0 + static_cast<unsigned __int128>(q0) * t;
        bool negative = x > q01 / 2;
        unsigned __int128 mag = negative ? q01 - x : x;
        for (std::size_t i = 2; i < d.limbCount(); ++i) {
            u64 qi = d.modulus(i);
            u64 m = static_cast<u64>(mag % qi);
            if (negative && m != 0)
                m = qi - m;
            if (m != d.limb(i)[j])
                return INFINITY;
        }
        max_abs = std::max(max_abs, static_cast<double>(mag));
    }
    return max_abs * std::sqrt(static_cast<double>(d.degree())) /
           ct.scale;
}

/** Self-test hook: flip one residue of a host result. */
void
corruptResidue(Ciphertext &ct)
{
    auto &limb = ct.c0.limb(ct.limbCount() > 3 ? 3 : 0);
    u64 q = ct.c0.modulus(ct.limbCount() > 3 ? 3 : 0);
    limb[7] = math::addMod(limb[7], 1, q);
}

/** Units that passed their checks per second of loop wall time. */
double
goodput(std::size_t passed, double loop_ms)
{
    return loop_ms > 0 ? 1e3 * static_cast<double>(passed) / loop_ms : 0;
}

/** Median time (us) of @p body over @p reps calls. */
template <typename F>
double
probeUs(int reps, F &&body)
{
    Samples s;
    body();  // warm caches and tables
    for (int i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        body();
        s.add(msSince(t0) * 1e3);
    }
    return s.median();
}

/** Median NTT and BConv probe times at a context's top-level shape. */
void
probeMath(const ckks::CkksContext &ctx, RunResult &out)
{
    const auto &params = ctx.params();
    std::size_t n = params.degree;
    std::mt19937_64 rng(7);
    math::AlignedU64 limb(n);
    u64 q = params.q_chain[0];
    for (auto &x : limb)
        x = rng() % q;
    auto tables = math::NttTableCache::get(n, q);
    out.set("math.ntt_fwd_us",
            probeUs(30, [&] { tables->forward(limb.data()); }));
    out.set("math.ntt_inv_us",
            probeUs(30, [&] { tables->inverse(limb.data()); }));

    // First hybrid ModUp digit: alpha q-limbs -> every other limb of
    // the top level's extended basis.
    auto ext = ctx.extendedModuli(params.maxLevel());
    std::vector<u64> from(ext.begin(), ext.begin() + params.alpha);
    std::vector<u64> to(ext.begin() + params.alpha, ext.end());
    const auto &conv = ctx.converter(from, to);
    std::vector<math::AlignedU64> in(from.size(), math::AlignedU64(n));
    std::vector<math::AlignedU64> res(to.size(), math::AlignedU64(n));
    std::vector<const u64 *> in_ptrs;
    std::vector<u64 *> out_ptrs;
    for (std::size_t i = 0; i < in.size(); ++i) {
        for (auto &x : in[i])
            x = rng() % from[i];
        in_ptrs.push_back(in[i].data());
    }
    for (auto &r : res)
        out_ptrs.push_back(r.data());
    auto &engine = math::KernelEngine::global();
    out.set("math.bconv_us", probeUs(10, [&] {
                conv.convertPoly(in_ptrs, n, out_ptrs, engine);
            }));

    // Computed bytes of one top-level hybrid key switch: read the
    // input limbs, write + read beta digits over the extended basis,
    // read 2 x beta evk polynomials, write the two output polynomials.
    double limbs = static_cast<double>(params.maxLevel() + 1);
    double beta = static_cast<double>(params.betaAtLevel(params.maxLevel()));
    double extended = static_cast<double>(ext.size());
    double words = limbs + 2 * beta * extended + 2 * beta * extended +
                   2 * limbs;
    out.set("math.bytes_per_ks", words * 8 * static_cast<double>(n));
}

/** Counter-derived math metrics over the one-call op spans. */
void
opCounters(const Tracer &tracer, const std::string &prefix,
           RunResult &out)
{
    double ops = 0, ntt = 0, bconv = 0, regions = 0, inline_regions = 0,
           keymult = 0;
    for (const auto &span : tracer.spans()) {
        if (span.name.rfind(prefix, 0) != 0)
            continue;
        auto get = [&span](const char *name) {
            auto it = span.counters.find(name);
            return it == span.counters.end()
                       ? 0.0
                       : static_cast<double>(it->second);
        };
        ops += 1;
        ntt += get("ntt.forward") + get("ntt.inverse");
        bconv += get("bconv.convert_poly");
        regions += get("engine.regions");
        inline_regions += get("engine.regions_inline");
        keymult += get("ks.keymult");
    }
    if (ops == 0)
        return;
    out.set("math.ntt_calls_per_op", ntt / ops);
    out.set("math.bconv_calls_per_op", bconv / ops);
    out.set("math.engine_regions_per_op", regions / ops);
    out.set("math.engine_inline_frac",
            regions > 0 ? inline_regions / regions : 0);
    if (prefix == "op.bootstrap")
        out.set("ckks.boot.ks_per_boot", keymult / ops);
}

/** Median of the summed child durations of spans named @p parent. */
double
explainedMs(const Tracer &tracer, const std::string &parent)
{
    Samples s;
    const auto &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == parent)
            s.add(spans[i].durationMs() - tracer.selfMs(i));
    return s.median();
}

/**
 * Layer-sum report: each op class's one-call median against the summed
 * stage times of its staged twin. Returns the aggregate unexplained
 * share over all classes.
 */
double
layerSum(const Tracer &tracer, const std::vector<std::string> &classes)
{
    auto incl = tracer.inclusiveByName();
    auto self = tracer.selfByName();
    double op_total = 0, unexplained_total = 0;
    for (const auto &c : classes) {
        double op = incl["op." + c].median();
        double explained = explainedMs(tracer, "staged." + c);
        std::printf("layer-sum %-14s op median %10.3f ms, stages %10.3f ms "
                    "(glue self %.3f ms), unexplained %+.2f%%\n",
                    c.c_str(), op, explained,
                    self["staged." + c].median(),
                    op > 0 ? 100 * (op - explained) / op : 0.0);
        const auto &spans = tracer.spans();
        std::map<std::string, Samples> stage;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            int p = spans[i].parent;
            if (p >= 0 && spans[static_cast<std::size_t>(p)].name ==
                              "staged." + c)
                stage[spans[i].name].add(tracer.selfMs(i));
        }
        for (const auto &[name, s] : stage)
            std::printf("layer-sum   %-28s self p50 %10.3f ms (n=%zu)\n",
                        name.c_str(), s.median(), s.size());
        op_total += op;
        unexplained_total += op - explained;
    }
    return op_total > 0 ? unexplained_total / op_total : 0;
}

// ---------------------------------------------------------------------
// ks-n16

ckks::CkksParams
ksParams(bool tiny)
{
    // bench/kernels' key-switch shape: 9 q limbs, 3 p limbs, alpha=2,
    // KLSS digit_bits=30 over a 3 x 60-bit t-basis.
    std::size_t degree = tiny ? std::size_t(1) << 12 : std::size_t(1) << 16;
    ckks::CkksParams p;
    p.name = "KS-" + std::to_string(degree);
    p.degree = degree;
    p.slots = degree / 2;
    p.q_chain = math::generateNttPrimes(50, degree, 1);
    auto work = math::generateNttPrimes(35, degree, 8);
    p.q_chain.insert(p.q_chain.end(), work.begin(), work.end());
    p.p_chain = math::generateNttPrimes(37, degree, 3);
    p.alpha = 2;
    p.digit_bits = 30;
    p.t_basis = math::generateNttPrimes(60, degree, 3);
    p.scale = std::pow(2.0, 35);
    p.validate();
    return p;
}

struct KsKeys {
    std::shared_ptr<const ckks::CkksContext> ctx;
    std::unique_ptr<ckks::KeyGenerator> keygen;
    ckks::EvalKey relin_hybrid;
    ckks::EvalKey relin_klss;
    std::vector<ckks::EvalKey> rot;  ///< steps 1..kHoistCount, hybrid
    double keygen_ms = 0;
};

KsKeys
ksSetup(const ckks::CkksParams &params, std::uint64_t seed)
{
    KsKeys k;
    k.ctx = std::make_shared<const ckks::CkksContext>(params);
    auto t0 = Clock::now();
    k.keygen = std::make_unique<ckks::KeyGenerator>(k.ctx, seed);
    k.relin_hybrid = k.keygen->makeRelinKey(KeySwitchMethod::hybrid);
    k.relin_klss = k.keygen->makeRelinKey(KeySwitchMethod::klss);
    for (int s = 1; s <= kHoistCount; ++s)
        k.rot.push_back(k.keygen->makeRotationKey(s, KeySwitchMethod::hybrid));
    k.keygen_ms = msSince(t0);
    return k;
}

} // namespace

RunResult
runKsN16(const Options &options, Tracer &tracer)
{
    RunResult out;
    auto &engine = math::KernelEngine::global();
    engine.setThreadCount(1);
    auto params = ksParams(options.tiny);

    // Set-up: context + keys, several times; keep the last.
    Samples setup_ms, keygen_ms;
    KsKeys keys;
    int setups = options.trace ? 1 : 3;
    for (int i = 0; i < setups; ++i) {
        keys = KsKeys{};  // release the previous keys first
        auto t0 = Clock::now();
        keys = ksSetup(params, options.seed);
        setup_ms.add(msSince(t0));
        keygen_ms.add(keys.keygen_ms);
    }
    const auto &ctx = *keys.ctx;
    const auto &sk = keys.keygen->secretKey();
    ckks::CkksEvaluator eval(keys.ctx);
    const auto &switcher = eval.switcher();
    const auto &encoder = ctx.encoder();

    // Seeded inputs at the top level.
    std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ULL + 11);
    std::size_t top = params.maxLevel();
    auto pt_a = eval.encode(randomSlots(rng, params.slots, 0.5),
                            params.scale, top);
    auto pt_b = eval.encode(randomSlots(rng, params.slots, 0.5),
                            params.scale, top);
    math::Prng prng(options.seed + 101);
    auto ct_a = eval.encrypt(pt_a, keys.keygen->publicKey(), prng);
    auto ct_b = eval.encrypt(pt_b, keys.keygen->publicKey(), prng);
    RnsPoly expect_mult = pt_a.poly.hadamard(pt_b.poly);
    std::vector<RnsPoly> expect_rot;
    for (int s = 1; s <= kHoistCount; ++s)
        expect_rot.push_back(
            pt_a.poly.automorphism(encoder.galoisForRotation(s)));

    bool corrupt_pending = options.corrupt;
    double worst_error = 0;
    auto check = [&](Ciphertext ct, const RnsPoly &expected,
                     const char *what) {
        if (corrupt_pending) {
            corruptResidue(ct);
            corrupt_pending = false;
        }
        ++out.attempted;
        double err = ringError(eval, sk, ct, expected);
        worst_error = std::max(worst_error, err);
        if (!(err <= kOpTolerance))
            out.fail(std::string(what) + ": slot error " +
                     std::to_string(err) + " over tolerance");
    };

    // The four op classes, as one evaluator call each.
    const std::vector<std::string> classes = {"hmult_hybrid", "hmult_klss",
                                              "hrot", "hoisted_rot8"};
    auto runOp = [&](std::size_t c) -> std::vector<Ciphertext> {
        switch (c) {
        case 0:
            return {eval.multiply(ct_a, ct_b, keys.relin_hybrid)};
        case 1:
            return {eval.multiply(ct_a, ct_b, keys.relin_klss)};
        case 2:
            return {eval.rotate(ct_a, 1, keys.rot[0])};
        default: {
            ckks::HoistedRotator hoisted(eval, ct_a, KeySwitchMethod::hybrid);
            std::vector<Ciphertext> r;
            for (int s = 1; s <= kHoistCount; ++s)
                r.push_back(hoisted.rotate(s, keys.rot[s - 1]));
            return r;
        }
        }
    };
    auto checkOp = [&](std::size_t c, const std::vector<Ciphertext> &r) {
        if (c < 2)
            check(r[0], expect_mult, classes[c].c_str());
        else
            for (std::size_t i = 0; i < r.size(); ++i)
                check(r[i], expect_rot[i], classes[c].c_str());
    };

    // The same classes as their public stages, for the traced run.
    auto runStaged = [&](std::size_t c) -> std::vector<Ciphertext> {
        Tracer::Scope op(tracer, "staged." + classes[c]);
        if (c == 3) {
            std::unique_ptr<ckks::HoistedRotator> hoisted;
            {
                Tracer::Scope s(tracer, "ckks.hoist_decompose");
                hoisted = std::make_unique<ckks::HoistedRotator>(
                    eval, ct_a, KeySwitchMethod::hybrid);
            }
            std::vector<Ciphertext> r;
            for (int s = 1; s <= kHoistCount; ++s) {
                Tracer::Scope span(tracer, "ckks.hoist_rot");
                r.push_back(hoisted->rotate(s, keys.rot[s - 1]));
            }
            return r;
        }
        KeySwitchMethod method =
            c == 1 ? KeySwitchMethod::klss : KeySwitchMethod::hybrid;
        const char *m = c == 1 ? "klss" : "hybrid";
        const ckks::EvalKey &key = c == 0   ? keys.relin_hybrid
                                   : c == 1 ? keys.relin_klss
                                            : keys.rot[0];
        Ciphertext res;
        RnsPoly ks_input;
        u64 g = encoder.galoisForRotation(1);
        {
            Tracer::Scope s(tracer, c == 2 ? "ckks.automorph" : "ckks.tensor");
            if (c == 2) {
                ks_input = ct_a.c1.automorphism(g);
                res.c0 = ct_a.c0.automorphism(g);
                res.scale = ct_a.scale;
            } else {
                res.c0 = ct_a.c0.hadamard(ct_b.c0);
                res.c1 = ct_a.c0.hadamard(ct_b.c1);
                res.c1 += ct_a.c1.hadamard(ct_b.c0);
                ks_input = ct_a.c1.hadamard(ct_b.c1);
                res.scale = ct_a.scale * ct_b.scale;
            }
        }
        std::vector<RnsPoly> digits;
        {
            Tracer::Scope s(tracer, std::string("ckks.decompose.") + m);
            digits = switcher.decompose(ks_input, method);
        }
        ckks::KeySwitchDelta delta;
        {
            Tracer::Scope s(tracer,
                            std::string("ckks.keymult_moddown.") + m);
            delta = switcher.keyMultModDown(digits, key);
        }
        {
            Tracer::Scope s(tracer, "ckks.combine");
            res.c0 += delta.d0;
            if (c == 2)
                res.c1 = std::move(delta.d1);
            else
                res.c1 += delta.d1;
        }
        return {res};
    };

    std::vector<Samples> op_ms(classes.size());
    Samples round_ms, untraced_unit, traced_unit;
    std::size_t rounds_passed = 0;
    auto t_start = Clock::now();
    do {
        double round = 0;
        std::size_t failed_before = out.failed;
        for (std::size_t c = 0; c < classes.size(); ++c) {
            if (options.trace) {
                // Untraced twin first: the tracing overhead baseline.
                tracer.setEnabled(false);
                auto t0 = Clock::now();
                auto plain = runOp(c);
                untraced_unit.add(msSince(t0));
                tracer.setEnabled(true);
                checkOp(c, plain);
            }
            tracer.newGroup();
            std::vector<Ciphertext> r;
            double ms;
            {
                Tracer::Scope span(tracer, "op." + classes[c]);
                r = runOp(c);
                ms = span.elapsedMs();
            }
            op_ms[c].add(ms);
            round += ms;
            if (options.trace)
                traced_unit.add(ms);
            checkOp(c, r);
            if (options.trace) {
                tracer.newGroup();
                checkOp(c, runStaged(c));
            }
        }
        round_ms.add(round);
        rounds_passed += out.failed == failed_before;
    } while (msSince(t_start) < options.seconds * 1e3);
    double loop_ms = msSince(t_start);

    std::printf("ks-n16: N=%zu, %zu q + %zu p limbs, alpha=%zu, "
                "digit_bits=%d, %zu-limb t-basis, %zu thread(s), "
                "closed loop, 1 caller, %zu rounds\n",
                params.degree, params.q_chain.size(), params.p_chain.size(),
                params.alpha, params.digit_bits, params.t_basis.size(),
                engine.threadCount(), round_ms.size());
    std::printf("ks-n16: largest slot-error estimate %.3g (tolerance %.3g, "
                "%.1f bits)\n",
                worst_error, kOpTolerance,
                worst_error > 0 ? -std::log2(worst_error) : 0.0);

    if (!options.trace) {
        out.set("setup_s", setup_ms.median() / 1e3);
        out.set("goodput_per_s", goodput(rounds_passed, loop_ms));
        out.set("host_ms_per_unit", round_ms.median());
        printSamples("hmult_hybrid_ms", op_ms[0]);
        printSamples("hmult_klss_ms", op_ms[1]);
        printSamples("hrot_ms", op_ms[2]);
        printSamples("hoisted_rot8_ms", op_ms[3]);
        return out;
    }

    // Traced run: per-layer metrics.
    out.set("ckks.keygen_s", keygen_ms.median() / 1e3);
    probeMath(ctx, out);
    {
        RnsPoly extended(params.degree, ctx.extendedModuli(top),
                         math::PolyForm::eval);
        extended.fillUniform(prng);
        out.set("ckks.moddown_ms", probeUs(5, [&] {
                    auto r = switcher.modDown(extended);
                    (void)r;
                }) / 1e3);
    }
    auto self = tracer.selfByName();
    auto incl = tracer.inclusiveByName();
    for (const char *m : {"hybrid", "klss"}) {
        out.set(std::string("ckks.decompose_ms.") + m,
                self[std::string("ckks.decompose.") + m].median());
        out.set(std::string("ckks.keymult_moddown_ms.") + m,
                self[std::string("ckks.keymult_moddown.") + m].median());
    }
    out.set("ckks.hoist_decompose_ms", self["ckks.hoist_decompose"].median());
    out.set("ckks.hoist_rot_ms", self["ckks.hoist_rot"].median());
    for (std::size_t c = 0; c < classes.size(); ++c)
        out.set("ckks.op_ms." + classes[c], incl["op." + classes[c]].median());
    double hoisted = incl["op.hoisted_rot8"].median();
    out.set("ckks.hoist_saving",
            hoisted > 0 ? kHoistCount * incl["op.hrot"].median() / hoisted
                        : 0);
    opCounters(tracer, "op.", out);
    out.set("ckks.op_unexplained_frac", layerSum(tracer, classes));
    double base = untraced_unit.median();
    out.set("bench.trace_overhead_frac",
            base > 0 ? traced_unit.median() / base - 1 : 0);
    return out;
}

// ---------------------------------------------------------------------
// boot-n12

RunResult
runBootN12(const Options &options, Tracer &tracer)
{
    RunResult out;
    // The measured run uses one thread: with every vCPU of a shared host
    // in the engine, each of the ~10k parallel regions per bootstrap
    // waits on cross-CPU wake-ups, and when the host is busy those make
    // the median bootstrap 2-5x slower for minutes at a time. The traced
    // run keeps min(nproc, 4) threads, so its per-layer metrics show
    // the parallel engine.
    auto &engine = math::KernelEngine::global();
    std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
    engine.setThreadCount(options.trace ? std::min<std::size_t>(cpus, 4) : 1);
    auto params = ckks::CkksParams::testBoot();
    ckks::BootstrapConfig config;

    struct BootSetup {
        std::shared_ptr<const ckks::CkksContext> ctx;
        std::unique_ptr<ckks::KeyGenerator> keygen;
        std::unique_ptr<ckks::Bootstrapper> boot;
        ckks::BootstrapKeys keys;
    } s;
    Samples setup_ms, keygen_ms;
    int setups = options.trace ? 1 : 5;
    for (int i = 0; i < setups; ++i) {
        s = BootSetup{};
        auto t0 = Clock::now();
        s.ctx = std::make_shared<const ckks::CkksContext>(params);
        auto tk = Clock::now();
        s.keygen = std::make_unique<ckks::KeyGenerator>(s.ctx, options.seed);
        s.boot = std::make_unique<ckks::Bootstrapper>(s.ctx, config);
        s.keys = s.boot->makeKeys(*s.keygen);
        keygen_ms.add(msSince(tk));
        setup_ms.add(msSince(t0));
    }
    ckks::CkksEvaluator eval(s.ctx);
    const auto &boot = *s.boot;

    // Seeded inputs: a few exhausted (level-0) ciphertexts.
    std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ULL + 23);
    math::Prng prng(options.seed + 202);
    std::size_t n = params.slots;
    std::vector<std::vector<Complex>> inputs;
    std::vector<Ciphertext> cts;
    for (int i = 0; i < 3; ++i) {
        inputs.push_back(randomSlots(rng, n, 0.5));
        cts.push_back(eval.encrypt(eval.encode(inputs.back(), params.scale, 0),
                                   s.keygen->publicKey(), prng));
    }

    bool corrupt_pending = options.corrupt;
    double worst = 0;
    auto check = [&](Ciphertext ct, std::size_t input) {
        if (corrupt_pending) {
            corruptResidue(ct);
            corrupt_pending = false;
        }
        ++out.attempted;
        auto got = eval.decryptDecode(ct, s.keygen->secretKey(), n);
        double err = 0;
        for (std::size_t j = 0; j < n; ++j)
            err = std::max(err, std::abs(got[j] - inputs[input][j]));
        worst = std::max(worst, err);
        if (!(err < kBootTolerance))
            out.fail("bootstrap: slot error " + std::to_string(err));
    };
    auto staged = [&](const Ciphertext &ct) {
        Tracer::Scope op(tracer, "staged.bootstrap");
        Ciphertext raised, re, im, out_ct;
        {
            Tracer::Scope sp(tracer, "ckks.boot.modraise");
            raised = boot.modRaise(ct);
        }
        {
            Tracer::Scope sp(tracer, "ckks.boot.cts");
            auto packed = boot.coeffToSlot(raised, s.keys);
            std::tie(re, im) = boot.splitReIm(packed, s.keys);
        }
        {
            Tracer::Scope sp(tracer, "ckks.boot.evalmod");
            re = boot.evalMod(re, s.keys);
            im = boot.evalMod(im, s.keys);
        }
        {
            Tracer::Scope sp(tracer, "ckks.boot.stc");
            out_ct = boot.slotToCoeff(re, im, s.keys);
            eval.setScaleInPlace(out_ct, params.scale);
        }
        return out_ct;
    };

    // Every input is bootstrapped at least once, so the precision is
    // taken over the same inputs whatever the run length.
    Samples boot_ms, untraced_unit;
    std::size_t i = 0, boots_passed = 0;
    auto t_start = Clock::now();
    do {
        std::size_t input = i++ % cts.size();
        std::size_t failed_before = out.failed;
        if (options.trace) {
            tracer.setEnabled(false);
            auto t0 = Clock::now();
            auto plain = boot.bootstrap(cts[input], s.keys);
            untraced_unit.add(msSince(t0));
            tracer.setEnabled(true);
            check(plain, input);
        }
        tracer.newGroup();
        Ciphertext r;
        {
            Tracer::Scope span(tracer, "op.bootstrap");
            r = boot.bootstrap(cts[input], s.keys);
            boot_ms.add(span.elapsedMs());
        }
        check(r, input);
        if (options.trace) {
            tracer.newGroup();
            check(staged(cts[input]), input);
        }
        boots_passed += out.failed == failed_before;
    } while (i < cts.size() || msSince(t_start) < options.seconds * 1e3);
    double loop_ms = msSince(t_start);

    std::printf("boot-n12: N=%zu, L=%zu, %zu sparse slots, depth %zu, "
                "%zu thread(s), closed loop, 1 caller, %zu bootstraps\n",
                params.degree, params.maxLevel(), n, boot.depth(),
                engine.threadCount(), boot_ms.size());
    double bits = worst > 0 ? -std::log2(worst) : 0;
    if (!options.trace) {
        out.set("setup_s", setup_ms.median() / 1e3);
        out.set("goodput_per_s", goodput(boots_passed, loop_ms));
        out.set("host_ms_per_unit", boot_ms.median());
        printSamples("bootstrap_ms", boot_ms);
        printMetric("boot_precision_bits", bits,
                    "largest slot error " + std::to_string(worst) +
                        " (bound " + std::to_string(kBootTolerance) + ")");
        return out;
    }

    out.set("ckks.keygen_s", keygen_ms.median() / 1e3);
    probeMath(*s.ctx, out);
    auto self = tracer.selfByName();
    auto incl = tracer.inclusiveByName();
    out.set("ckks.boot.modraise_ms", self["ckks.boot.modraise"].median());
    out.set("ckks.boot.cts_ms", self["ckks.boot.cts"].median());
    out.set("ckks.boot.evalmod_ms", self["ckks.boot.evalmod"].median());
    out.set("ckks.boot.stc_ms", self["ckks.boot.stc"].median());
    out.set("ckks.op_ms.bootstrap", incl["op.bootstrap"].median());
    opCounters(tracer, "op.bootstrap", out);
    out.set("ckks.op_unexplained_frac", layerSum(tracer, {"bootstrap"}));
    double base = untraced_unit.median();
    out.set("bench.trace_overhead_frac",
            base > 0 ? boot_ms.median() / base - 1 : 0);
    return out;
}

} // namespace perfbench
