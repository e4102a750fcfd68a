/**
 * @file
 * ckks-ops: functional CKKS on the host — the full bootstrap
 * (`CkksParams::testBoot()`, hybrid key switching, hoisted BSGS) and
 * relinearization key switches in both methods at N = 2^14 (the
 * testMedium shape `bench/kernels.cpp` uses at that degree).
 *
 * Correctness is checked outside the timed region: every bootstrap
 * output decrypts within 5e-2 of its plaintext, and every timed key
 * switch is limb-exact against `testkit::ReferenceEvaluator`'s strict
 * decompose + keyMultModDown on the same input.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <tuple>

#include "ckks/bootstrap.hpp"
#include "ckks/keyswitch.hpp"
#include "math/ntt.hpp"
#include "math/parallel.hpp"
#include "math/primes.hpp"
#include "math/rns.hpp"
#include "surfaces.hpp"
#include "testkit/reference.hpp"

namespace perfbench {
namespace {

using namespace fast;
using ckks::KeySwitchMethod;

constexpr std::size_t kKeySwitchDegree = std::size_t(1) << 14;
/** Distinct key-switch inputs per method (each has a reference). */
constexpr std::size_t kInputs = 2;
constexpr double kBootMaxError = 5e-2;
/** Kernel calls per math span of the traced pass. */
constexpr std::size_t kNttCalls = 64;
constexpr std::size_t kBConvCalls = 16;

/** testMedium-shaped parameters at N = 2^14. */
ckks::CkksParams
keySwitchParams(KeySwitchMethod method)
{
    ckks::CkksParams p;
    p.name = "Bench-16384";
    p.degree = kKeySwitchDegree;
    p.slots = kKeySwitchDegree / 2;
    p.q_chain = math::generateNttPrimes(50, kKeySwitchDegree, 1);
    auto work = math::generateNttPrimes(35, kKeySwitchDegree, 8);
    p.q_chain.insert(p.q_chain.end(), work.begin(), work.end());
    p.p_chain = math::generateNttPrimes(37, kKeySwitchDegree, 3);
    p.alpha = 2;
    p.digit_bits = method == KeySwitchMethod::klss ? 30 : 20;
    p.t_basis = math::generateNttPrimes(60, kKeySwitchDegree, 3);
    p.scale = std::pow(2.0, 35);
    p.validate();
    return p;
}

const char *
methodName(KeySwitchMethod method)
{
    return method == KeySwitchMethod::klss ? "klss" : "hybrid";
}

bool
samePoly(const math::RnsPoly &a, const math::RnsPoly &b)
{
    if (a.degree() != b.degree() || a.moduli() != b.moduli() ||
        a.form() != b.form())
        return false;
    for (std::size_t i = 0; i < a.limbCount(); ++i)
        if (!std::equal(a.limb(i).begin(), a.limb(i).end(),
                        b.limb(i).begin()))
            return false;
    return true;
}

/** One key-switching setup: context, relin key, inputs, references. */
struct KeySwitchRig {
    KeySwitchMethod method = KeySwitchMethod::hybrid;
    std::shared_ptr<const ckks::CkksContext> ctx;
    std::unique_ptr<ckks::KeySwitcher> switcher;
    ckks::EvalKey relin;
    std::vector<math::RnsPoly> inputs;
    std::vector<ckks::KeySwitchDelta> expected;

    void
    build(KeySwitchMethod m, std::uint64_t seed)
    {
        method = m;
        ctx = std::make_shared<const ckks::CkksContext>(keySwitchParams(m));
        ckks::KeyGenerator keygen(ctx, subSeed(seed, 20));
        relin = keygen.makeRelinKey(m);
        switcher = std::make_unique<ckks::KeySwitcher>(ctx);
        math::Prng prng(subSeed(seed, 21));
        inputs.clear();
        for (std::size_t i = 0; i < kInputs; ++i) {
            math::RnsPoly input(ctx->degree(),
                                ctx->qModuli(ctx->params().maxLevel()),
                                math::PolyForm::eval);
            input.fillUniform(prng);
            inputs.push_back(std::move(input));
        }
    }

    /** Strict reference outputs (slow; outside any timed region). */
    void
    computeReferences()
    {
        testkit::ReferenceEvaluator reference(ctx);
        expected.clear();
        for (const auto &input : inputs)
            expected.push_back(reference.keyMultModDown(
                reference.decompose(input, method), relin));
    }

    /** Time one apply on input @p i; check it against the reference. */
    double
    timedApply(std::size_t i, Tally &tally) const
    {
        auto t0 = Clock::now();
        ckks::KeySwitchDelta delta = switcher->apply(inputs[i], relin);
        double ms = msSince(t0);
        tally.op(samePoly(delta.d0, expected[i].d0) &&
                     samePoly(delta.d1, expected[i].d1),
                 std::string("key switch limb-exact (") +
                     methodName(method) + ")");
        return ms;
    }
};

class CkksOps final : public Surface
{
  public:
    void
    setup(const RunConfig &config) override
    {
        seed_ = config.seed;
        boot_ctx_ = std::make_shared<const ckks::CkksContext>(
            ckks::CkksParams::testBoot());
        keygen_ = std::make_unique<ckks::KeyGenerator>(boot_ctx_,
                                                       subSeed(seed_, 10));
        evaluator_ = std::make_unique<ckks::CkksEvaluator>(boot_ctx_);
        ckks::BootstrapConfig boot_config;
        boot_config.lt_method = KeySwitchMethod::hybrid;
        boot_config.mod_method = KeySwitchMethod::hybrid;
        boot_config.use_hoisting = true;
        boot_ = std::make_unique<ckks::Bootstrapper>(boot_ctx_, boot_config);
        boot_keys_ = boot_->makeKeys(*keygen_);

        math::Prng prng(subSeed(seed_, 11));
        message_.assign(boot_ctx_->params().slots, {});
        for (auto &z : message_)
            z = {prng.uniformReal() - 0.5, prng.uniformReal() - 0.5};
        auto pt = evaluator_->encode(message_, boot_ctx_->params().scale, 0);
        input_ = evaluator_->encrypt(pt, keygen_->publicKey(), prng);

        hybrid_.build(KeySwitchMethod::hybrid, seed_);
        klss_.build(KeySwitchMethod::klss, seed_ + 1);

        // Warm-up: the first bootstrap and key switch pay one-time
        // table and allocator costs that no later call sees.
        boot_->bootstrap(input_, boot_keys_);
        hybrid_.switcher->apply(hybrid_.inputs[0], hybrid_.relin);
        klss_.switcher->apply(klss_.inputs[0], klss_.relin);
    }

    void measure(Sheet &sheet, Tally &tally) override;
    void sampleRound(std::size_t round, Tally &tally) override;
    void report(Sheet &sheet) override;
    void tracedPass(Spans &spans, Tally &tally) override;
    void layerMetrics(const Spans &spans, Sheet &sheet) override;

  private:
    double
    timedBootstrap(Tally &tally) const
    {
        auto t0 = Clock::now();
        ckks::Ciphertext out = boot_->bootstrap(input_, boot_keys_);
        double ms = msSince(t0);
        auto back = evaluator_->decryptDecode(out, keygen_->secretKey(),
                                              message_.size());
        double err = 0;
        for (std::size_t j = 0; j < message_.size(); ++j)
            err = std::max(err, std::abs(back[j] - message_[j]));
        tally.op(err < kBootMaxError, "bootstrap max slot error < 5e-2");
        return ms;
    }

    void keySwitchStages(Spans &spans, KeySwitchRig &rig, Tally &tally);
    void kernelCalls(Spans &spans);

    std::uint64_t seed_ = 0;
    std::shared_ptr<const ckks::CkksContext> boot_ctx_;
    std::unique_ptr<ckks::KeyGenerator> keygen_;
    std::unique_ptr<ckks::CkksEvaluator> evaluator_;
    std::unique_ptr<ckks::Bootstrapper> boot_;
    ckks::BootstrapKeys boot_keys_;
    std::vector<ckks::Complex> message_;
    ckks::Ciphertext input_;
    KeySwitchRig hybrid_, klss_;
    Samples boot_ms_, hybrid_ms_, klss_ms_;

    // Traced-pass results.
    std::size_t boots_traced_ = 0;
};

void
CkksOps::measure(Sheet &, Tally &)
{
    // Nothing here is simulated; the strict reference outputs are
    // computed once, before any timed key switch.
    hybrid_.computeReferences();
    klss_.computeReferences();
}

void
CkksOps::sampleRound(std::size_t round, Tally &tally)
{
    // A bootstrap, then three hybrid and two KLSS key switches, cycling
    // through the inputs.
    boot_ms_.add(timedBootstrap(tally));
    for (std::size_t i = 0; i < 3; ++i)
        hybrid_ms_.add(hybrid_.timedApply((3 * round + i) % kInputs, tally));
    for (std::size_t i = 0; i < 2; ++i)
        klss_ms_.add(klss_.timedApply(i, tally));
}

void
CkksOps::report(Sheet &sheet)
{
    sheet.setTiming("boot_ms", boot_ms_, "ms");
    sheet.setTiming("ks_hybrid_ms", hybrid_ms_, "ms");
    sheet.setTiming("ks_klss_ms", klss_ms_, "ms");
}

void
CkksOps::keySwitchStages(Spans &spans, KeySwitchRig &rig, Tally &tally)
{
    const std::string m = methodName(rig.method);
    const std::string decompose = "ckks.keyswitch.decompose." + m;
    const std::string keymult = "ckks.keyswitch.keymult_moddown." + m;
    for (const auto &input : rig.inputs) {
        std::vector<math::RnsPoly> digits;
        {
            Spans::Scope span(spans, decompose.c_str());
            digits = rig.switcher->decompose(input, rig.method);
        }
        Spans::Scope span(spans, keymult.c_str());
        auto delta = rig.switcher->keyMultModDown(digits, rig.relin);
        tally.op(delta.d0.limbCount() > 0, "staged key switch (" + m + ")");
    }
}

void
CkksOps::kernelCalls(Spans &spans)
{
    // The kernels at the key-switching shape: NTT over one q-prime of
    // N = 2^14, and the hybrid ModUp base conversion (alpha = 2 limbs
    // to the rest of the extended basis).
    const auto &ctx = *hybrid_.ctx;
    std::size_t level = ctx.params().maxLevel();
    auto q = ctx.qModuli(level);
    auto tables = math::NttTableCache::get(ctx.degree(), q[1]);
    std::vector<math::u64> data(hybrid_.inputs[0].limb(1).begin(),
                                hybrid_.inputs[0].limb(1).end());
    {
        Spans::Scope span(spans, "math.ntt.inverse");
        for (std::size_t i = 0; i < kNttCalls; ++i)
            tables->inverse(data.data());
    }
    {
        Spans::Scope span(spans, "math.ntt.forward");
        for (std::size_t i = 0; i < kNttCalls; ++i)
            tables->forward(data.data());
    }

    auto extended = ctx.extendedModuli(level);
    std::vector<math::u64> from_mods(q.begin(), q.begin() + 2);
    std::vector<math::u64> to_mods(extended.begin() + 2, extended.end());
    math::BaseConverter conv{math::RnsBasis(from_mods),
                             math::RnsBasis(to_mods)};
    std::vector<const math::u64 *> in = {hybrid_.inputs[0].limb(0).data(),
                                         hybrid_.inputs[0].limb(1).data()};
    std::vector<std::vector<math::u64>> out(
        to_mods.size(), std::vector<math::u64>(ctx.degree()));
    std::vector<math::u64 *> out_ptrs;
    for (auto &limb : out)
        out_ptrs.push_back(limb.data());
    Spans::Scope span(spans, "math.rns.bconv");
    for (std::size_t i = 0; i < kBConvCalls; ++i)
        conv.convertPoly(in, ctx.degree(), out_ptrs,
                         math::KernelEngine::global());
}

void
CkksOps::tracedPass(Spans &spans, Tally &tally)
{
    // The bootstrap by stage, twice; splitReIm (the conjugation that
    // separates real and imaginary slots) is counted with CoeffToSlot.
    boots_traced_ = 2;
    for (std::size_t b = 0; b < boots_traced_; ++b) {
        spans.setTree(1 + b);
        ckks::Ciphertext raised, re, im, mod_re, mod_im;
        {
            Spans::Scope span(spans, "ckks.bootstrap.mod_raise");
            raised = boot_->modRaise(input_);
        }
        {
            Spans::Scope span(spans, "ckks.bootstrap.coeff_to_slot");
            auto packed = boot_->coeffToSlot(raised, boot_keys_);
            std::tie(re, im) = boot_->splitReIm(packed, boot_keys_);
        }
        {
            Spans::Scope span(spans, "ckks.bootstrap.eval_mod");
            mod_re = boot_->evalMod(re, boot_keys_);
            mod_im = boot_->evalMod(im, boot_keys_);
        }
        Spans::Scope span(spans, "ckks.bootstrap.slot_to_coeff");
        auto out = boot_->slotToCoeff(mod_re, mod_im, boot_keys_);
        tally.op(out.level() > 0, "staged bootstrap refreshed levels");
    }

    spans.setTree(3);
    keySwitchStages(spans, hybrid_, tally);
    spans.setTree(4);
    keySwitchStages(spans, klss_, tally);

    spans.setTree(5);
    const auto &ctx = *hybrid_.ctx;
    std::size_t level = ctx.params().maxLevel();
    math::Prng prng(subSeed(seed_, 30));
    math::RnsPoly extended(ctx.degree(), ctx.extendedModuli(level),
                           math::PolyForm::eval);
    extended.fillUniform(prng);
    for (std::size_t i = 0; i < kInputs; ++i) {
        Spans::Scope span(spans, "ckks.keyswitch.moddown");
        tally.op(hybrid_.switcher->modDown(extended).limbCount() > 0,
                 "ModDown");
    }
    for (std::size_t i = 0; i < kInputs; ++i) {
        Spans::Scope span(spans, "ckks.keyswitch.restrict_key");
        auto restricted = hybrid_.switcher->restrictKeyPoly(
            hybrid_.relin.parts[0].b, level + 1);
        tally.op(restricted.limbCount() > 0, "restrictKeyPoly");
    }

    spans.setTree(6);
    kernelCalls(spans);
}

void
CkksOps::layerMetrics(const Spans &spans, Sheet &sheet)
{
    auto perCall = [&](const std::string &metric, const std::string &span) {
        std::size_t calls = spans.calls(span);
        sheet.set(metric, calls ? spans.totalMs(span) / double(calls) : 0,
                  "ms", Domain::host, "per call");
    };
    auto perBoot = [&](const char *metric, const char *span) {
        sheet.set(metric, spans.totalMs(span) / double(boots_traced_), "ms",
                  Domain::host, "per bootstrap");
    };
    perBoot("ckks.bootstrap.mod_raise_ms", "ckks.bootstrap.mod_raise");
    perBoot("ckks.bootstrap.coeff_to_slot_ms", "ckks.bootstrap.coeff_to_slot");
    perBoot("ckks.bootstrap.eval_mod_ms", "ckks.bootstrap.eval_mod");
    perBoot("ckks.bootstrap.slot_to_coeff_ms", "ckks.bootstrap.slot_to_coeff");
    for (std::string m : {"hybrid", "klss"}) {
        perCall("ckks.keyswitch.decompose_ms." + m,
                "ckks.keyswitch.decompose." + m);
        perCall("ckks.keyswitch.keymult_moddown_ms." + m,
                "ckks.keyswitch.keymult_moddown." + m);
    }
    perCall("ckks.keyswitch.moddown_ms", "ckks.keyswitch.moddown");
    perCall("ckks.keyswitch.restrict_key_ms", "ckks.keyswitch.restrict_key");
    sheet.set("math.ntt.forward_us",
              spans.totalMs("math.ntt.forward") * 1e3 / kNttCalls, "us",
              Domain::host, "per call, N=2^14");
    sheet.set("math.ntt.inverse_us",
              spans.totalMs("math.ntt.inverse") * 1e3 / kNttCalls, "us",
              Domain::host, "per call, N=2^14");
    sheet.set("math.rns.bconv_us",
              spans.totalMs("math.rns.bconv") * 1e3 / kBConvCalls, "us",
              Domain::host, "per call, ModUp of 2 limbs, N=2^14");
}

} // namespace

std::unique_ptr<Surface>
makeCkksOps()
{
    return std::make_unique<CkksOps>();
}

} // namespace perfbench
