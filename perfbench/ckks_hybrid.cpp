/**
 * @file
 * ckks-hybrid: one caller, one job per iteration — HMult + rescale +
 * rotate(1) at N = 2^15, L = 15, dnum = 3, then CKKS -> TFHE
 * extraction of 16 coefficients and LwePacker::tfheToCkks repacking,
 * all on one context (a miniature of the paper's HE3DB query).
 * Engine: threads.
 */

#include <cmath>
#include <memory>

#include "conv/conversion.h"
#include "harness.h"

namespace perfbench {

using namespace trinity;

namespace {

constexpr size_t kPool = 4;   ///< input ciphertext pairs
constexpr size_t kExtract = 16;

struct Input
{
    CkksCiphertext a;
    CkksCiphertext b;
    std::vector<double> expected; ///< slot i: a[i+1] * b[i+1]
};

struct CkksSetup
{
    std::shared_ptr<const CkksContext> ctx;
    std::unique_ptr<CkksKeyGenerator> keygen;
    std::unique_ptr<CkksEncoder> encoder;
    std::unique_ptr<CkksEncryptor> enc;
    std::unique_ptr<CkksEvaluator> eval;
    CkksEvalKey relin;
    CkksEvalKey rot1;
    std::unique_ptr<LwePacker> packer;
    std::vector<Input> inputs;
};

/** One job's outputs, kept for verification. */
struct JobOut
{
    CkksCiphertext rotated;
    std::vector<ConvLwe> lwes;
    CkksCiphertext packed;
};

CkksParams
pinnedParams()
{
    CkksParams p;
    p.n = size_t(1) << 15;
    p.maxLevel = 15;
    p.dnum = 3;
    p.scaleBits = 36;
    p.firstModBits = 45;
    p.specialModBits = 45;
    return p;
}

std::unique_ptr<CkksSetup>
makeSetup(u64 seed)
{
    auto s = std::make_unique<CkksSetup>();
    s->ctx = std::make_shared<const CkksContext>(pinnedParams());
    s->keygen = std::make_unique<CkksKeyGenerator>(
        s->ctx, deriveSeed(seed, "ckks.keygen"));
    s->encoder = std::make_unique<CkksEncoder>(s->ctx);
    s->enc = std::make_unique<CkksEncryptor>(
        s->ctx, s->keygen->makePublicKey(), deriveSeed(seed, "ckks.enc"));
    s->eval = std::make_unique<CkksEvaluator>(s->ctx);
    s->relin = s->keygen->makeRelinKey();
    s->rot1 = s->keygen->makeRotationKey(1);
    s->packer = std::make_unique<LwePacker>(s->ctx, *s->keygen);
    std::mt19937_64 rng(deriveSeed(seed, "ckks.values"));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    size_t slots = s->encoder->slots();
    size_t level = s->ctx->params().maxLevel;
    for (size_t p = 0; p < kPool; ++p) {
        std::vector<double> a(slots), b(slots);
        for (size_t i = 0; i < slots; ++i) {
            a[i] = dist(rng);
            b[i] = dist(rng);
        }
        Input in;
        in.a = s->enc->encrypt(s->encoder->encodeReal(a, level));
        in.b = s->enc->encrypt(s->encoder->encodeReal(b, level));
        in.expected.resize(slots);
        for (size_t i = 0; i < slots; ++i) {
            size_t j = (i + 1) % slots;
            in.expected[i] = a[j] * b[j];
        }
        s->inputs.push_back(std::move(in));
    }
    return s;
}

JobOut
runJob(const CkksSetup &s, const Input &in)
{
    JobOut out;
    Scoped job("bench", "job");
    CkksCiphertext prod;
    {
        Scoped sp("ckks", "multiply", job.id());
        prod = s.eval->multiply(in.a, in.b, s.relin);
    }
    {
        Scoped sp("ckks", "rescaleInPlace", job.id());
        s.eval->rescaleInPlace(prod);
    }
    {
        Scoped sp("ckks", "rotate", job.id());
        out.rotated = s.eval->rotate(prod, 1, s.rot1);
    }
    {
        Scoped sp("conv", "ckksToTfhe", job.id());
        out.lwes = ckksToTfhe(out.rotated, kExtract);
    }
    {
        Scoped sp("conv", "tfheToCkks", job.id());
        out.packed = s.packer->tfheToCkks(out.lwes);
    }
    return out;
}

/**
 * Verify one job against the seeded plaintext: the rotated product
 * decodes to a[i+1]*b[i+1] in every slot; each extracted LWE's phase
 * equals its coefficient of the decrypted plaintext mod q_0; and the
 * repacked ciphertext holds N * phase_j at coefficient j*N/16.
 */
bool
verify(const CkksSetup &s, const Input &in, const JobOut &out)
{
    const CkksSecretKey &sk = s.keygen->secretKey();
    CkksPlaintext pt = s.enc->decrypt(out.rotated, sk);
    std::vector<cd> vals = s.encoder->decode(pt);
    for (size_t i = 0; i < vals.size(); ++i) {
        if (std::abs(vals[i].real() - in.expected[i]) > 1e-3) {
            return false;
        }
    }
    const u64 q0 = s.ctx->qChain()[0];
    const Modulus m(q0);
    const size_t n = s.ctx->n();
    CkksPlaintext packed = s.enc->decrypt(out.packed, sk);
    for (size_t j = 0; j < kExtract; ++j) {
        u64 phase = convLwePhase(out.lwes[j], sk);
        if (phase != pt.poly.limb(0)[j]) {
            return false;
        }
        u64 want = m.mul(phase, m.reduce(static_cast<u64>(n)));
        u64 got = packed.poly.limb(0)[j * (n / kExtract)];
        i64 err = centeredRep(m.sub(got, want), q0);
        if (static_cast<u64>(err < 0 ? -err : err) > q0 / 256) {
            return false;
        }
    }
    return true;
}

RnsPoly
randomPoly(size_t n, const std::vector<u64> &moduli, u64 seed)
{
    RnsPoly p(n, moduli);
    Rng rng(seed);
    for (size_t i = 0; i < moduli.size(); ++i) {
        for (size_t c = 0; c < n; ++c) {
            p.limbData(i)[c] = rng.uniform(moduli[i]);
        }
    }
    return p;
}

} // namespace

WorkloadResult
runCkksHybrid(const RunOptions &opt)
{
    const std::string name = "ckks-hybrid";
    selectEngine("threads");
    double setupS = 0;
    std::unique_ptr<CkksSetup> s = timedSetups<CkksSetup>(
        opt.trace ? 1 : kSetups, setupS, [&] {
            auto out = makeSetup(opt.seed);
            // Warm-up job (verified), so tables and arenas are filled.
            const Input &in = out->inputs[0];
            if (!verify(*out, in, runJob(*out, in))) {
                std::fprintf(stderr, "perfbench: ckks-hybrid warm-up "
                                     "result did not verify\n");
                std::exit(1);
            }
            return out;
        });

    OpFn op = [&s](size_t, std::mt19937_64 &rng) {
        const Input &in = s->inputs[rng() % kPool];
        u64 t0 = nowNs();
        JobOut out = runJob(*s, in);
        OpResult r;
        r.latencyMs = msSince(t0);
        r.ok = verify(*s, in, out);
        return r;
    };

    if (!opt.trace) {
        return runUntraced(name, 1, opt, op, setupS);
    }

    WorkloadResult res;
    runTracedHalves(name, 1, opt, op, [] {}, res);
    auto &m = res.metrics;

    // Live per-call times from the traced jobs' spans.
    const SpanLog &log = spanLog();
    m["ckks.hmult_ms"] = quantile(log.durationsMs("multiply"), 0.5);
    m["ckks.rescale_ms"] = quantile(log.durationsMs("rescaleInPlace"), 0.5);
    m["ckks.rotate_ms"] = quantile(log.durationsMs("rotate"), 0.5);
    m["conv.extract_ms"] = quantile(log.durationsMs("ckksToTfhe"), 0.5);
    m["conv.repack_ms"] = quantile(log.durationsMs("tfheToCkks"), 0.5);
    std::vector<double> jobs = log.durationsMs("job");
    res.e2eMsPerOp = mean(jobs);
    double jobsN = static_cast<double>(jobs.size());
    double covered = 0;
    for (const auto &[layer, ms] : log.selfMsByLayer("job")) {
        double perOp = jobsN > 0 ? ms / jobsN : 0.0;
        res.selfMsPerOp[layer] = perOp;
        if (layer != "bench") {
            covered += perOp;
        }
    }
    m["trace.coverage"] =
        res.e2eMsPerOp > 0 ? covered / res.e2eMsPerOp : 0.0;

    // Replays of the stages the job calls inside the library.
    const CkksContext &ctx = *s->ctx;
    const size_t top = ctx.params().maxLevel;
    {
        Scoped root("bench", "replay");
        RnsPoly d = s->inputs[0].a.c1;
        d.toCoeff();
        {
            Scoped sp("ckks", "keySwitch.l15", root.id());
            m["ckks.keyswitch_ms"] = medianMs(
                5, [&] { s->eval->keySwitch(d, s->relin, top); });
        }
        JobOut out = runJob(*s, s->inputs[0]);
        std::vector<CkksCiphertext> embedded;
        for (const ConvLwe &l : out.lwes) {
            embedded.push_back(s->packer->ringEmbed(l));
        }
        CkksCiphertext packed;
        {
            Scoped sp("conv", "packLwes", root.id());
            m["conv.pack_lwes_ms"] = medianMs(
                5, [&] { packed = s->packer->packLwes(embedded); });
        }
        {
            Scoped sp("conv", "fieldTrace", root.id());
            m["conv.field_trace_ms"] = medianMs(
                5, [&] { s->packer->fieldTrace(packed, kExtract); });
        }
        const BaseConverter &up = ctx.modUpConverter(top, 0);
        RnsPoly upIn = randomPoly(ctx.n(), up.fromModuli(), 11);
        {
            Scoped sp("poly", "BaseConverter.convert.modup", root.id());
            m["poly.modup_bconv_ms"] =
                medianMs(7, [&] { up.convert(upIn); });
        }
        const BaseConverter &down = ctx.modDownConverter(top);
        RnsPoly downIn = randomPoly(ctx.n(), down.fromModuli(), 12);
        {
            Scoped sp("poly", "BaseConverter.convert.moddown", root.id());
            m["poly.moddown_bconv_ms"] =
                medianMs(7, [&] { down.convert(downIn); });
        }
        measureBackendKernels(m, root.id());
    }
    return res;
}

} // namespace perfbench
