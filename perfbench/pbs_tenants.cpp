/**
 * @file
 * pbs-tenants: multi-tenant sign bootstrapping on a ShardedPbsServer
 * (2 shards, maxBatch 8, maxWaitUs 200, Set-I) under a keystore
 * budget of four tenants' resident bytes for six Zipf(s=1)-popular
 * tenants, driven by four closed-loop callers. Engine: simd — the
 * threads engine deadlocks when two shard workers dispatch at once.
 */

#include <memory>

#include "common/modarith.h"
#include "harness.h"
#include "obs/metrics.h"
#include "runtime/sharded_server.h"

namespace perfbench {

using namespace trinity;

namespace {

constexpr size_t kTenants = 6;
constexpr size_t kResidentTenants = 4;
constexpr size_t kShards = 2;
constexpr size_t kCallers = 4;
constexpr size_t kPool = 16;

struct Tenant
{
    runtime::TenantKeyMaterial keys;
    std::vector<LweCiphertext> pool; ///< pre-encrypted requests
    std::vector<bool> bits;          ///< their plaintexts
};

/** Everything one run needs; the server is declared last so it is
 *  destroyed (drained and joined) first. */
struct PbsSetup
{
    std::shared_ptr<TfheContext> ctx;
    std::unique_ptr<TfheBootstrapper> boot;
    std::vector<Tenant> tenants;
    std::vector<double> cdf;
    std::unique_ptr<runtime::ShardedPbsServer> server;
};

bool
decryptsTo(const TfheContext &ctx, const LweCiphertext &ct,
           const LweSecretKey &sk, bool bit)
{
    return (centeredRep(ctx.lwePhase(ct, sk), ctx.q()) > 0) == bit;
}

runtime::ShardedOptions
pinnedOptions()
{
    runtime::ServerOptions server;
    server.maxBatch = 8;
    server.maxWaitUs = 200;
    server.maxQueue = 0;
    server.deadlineUs = 0;
    server.label = "pbs_server";
    runtime::ShardedOptions opts;
    opts.shards = kShards;
    opts.keystoreBudgetBytes =
        kResidentTenants *
        runtime::KeyStore::residentBytesFor(TfheParams::setI());
    opts.server = server;
    return opts;
}

std::unique_ptr<PbsSetup>
makeSetup(u64 seed)
{
    auto s = std::make_unique<PbsSetup>();
    s->ctx = std::make_shared<TfheContext>(TfheParams::setI(),
                                           deriveSeed(seed, "pbs.ctx"));
    s->boot = std::make_unique<TfheBootstrapper>(s->ctx);
    std::mt19937_64 bitRng(deriveSeed(seed, "pbs.bits"));
    const u64 mu = s->ctx->q() / 8;
    s->tenants.resize(kTenants);
    for (Tenant &t : s->tenants) {
        t.keys = runtime::TenantKeyMaterial::generate(*s->ctx, *s->boot);
        for (size_t j = 0; j < kPool; ++j) {
            bool b = (bitRng() & 1) != 0;
            t.bits.push_back(b);
            t.pool.push_back(s->ctx->lweEncrypt(
                b ? mu : s->ctx->modulus().neg(mu), t.keys.lweKey));
        }
    }
    s->cdf = zipfCdf(kTenants);
    PbsSetup *raw = s.get();
    s->server = std::make_unique<runtime::ShardedPbsServer>(
        s->ctx,
        [raw](runtime::TenantId t) -> const runtime::TenantKeyMaterial & {
            return raw->tenants[static_cast<size_t>(t)].keys;
        },
        pinnedOptions());
    // Warm-up: one verified request per tenant (every tenant faults
    // in once, the Zipf tail then evicts) and one batch's worth for
    // the two most popular tenants, so the head is resident.
    for (size_t i = 0; i < kTenants + 8; ++i) {
        size_t tid = i < kTenants ? i : i % 2;
        Tenant &t = s->tenants[tid];
        LweCiphertext out = s->server->submit(tid, t.pool[i % kPool]).get();
        if (!decryptsTo(*s->ctx, out, t.keys.lweKey, t.bits[i % kPool])) {
            std::fprintf(stderr, "perfbench: pbs-tenants warm-up result "
                                 "did not verify\n");
            std::exit(1);
        }
    }
    return s;
}

std::vector<std::string>
shardNames(const char *prefix, const char *suffix)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < kShards; ++i) {
        out.push_back(std::string(prefix) + std::to_string(i) + suffix);
    }
    return out;
}

} // namespace

WorkloadResult
runPbsTenants(const RunOptions &opt)
{
    const std::string name = "pbs-tenants";
    selectEngine("simd");
    double setupS = 0;
    std::unique_ptr<PbsSetup> s = timedSetups<PbsSetup>(
        opt.trace ? 1 : kSetups, setupS, [&] { return makeSetup(opt.seed); });

    OpFn op = [&s](size_t, std::mt19937_64 &rng) {
        size_t tid = sampleCdf(s->cdf, rng);
        size_t slot = static_cast<size_t>(rng() % kPool);
        Tenant &t = s->tenants[tid];
        u64 t0 = nowNs();
        LweCiphertext out;
        {
            Scoped span("runtime", "ShardedPbsServer.submit+get");
            out = s->server->submit(tid, t.pool[slot]).get();
        }
        OpResult r;
        r.latencyMs = msSince(t0);
        r.ok = decryptsTo(*s->ctx, out, t.keys.lweKey, t.bits[slot]);
        return r;
    };

    const std::vector<std::string> qwait =
        shardNames("pbs_server.shard", ".queue_wait_ns");
    const std::vector<std::string> fault =
        shardNames("keystore.shard", ".materialize_ns");
    if (!opt.trace) {
        return runUntraced(name, kCallers, opt, op, setupS);
    }

    WorkloadResult res;
    runtime::ShardedStats before;
    TracedLoops loops = runTracedHalves(name, kCallers, opt, op, [&] {
        resetHistograms(qwait);
        resetHistograms(fault);
        before = s->server->stats();
    }, res);
    auto &m = res.metrics;
    runtime::ShardedStats after = s->server->stats();

    HistSummary qw = histSummary(qwait);
    HistSummary fl = histSummary(fault);
    u64 hits = after.keystore.hits - before.keystore.hits;
    u64 misses = after.keystore.misses - before.keystore.misses;
    u64 reqs = after.serving.requests - before.serving.requests;
    u64 batches = after.serving.batches - before.serving.batches;
    m["runtime.queue_wait_p50_ms"] = qw.p50Ms;
    m["runtime.queue_wait_p90_ms"] = qw.p90Ms;
    m["runtime.batch_size_mean"] =
        batches == 0 ? 0.0
                     : static_cast<double>(reqs) / static_cast<double>(batches);
    m["runtime.keystore_hit_rate"] =
        hits + misses == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(hits + misses);
    m["runtime.keystore_evictions"] = static_cast<double>(
        after.keystore.evictions - before.keystore.evictions);
    m["runtime.keystore_fault_ms"] = fl.p50Ms;
    m["runtime.rejected"] = static_cast<double>(after.serving.rejected -
                                                before.serving.rejected);
    m["runtime.shed"] =
        static_cast<double>(after.serving.shed - before.serving.shed);

    // Replays of the stages the server runs, with a resident tenant's
    // keys (materialized through a store of its own).
    Tenant &t0 = s->tenants[0];
    runtime::KeyStore replayStore(
        *s->ctx,
        [&t0](runtime::TenantId) -> const runtime::TenantKeyMaterial & {
            return t0.keys;
        },
        0, "keystore.replay");
    std::shared_ptr<const runtime::ResidentKeys> keys = replayStore.acquire(0);
    const TfheBootstrapper &boot = *s->boot;
    {
        Scoped root("bench", "replay");
        runtime::PbsBatch one;
        one.add(t0.pool[0], keys->signTv);
        {
            Scoped sp("tfhe", "runPbsBatchChunked.b1", root.id());
            m["tfhe.pbs_ms.b1"] = medianMs(7, [&] {
                runtime::runPbsBatchChunked(boot, one, keys->bsk, keys->ksk,
                                            0);
            });
        }
        runtime::PbsBatch eight;
        for (size_t j = 0; j < 8; ++j) {
            eight.add(t0.pool[j], keys->signTv);
        }
        {
            Scoped sp("tfhe", "runPbsBatchChunked.b8", root.id());
            m["tfhe.pbs_ms_per_op.b8"] =
                medianMs(3, [&] {
                    runtime::runPbsBatchChunked(boot, eight, keys->bsk,
                                                keys->ksk, 0);
                }) /
                8.0;
        }
        const LweCiphertext *in = &t0.pool[0];
        const Poly *tv = &keys->signTv;
        std::vector<GlweCiphertext> acc;
        {
            Scoped sp("tfhe", "blindRotateBatch.b1", root.id());
            m["tfhe.blind_rotate_ms"] = medianMs(7, [&] {
                acc = boot.blindRotateBatch(&in, &tv, 1, keys->bsk);
            });
        }
        std::vector<LweCiphertext> wide;
        {
            Scoped sp("tfhe", "sampleExtractBatch.b1", root.id());
            m["tfhe.sample_extract_ms"] = medianMs(21, [&] {
                wide = boot.sampleExtractBatch(acc.data(), 1, 0);
            });
        }
        {
            Scoped sp("tfhe", "keySwitchBatch.b1", root.id());
            m["tfhe.keyswitch_ms"] = medianMs(7, [&] {
                boot.keySwitchBatch(wide.data(), 1, keys->ksk);
            });
        }
        {
            Scoped sp("tfhe", "decompose", root.id());
            m["tfhe.decompose_us"] =
                medianMs(41, [&] { s->ctx->decompose(acc[0]); }) * 1e3;
        }
        {
            Scoped sp("tfhe", "externalProduct", root.id());
            m["tfhe.external_product_us"] =
                medianMs(41, [&] {
                    s->ctx->externalProduct(keys->bsk.bsk[0], acc[0]);
                }) *
                1e3;
        }
        measureBackendKernels(m, root.id());
    }

    // Per-op attribution: a request waits in the queue, may wait for
    // its tenant's keys to fault in, then runs in a batch of the mean
    // size (batch time interpolated between the B=1 and B=8 replays).
    double b = m["runtime.batch_size_mean"];
    double t1 = m["tfhe.pbs_ms.b1"];
    double t8 = 8.0 * m["tfhe.pbs_ms_per_op.b8"];
    double batchMs = t1 + (t8 - t1) * (b - 1.0) / 7.0;
    double faultPerOp =
        reqs == 0 ? 0.0 : fl.meanMs * fl.count / static_cast<double>(reqs);
    res.e2eMsPerOp = mean(loops.traced.latencyMs);
    res.selfMsPerOp["runtime"] = qw.meanMs + faultPerOp;
    res.selfMsPerOp["tfhe"] = batchMs;
    m["trace.coverage"] = res.e2eMsPerOp > 0
                              ? (qw.meanMs + faultPerOp + batchMs) /
                                    res.e2eMsPerOp
                              : 0.0;
    return res;
}

} // namespace perfbench
