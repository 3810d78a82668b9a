/**
 * @file
 * pir-serve: a PirServer over one tenant's database of
 * PirParams::standard().withShape(64, 5) — 2048 records of 2 KiB,
 * 268 MB resident, close to the size of the last-level cache —
 * answering queries minted up front by four closed-loop callers.
 * Engine: threads.
 */

#include <memory>

#include "harness.h"
#include "obs/metrics.h"
#include "runtime/pir_server.h"

namespace perfbench {

using namespace trinity;

namespace {

constexpr size_t kCallers = 4;
constexpr size_t kQueries = 64;

/** Everything one run needs; the server is declared last so it is
 *  destroyed (drained and joined) first. */
struct PirSetup
{
    pir::PirParams pp;
    std::unique_ptr<pir::PirClient> client;
    pir::PirQueryKeys keys;
    std::unique_ptr<pir::PirDatabase> db;
    std::vector<size_t> indices;
    std::vector<pir::PirQuery> queries;
    double materializeS = 0;
    std::unique_ptr<pir::PirDbStore> store;
    std::unique_ptr<runtime::PirServer> server;
};

runtime::ServerOptions
pinnedOptions()
{
    runtime::ServerOptions o;
    o.maxBatch = 8;
    o.maxWaitUs = 200;
    o.maxQueue = 0;
    o.deadlineUs = 0;
    o.label = "pir_server";
    return o;
}

std::unique_ptr<PirSetup>
makeSetup(u64 seed)
{
    auto s = std::make_unique<PirSetup>();
    s->pp = pir::PirParams::standard().withShape(64, 5);
    s->client = std::make_unique<pir::PirClient>(
        s->pp, deriveSeed(seed, "pir.client"));
    s->keys = s->client->makeQueryKeys();
    s->db = std::make_unique<pir::PirDatabase>(
        pir::PirDatabase::random(s->pp, deriveSeed(seed, "pir.db")));
    // Queries are minted up front: the client context's RNG is not
    // thread-safe, and the server only ever sees the ciphertexts.
    std::mt19937_64 idxRng(deriveSeed(seed, "pir.indices"));
    for (size_t i = 0; i < kQueries; ++i) {
        size_t index = static_cast<size_t>(idxRng() % s->pp.records());
        s->indices.push_back(index);
        s->queries.push_back(s->client->makeQuery(index));
    }
    PirSetup *raw = s.get();
    s->store = std::make_unique<pir::PirDbStore>(
        s->client->ctx(),
        [raw](pir::PirTenantId) -> const pir::PirDatabase & {
            return *raw->db;
        },
        s->pp.residentBytes(), "pir_dbstore");
    u64 t0 = nowNs();
    s->store->acquire(0);
    s->materializeS = msSince(t0) / 1e3;
    s->server = std::make_unique<runtime::PirServer>(
        s->client->sharedCtx(), s->pp, *s->store,
        [raw](pir::PirTenantId) -> const pir::PirQueryKeys & {
            return raw->keys;
        },
        pinnedOptions());
    // Warm-up: one concurrent round, one query per caller.
    std::vector<std::future<pir::PirResponse>> warm;
    for (size_t i = 0; i < kCallers; ++i) {
        warm.push_back(s->server->submit(0, s->queries[i]));
    }
    for (size_t i = 0; i < kCallers; ++i) {
        if (s->client->decode(warm[i].get()) !=
            s->db->record(s->indices[i])) {
            std::fprintf(stderr, "perfbench: pir-serve warm-up result "
                                 "did not verify\n");
            std::exit(1);
        }
    }
    return s;
}

} // namespace

WorkloadResult
runPirServe(const RunOptions &opt)
{
    const std::string name = "pir-serve";
    selectEngine("threads");
    double setupS = 0;
    std::unique_ptr<PirSetup> s = timedSetups<PirSetup>(
        opt.trace ? 1 : kSetups, setupS, [&] { return makeSetup(opt.seed); });

    OpFn op = [&s](size_t, std::mt19937_64 &rng) {
        size_t q = static_cast<size_t>(rng() % kQueries);
        u64 t0 = nowNs();
        pir::PirResponse resp;
        {
            Scoped span("runtime", "PirServer.submit+get");
            resp = s->server->submit(0, s->queries[q]).get();
        }
        OpResult r;
        r.latencyMs = msSince(t0);
        r.ok = s->client->decode(resp) == s->db->record(s->indices[q]);
        return r;
    };

    const std::vector<std::string> qwait = {"pir_server.queue_wait_ns"};
    if (!opt.trace) {
        return runUntraced(name, kCallers, opt, op, setupS);
    }

    WorkloadResult res;
    runtime::ServerStats before;
    TracedLoops loops = runTracedHalves(name, kCallers, opt, op, [&] {
        resetHistograms(qwait);
        before = s->server->stats();
    }, res);
    auto &m = res.metrics;
    runtime::ServerStats after = s->server->stats();

    HistSummary qw = histSummary(qwait);
    u64 reqs = after.requests - before.requests;
    u64 batches = after.batches - before.batches;
    m["runtime.queue_wait_p50_ms"] = qw.p50Ms;
    m["runtime.queue_wait_p90_ms"] = qw.p90Ms;
    m["runtime.batch_size_mean"] =
        batches == 0 ? 0.0
                     : static_cast<double>(reqs) / static_cast<double>(batches);
    m["runtime.rejected"] =
        static_cast<double>(after.rejected - before.rejected);
    m["runtime.shed"] = static_cast<double>(after.shed - before.shed);
    m["pir.materialize_s"] = s->materializeS;

    // Replays of the answer pipeline's public stages on the workload's
    // resident database, with the live run's keys and queries.
    pir::PirEngine engine(s->client->sharedCtx(), s->pp);
    std::shared_ptr<const pir::ResidentPirDb> db = s->store->acquire(0);
    const pir::PirQuery &query = s->queries[0];
    double answerMs = 0;
    {
        Scoped root("bench", "replay");
        {
            Scoped sp("pir", "PirEngine.answer", root.id());
            pir::PirResponse r;
            answerMs = medianMs(
                3, [&] { r = engine.answer(*db, s->keys, query); });
            if (s->client->decode(r) != s->db->record(s->indices[0])) {
                res.correct = false;
            }
        }
        std::vector<GlweCiphertext> expanded;
        {
            Scoped sp("pir", "PirEngine.expand", root.id());
            m["pir.expand_ms"] = medianMs(
                3, [&] { expanded = engine.expand(s->keys, query); });
        }
        std::vector<GgswCiphertext> gsw;
        {
            Scoped sp("pir", "PirEngine.queryGsw", root.id());
            m["pir.query_gsw_ms"] = medianMs(3, [&] {
                gsw.clear();
                for (u32 t = 0; t < s->pp.gswDims; ++t) {
                    gsw.push_back(engine.queryGsw(s->keys, expanded, t));
                }
            });
        }
        std::vector<GlweCiphertext> accs;
        {
            Scoped sp("pir", "PirEngine.fold", root.id());
            m["pir.fold_ms"] =
                medianMs(3, [&] { accs = engine.fold(*db, expanded); });
        }
        // The CMux tree answer() runs after the fold, replayed through
        // TfheContext::cmux: answer() minus the other four stages would
        // leave the tree inside the fold's run-to-run jitter.
        TfheContext &ctx = s->client->ctx();
        GlweCiphertext selected;
        {
            Scoped sp("tfhe", "cmuxTree", root.id());
            m["pir.cmux_tree_ms"] = medianMs(3, [&] {
                std::vector<GlweCiphertext> level = accs;
                for (const GgswCiphertext &g : gsw) {
                    std::vector<GlweCiphertext> next(level.size() / 2);
                    for (size_t i = 0; i < next.size(); ++i) {
                        next[i] = ctx.cmux(g, level[2 * i], level[2 * i + 1]);
                    }
                    level = std::move(next);
                }
                selected = std::move(level[0]);
            });
        }
        {
            Scoped sp("pir", "PirEngine.modSwitch", root.id());
            m["pir.mod_switch_ms"] =
                medianMs(11, [&] { engine.modSwitch(selected); });
        }
        if (s->client->decode(engine.modSwitch(selected)) !=
            s->db->record(s->indices[0])) {
            res.correct = false;
        }
        m["pir.fold_gb_per_s"] = static_cast<double>(db->bytes) /
                                 (m["pir.fold_ms"] / 1e3) / 1e9;
        {
            Scoped sp("tfhe", "decompose", root.id());
            m["tfhe.decompose_us"] =
                medianMs(41, [&] { ctx.decompose(expanded[0]); }) * 1e3;
        }
        {
            Scoped sp("tfhe", "externalProduct", root.id());
            m["tfhe.external_product_us"] =
                medianMs(41, [&] {
                    ctx.externalProduct(s->keys.conv[0], expanded[0]);
                }) *
                1e3;
        }
        measureBackendKernels(m, root.id());
    }

    // Per-op attribution: a query waits in the queue, then its window
    // (one tenant group) is answered query by query and resolved
    // together, so it also waits for its batch-mates' answers.
    double b = m["runtime.batch_size_mean"];
    res.e2eMsPerOp = mean(loops.traced.latencyMs);
    res.selfMsPerOp["runtime"] = qw.meanMs + (b - 1.0) * answerMs;
    res.selfMsPerOp["pir"] = answerMs;
    m["trace.coverage"] =
        res.e2eMsPerOp > 0 ? (qw.meanMs + b * answerMs) / res.e2eMsPerOp
                           : 0.0;
    return res;
}

} // namespace perfbench
