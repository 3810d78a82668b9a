#include "harness.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "backend/registry.h"
#include "backend/simd_kernels.h"
#include "common/primes.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "poly/ntt.h"

extern char **environ;

namespace perfbench {

// ------------------------------------------------------------ options

namespace {

u64
splitmix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

u64
deriveSeed(u64 seed, const std::string &tag)
{
    u64 h = 0xcbf29ce484222325ULL; // FNV-1a of the stream tag
    for (unsigned char c : tag) {
        h = (h ^ c) * 0x100000001b3ULL;
    }
    return splitmix64(splitmix64(seed) ^ h);
}

// ------------------------------------------------------------- clocks

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
msSince(u64 startNs)
{
    return static_cast<double>(nowNs() - startNs) / 1e6;
}

double
medianMs(int reps, const std::function<void()> &fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        u64 t0 = nowNs();
        fn();
        t.push_back(msSince(t0));
    }
    return quantile(t, 0.5);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v) {
        sum += x;
    }
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
slicedQuantile(const std::vector<double> &latencyMs,
               const std::vector<double> &startS, double seconds,
               size_t slices, double q)
{
    std::vector<std::vector<double>> bySlice(slices);
    for (size_t i = 0; i < latencyMs.size(); ++i) {
        size_t s = static_cast<size_t>(startS[i] / seconds *
                                       static_cast<double>(slices));
        bySlice[std::min(s, slices - 1)].push_back(latencyMs[i]);
    }
    std::vector<double> perSlice;
    for (const std::vector<double> &v : bySlice) {
        if (v.size() >= 2) {
            perSlice.push_back(quantile(v, q));
        }
    }
    return perSlice.empty() ? quantile(latencyMs, q)
                            : quantile(perSlice, 0.5);
}

// --------------------------------------------------------- closed loop

namespace {

struct CallerStats
{
    u64 attempted = 0;
    u64 finished = 0;
    u64 verified = 0;
    u64 failed = 0;
    u64 lastEndNs = 0;
    std::vector<double> latencyMs;
    std::vector<double> startS;
};

/** Shared with the caller threads; a hung caller keeps it alive. */
struct LoopState
{
    OpFn op;
    std::mutex mtx;
    std::condition_variable cv;
    size_t done = 0;
    std::vector<CallerStats> callers;
    std::string firstError;
};

} // namespace

LoopStats
runClosedLoop(const std::string &workload, size_t callers,
              double seconds, double graceS, u64 seed, const OpFn &op)
{
    auto st = std::make_shared<LoopState>();
    st->op = op;
    st->callers.resize(callers);
    const u64 startNs = nowNs();
    const u64 endNs = startNs + static_cast<u64>(seconds * 1e9);
    std::vector<std::thread> threads;
    threads.reserve(callers);
    for (size_t c = 0; c < callers; ++c) {
        u64 rngSeed = deriveSeed(seed, "caller" + std::to_string(c));
        threads.emplace_back([st, c, startNs, endNs, rngSeed] {
            std::mt19937_64 rng(rngSeed);
            for (u64 opStart = nowNs(); opStart < endNs; opStart = nowNs()) {
                {
                    std::lock_guard<std::mutex> g(st->mtx);
                    ++st->callers[c].attempted;
                }
                OpResult r;
                std::string error;
                try {
                    r = st->op(c, rng);
                } catch (const std::exception &e) {
                    r.ok = false;
                    error = e.what();
                } catch (...) {
                    r.ok = false;
                    error = "unknown exception";
                }
                u64 t = nowNs();
                std::lock_guard<std::mutex> g(st->mtx);
                CallerStats &cs = st->callers[c];
                ++cs.finished;
                cs.lastEndNs = t;
                if (r.ok) {
                    ++cs.verified;
                    cs.latencyMs.push_back(r.latencyMs);
                    cs.startS.push_back(
                        static_cast<double>(opStart - startNs) / 1e9);
                } else {
                    ++cs.failed;
                    if (st->firstError.empty()) {
                        st->firstError =
                            error.empty() ? "wrong decrypt" : error;
                    }
                }
            }
            std::lock_guard<std::mutex> g(st->mtx);
            ++st->done;
            st->cv.notify_all();
        });
    }

    // Watchdog: wait for every caller to drain, with a heartbeat on
    // stderr so an outer supervisor can count ops of a crashed run.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::nanoseconds(endNs - startNs) +
        std::chrono::milliseconds(static_cast<long>(graceS * 1e3));
    std::unique_lock<std::mutex> lk(st->mtx);
    while (st->done < callers) {
        auto next = std::min(deadline, std::chrono::steady_clock::now() +
                                           std::chrono::seconds(5));
        st->cv.wait_until(lk, next);
        u64 att = 0, fin = 0;
        for (const CallerStats &cs : st->callers) {
            att += cs.attempted;
            fin += cs.finished;
        }
        std::fprintf(stderr, "# progress %s attempted=%llu finished=%llu\n",
                     workload.c_str(), static_cast<unsigned long long>(att),
                     static_cast<unsigned long long>(fin));
        if (std::chrono::steady_clock::now() >= deadline) {
            break;
        }
    }

    LoopStats out;
    out.hung = st->done < callers;
    u64 lastNs = startNs;
    for (const CallerStats &cs : st->callers) {
        out.attempted += cs.attempted;
        out.verified += cs.verified;
        out.failed += cs.failed;
        out.unfinished += cs.attempted - cs.finished;
        out.latencyMs.insert(out.latencyMs.end(), cs.latencyMs.begin(),
                             cs.latencyMs.end());
        out.startS.insert(out.startS.end(), cs.startS.begin(),
                          cs.startS.end());
        if (cs.finished > 0 && cs.lastEndNs > startNs) {
            out.throughput += static_cast<double>(cs.verified) /
                              (static_cast<double>(cs.lastEndNs - startNs) /
                               1e9);
            lastNs = std::max(lastNs, cs.lastEndNs);
        }
    }
    out.failed += out.unfinished;
    out.wallS = static_cast<double>(lastNs - startNs) / 1e9;
    if (!st->firstError.empty()) {
        std::fprintf(stderr, "perfbench: %s: first failure: %s\n",
                     workload.c_str(), st->firstError.c_str());
    }
    lk.unlock();
    for (std::thread &t : threads) {
        if (out.hung) {
            // A caller blocked forever on a reply cannot be joined; it
            // is abandoned (it owns a reference to the loop state) and
            // the caller ends the process via abandonHungRun().
            t.detach();
        } else {
            t.join();
        }
    }
    return out;
}

void
abandonHungRun(const std::string &workload, const LoopStats &stats)
{
    std::fprintf(stderr,
                 "perfbench: workload '%s' did not finish: %llu of %llu "
                 "ops still in flight at the watchdog deadline\n",
                 workload.c_str(),
                 static_cast<unsigned long long>(stats.unfinished),
                 static_cast<unsigned long long>(stats.attempted));
    std::fflush(stderr);
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {}}\n",
                static_cast<unsigned long long>(
                    std::max<u64>(1, stats.attempted)),
                static_cast<unsigned long long>(
                    std::max<u64>(1, stats.failed)));
    std::fflush(stdout);
    std::_Exit(3);
}

namespace {

/** Time callers get to finish in-flight ops after the window. */
constexpr double kGraceS = 60;

/** Slices of the window the reported p90 is the median over: at 30 s,
 *  5 s slices of 20-60 ops each. The plain p90 of a run moved by up to
 *  19 % (IQR / median over ten runs) with load from other tenants of
 *  the host; the median over slices discards a disturbance that covers
 *  a minority of the run. */
constexpr size_t kP90Slices = 6;

LoopStats
loopOrAbandon(const std::string &workload, size_t callers, double seconds,
              u64 seed, const OpFn &op)
{
    LoopStats st = runClosedLoop(workload, callers, seconds, kGraceS, seed, op);
    if (st.hung) {
        abandonHungRun(workload, st);
    }
    return st;
}

} // namespace

WorkloadResult
runUntraced(const std::string &workload, size_t callers,
            const RunOptions &opt, const OpFn &op, double setupS)
{
    LoopStats st = loopOrAbandon(workload, callers, opt.seconds,
                                 deriveSeed(opt.seed, workload + ".load"), op);
    WorkloadResult res;
    res.attempted = st.attempted;
    res.failed = st.failed;
    res.correct = st.failed == 0;
    res.metrics["throughput_per_s"] = st.throughput;
    res.metrics["latency_p50_ms"] = quantile(st.latencyMs, 0.5);
    res.metrics["latency_p90_ms"] = slicedQuantile(
        st.latencyMs, st.startS, opt.seconds, kP90Slices, 0.9);
    res.metrics["setup_s"] = setupS;
    res.metrics["peak_rss_mb"] = peakRssMb();
    std::printf("%s: %zu verified latency samples over %.2f s\n",
                workload.c_str(), st.latencyMs.size(), st.wallS);
    return res;
}

TracedLoops
runTracedHalves(const std::string &workload, size_t callers,
                const RunOptions &opt, const OpFn &op,
                const std::function<void()> &beforeTraced,
                WorkloadResult &res)
{
    TracedLoops t;
    t.plain = loopOrAbandon(workload, callers, opt.seconds / 2,
                            deriveSeed(opt.seed, workload + ".load"), op);
    beforeTraced();
    spanLog().enable(true);
    WindowProbe probe;
    probe.begin();
    t.traced = loopOrAbandon(workload, callers, opt.seconds / 2,
                             deriveSeed(opt.seed, workload + ".traced"), op);
    probe.end(res.metrics, t.traced.verified);
    res.attempted = t.plain.attempted + t.traced.attempted;
    res.failed = t.plain.failed + t.traced.failed;
    res.correct = res.failed == 0;
    res.metrics["trace.overhead_frac"] =
        t.plain.throughput > 0
            ? 1.0 - t.traced.throughput / t.plain.throughput
            : 0.0;
    return t;
}

// ---------------------------------------------------------------- spans

u64
SpanLog::open(const std::string &layer, const std::string &name,
              u64 parent)
{
    if (!enabled()) {
        return 0;
    }
    u64 tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
    u64 t = nowNs();
    std::lock_guard<std::mutex> g(mtx_);
    u64 id = nextId_++;
    openIdx_[id] = spans_.size();
    spans_.push_back({id, parent, layer, name, t, 0, tid});
    return id;
}

void
SpanLog::close(u64 id)
{
    if (id == 0) {
        return;
    }
    u64 t = nowNs();
    std::lock_guard<std::mutex> g(mtx_);
    auto it = openIdx_.find(id);
    if (it != openIdx_.end()) {
        Span &s = spans_[it->second];
        s.durNs = t - s.startNs;
        openIdx_.erase(it);
    }
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> g(mtx_);
    return spans_;
}

std::vector<double>
SpanLog::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans()) {
        if (s.name == name && s.durNs > 0) {
            out.push_back(static_cast<double>(s.durNs) / 1e6);
        }
    }
    return out;
}

std::map<std::string, double>
SpanLog::selfMsByLayer(const std::string &root) const
{
    std::vector<Span> all = spans();
    std::map<u64, const Span *> byId;
    std::map<u64, u64> childNs;
    for (const Span &s : all) {
        byId[s.id] = &s;
        if (s.parent != 0) {
            childNs[s.parent] += s.durNs;
        }
    }
    std::map<std::string, double> out;
    for (const Span &s : all) {
        const Span *r = &s;
        while (r->parent != 0 && byId.count(r->parent) != 0) {
            r = byId[r->parent];
        }
        if (r->name != root) {
            continue;
        }
        u64 child = childNs[s.id];
        u64 self = s.durNs > child ? s.durNs - child : 0;
        out[s.layer] += static_cast<double>(self) / 1e6;
    }
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::vector<Span> all = spans();
    u64 base = all.empty() ? 0 : all.front().startNs;
    std::map<u64, int> tids;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        int tid = tids.emplace(s.tid, static_cast<int>(tids.size()))
                      .first->second;
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                     "\"tid\": %d, \"args\": {\"id\": %llu, \"parent\": "
                     "%llu}}%s\n",
                     s.name.c_str(), s.layer.c_str(),
                     static_cast<double>(s.startNs - base) / 1e3,
                     static_cast<double>(s.durNs) / 1e3, tid,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

SpanLog &
spanLog()
{
    static SpanLog log;
    return log;
}

// -------------------------------------------------------- process/host

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

double
processCpuS()
{
    struct timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

unsigned
hostThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

std::string
hostConfigLine()
{
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
#if defined(__clang__)
    std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    std::string compiler = std::string("gcc ") + __VERSION__;
#else
    std::string compiler = "unknown";
#endif
    trinity::PolyBackend &b = trinity::activeBackend();
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "config: nproc=%u simd_level=%s llc_bytes=%ld "
                  "compiler=\"%s\" build_type=%s engine=%s "
                  "engine_threads=%zu",
                  hostThreads(),
                  trinity::simd::levelName(trinity::simd::resolveLevel()),
                  llc, compiler.c_str(), PERFBENCH_BUILD_TYPE, b.name(),
                  b.threadCount());
    return buf;
}

void
refuseWorkloadEnv()
{
    std::vector<std::string> set;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "TRINITY_", 8) == 0) {
            const char *eq = std::strchr(*e, '=');
            set.emplace_back(*e, eq == nullptr ? std::strlen(*e)
                                               : size_t(eq - *e));
        }
    }
    if (set.empty()) {
        return;
    }
    std::string names;
    for (const std::string &s : set) {
        names += (names.empty() ? "" : ", ") + s;
    }
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set: TRINITY_* "
                 "variables change engines, server policy, store "
                 "budgets or the fold, so the workload would no longer "
                 "be the pinned one. Unset them.\n",
                 names.c_str());
    std::exit(2);
}

void
selectEngine(const std::string &engine)
{
    trinity::BackendRegistry::instance().select(engine);
}

// -------------------------------------------------------------- metrics

const std::vector<MetricDef> &
endToEndCatalogue()
{
    static const std::vector<MetricDef> defs = {
        {"throughput_per_s", "1/s", "higher", "", "all"},
        {"latency_p50_ms", "ms", "lower", "", "all"},
        {"latency_p90_ms", "ms", "lower", "", "all"},
        {"setup_s", "s", "lower", "", "all"},
        {"peak_rss_mb", "MB", "lower", "", "all"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerCatalogue()
{
    static const char *kServe = "pbs-tenants,pir-serve";
    static const std::vector<MetricDef> defs = {
        {"runtime.queue_wait_p50_ms", "ms", "lower", "latency_p50_ms",
         kServe},
        {"runtime.queue_wait_p90_ms", "ms", "lower", "latency_p90_ms",
         kServe},
        {"runtime.batch_size_mean", "count", "higher", "throughput_per_s",
         kServe},
        {"runtime.keystore_hit_rate", "ratio", "higher",
         "throughput_per_s,latency_p90_ms", "pbs-tenants"},
        {"runtime.keystore_evictions", "count", "lower",
         "throughput_per_s,latency_p90_ms", "pbs-tenants"},
        {"runtime.keystore_fault_ms", "ms", "lower",
         "throughput_per_s,latency_p90_ms", "pbs-tenants"},
        {"runtime.rejected", "count", "lower", "failed_frac", kServe},
        {"runtime.shed", "count", "lower", "failed_frac", kServe},
        {"tfhe.pbs_ms.b1", "ms", "lower", "throughput_per_s",
         "pbs-tenants"},
        {"tfhe.pbs_ms_per_op.b8", "ms", "lower", "throughput_per_s",
         "pbs-tenants"},
        {"tfhe.blind_rotate_ms", "ms", "lower", "throughput_per_s",
         "pbs-tenants"},
        {"tfhe.sample_extract_ms", "ms", "lower", "throughput_per_s",
         "pbs-tenants"},
        {"tfhe.keyswitch_ms", "ms", "lower", "throughput_per_s",
         "pbs-tenants"},
        {"tfhe.decompose_us", "us", "lower", "throughput_per_s", kServe},
        {"tfhe.external_product_us", "us", "lower", "throughput_per_s",
         kServe},
        {"pir.expand_ms", "ms", "lower", "throughput_per_s,latency_p50_ms",
         "pir-serve"},
        {"pir.query_gsw_ms", "ms", "lower",
         "throughput_per_s,latency_p50_ms", "pir-serve"},
        {"pir.fold_ms", "ms", "lower", "throughput_per_s,latency_p50_ms",
         "pir-serve"},
        {"pir.mod_switch_ms", "ms", "lower",
         "throughput_per_s,latency_p50_ms", "pir-serve"},
        {"pir.cmux_tree_ms", "ms", "lower",
         "throughput_per_s,latency_p50_ms", "pir-serve"},
        {"pir.fold_gb_per_s", "GB/s", "higher", "throughput_per_s",
         "pir-serve"},
        {"pir.materialize_s", "s", "lower", "setup_s", "pir-serve"},
        {"ckks.hmult_ms", "ms", "lower", "latency_p50_ms", "ckks-hybrid"},
        {"ckks.rescale_ms", "ms", "lower", "latency_p50_ms",
         "ckks-hybrid"},
        {"ckks.rotate_ms", "ms", "lower", "latency_p50_ms", "ckks-hybrid"},
        {"ckks.keyswitch_ms", "ms", "lower", "latency_p50_ms",
         "ckks-hybrid"},
        {"conv.extract_ms", "ms", "lower", "latency_p50_ms", "ckks-hybrid"},
        {"conv.pack_lwes_ms", "ms", "lower", "latency_p50_ms",
         "ckks-hybrid"},
        {"conv.field_trace_ms", "ms", "lower", "latency_p50_ms",
         "ckks-hybrid"},
        {"conv.repack_ms", "ms", "lower", "latency_p50_ms", "ckks-hybrid"},
        {"poly.modup_bconv_ms", "ms", "lower", "latency_p50_ms",
         "ckks-hybrid"},
        {"poly.moddown_bconv_ms", "ms", "lower", "latency_p50_ms",
         "ckks-hybrid"},
        {"backend.ntt_us.n1024", "us", "lower", "throughput_per_s", "all"},
        {"backend.ntt_us.n2048", "us", "lower", "throughput_per_s", "all"},
        {"backend.ntt_ms.n32768", "ms", "lower", "throughput_per_s", "all"},
        {"backend.automorphism_ms.n32768", "ms", "lower",
         "throughput_per_s", "all"},
        {"backend.cpu_util", "ratio", "higher", "throughput_per_s", "all"},
        {"backend.stream_steals", "count/op", "lower", "throughput_per_s",
         "all"},
        {"backend.stream_jobs", "count/op", "lower", "throughput_per_s",
         "all"},
        {"backend.arena_misses", "count", "lower", "latency_p90_ms", "all"},
        {"trace.coverage", "ratio", "higher", "", "all"},
        {"trace.overhead_frac", "ratio", "lower", "", "all"},
    };
    return defs;
}

namespace {

bool
onPath(const MetricDef &d, const std::string &workload)
{
    std::string on = d.on;
    return on == "all" || on.find(workload) != std::string::npos;
}

} // namespace

void
report(const RunOptions &opt, const WorkloadResult &res)
{
    std::printf("\n== perfbench %s: seed=%llu seconds=%g trace=%d ==\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("%s\n", hostConfigLine().c_str());
    double frac = res.attempted == 0
                      ? 0.0
                      : static_cast<double>(res.failed) /
                            static_cast<double>(res.attempted);
    const std::vector<MetricDef> &defs =
        opt.trace ? perLayerCatalogue() : endToEndCatalogue();
    if (!opt.trace) {
        std::printf("%-34s %16s  %-8s %s\n", "end-to-end metric", "value",
                    "unit", "better");
        for (const MetricDef &d : defs) {
            auto it = res.metrics.find(d.name);
            double v = it == res.metrics.end() ? 0.0 : it->second;
            std::printf("%-34s %16.6g  %-8s %s\n", d.name, v, d.unit,
                        d.better);
        }
    } else {
        std::printf("%-34s %16s  %-8s %-32s %s\n", "per-layer metric",
                    "value", "unit", "moves", "on path of");
        for (const MetricDef &d : defs) {
            auto it = res.metrics.find(d.name);
            double v = it == res.metrics.end() ? 0.0 : it->second;
            std::printf("%-34s %16.6g  %-8s %-32s %s%s\n", d.name, v,
                        d.unit, d.moves, d.on,
                        onPath(d, opt.workload) ? "" : "  (off path: 0)");
        }
        std::printf("\nself time per op by layer (traced run; e2e "
                    "%.3f ms/op)\n",
                    res.e2eMsPerOp);
        std::printf("%-12s %12s %8s\n", "layer", "ms/op", "share");
        double sum = 0;
        for (const auto &[layer, ms] : res.selfMsPerOp) {
            sum += ms;
            std::printf("%-12s %12.4f %7.1f%%\n", layer.c_str(), ms,
                        res.e2eMsPerOp > 0 ? 100.0 * ms / res.e2eMsPerOp
                                           : 0.0);
        }
        std::printf("%-12s %12.4f %7.1f%%  (trace.coverage)\n", "covered",
                    sum,
                    res.e2eMsPerOp > 0 ? 100.0 * sum / res.e2eMsPerOp
                                       : 0.0);
    }
    std::printf("failed_frac = %.6g (%llu failed of %llu attempted)\n",
                frac, static_cast<unsigned long long>(res.failed),
                static_cast<unsigned long long>(res.attempted));

    std::string json = "{\"correct\": ";
    json += res.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : defs) {
        auto it = res.metrics.find(d.name);
        double v = it == res.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) {
            std::fprintf(stderr, "perfbench: %s is not finite\n", d.name);
            v = 0;
        }
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", d.name, v, d.unit);
        first = false;
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

// ------------------------------------------------------------- helpers

HistSummary
histSummary(const std::vector<std::string> &names)
{
    trinity::obs::MetricsRegistry &reg =
        trinity::obs::MetricsRegistry::instance();
    HistSummary s;
    double sumNs = 0;
    for (const std::string &n : names) {
        trinity::obs::Histogram &h = reg.histogram(n);
        double c = static_cast<double>(h.count());
        s.count += c;
        sumNs += static_cast<double>(h.sum());
        s.p50Ms += c * static_cast<double>(h.percentile(0.50)) / 1e6;
        s.p90Ms += c * static_cast<double>(h.percentile(0.90)) / 1e6;
    }
    if (s.count > 0) {
        s.meanMs = sumNs / s.count / 1e6;
        s.p50Ms /= s.count;
        s.p90Ms /= s.count;
    }
    return s;
}

void
resetHistograms(const std::vector<std::string> &names)
{
    for (const std::string &n : names) {
        trinity::obs::MetricsRegistry::instance().histogram(n).reset();
    }
}

namespace {

u64
counterValue(const char *name)
{
    return trinity::obs::MetricsRegistry::instance().counter(name).value();
}

} // namespace

void
WindowProbe::begin()
{
    cpu0_ = processCpuS();
    t0_ = nowNs();
    steals0_ = counterValue("stream.steals");
    jobs0_ = counterValue("stream.jobs_executed");
    misses0_ = counterValue("scratch_arena.misses");
}

void
WindowProbe::end(std::map<std::string, double> &m, u64 ops) const
{
    double wall = msSince(t0_) / 1e3;
    double perOp = ops == 0 ? 0.0 : 1.0 / static_cast<double>(ops);
    m["backend.cpu_util"] =
        (processCpuS() - cpu0_) / (wall * static_cast<double>(hostThreads()));
    m["backend.stream_steals"] =
        static_cast<double>(counterValue("stream.steals") - steals0_) * perOp;
    m["backend.stream_jobs"] =
        static_cast<double>(counterValue("stream.jobs_executed") - jobs0_) *
        perOp;
    m["backend.arena_misses"] =
        static_cast<double>(counterValue("scratch_arena.misses") - misses0_);
}

void
measureBackendKernels(std::map<std::string, double> &m, u64 parentSpan)
{
    using namespace trinity;
    PolyBackend &be = activeBackend();
    auto nttUs = [&](size_t n, size_t limbs, int reps) {
        u64 q = findNttPrimes(50, 2 * n, 1)[0];
        auto table = NttTableCache::get(n, q);
        Rng rng(n);
        std::vector<std::vector<u64>> data(limbs);
        std::vector<NttJob> jobs;
        for (auto &d : data) {
            d = rng.uniformVec(n, q);
            jobs.push_back({d.data(), table.get()});
        }
        Scoped s("backend", "nttForwardBatch.n" + std::to_string(n),
                 parentSpan);
        return medianMs(reps, [&] {
                   be.nttForwardBatch(jobs.data(), jobs.size());
               }) *
               1e3 / static_cast<double>(limbs);
    };
    m["backend.ntt_us.n1024"] = nttUs(1024, 32, 41);
    m["backend.ntt_us.n2048"] = nttUs(2048, 16, 41);
    m["backend.ntt_ms.n32768"] = nttUs(32768, 16, 15) / 1e3;

    const size_t n = 32768;
    const size_t limbs = 16;
    std::vector<u64> primes = findNttPrimes(50, 2 * n, limbs);
    std::vector<Modulus> mods;
    mods.reserve(limbs);
    for (u64 q : primes) {
        mods.emplace_back(q);
    }
    Rng rng(7);
    std::vector<std::vector<u64>> src(limbs), dst(limbs);
    std::vector<AutoJob> jobs;
    for (size_t i = 0; i < limbs; ++i) {
        src[i] = rng.uniformVec(n, primes[i]);
        dst[i].assign(n, 0);
        jobs.push_back({dst[i].data(), src[i].data(), &mods[i], n, 5});
    }
    Scoped s("backend", "automorphismBatch.n32768", parentSpan);
    m["backend.automorphism_ms.n32768"] = medianMs(15, [&] {
        be.automorphismBatch(jobs.data(), jobs.size());
    });
}

std::vector<double>
zipfCdf(size_t n)
{
    std::vector<double> cdf(n);
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
        total += 1.0 / static_cast<double>(i + 1);
        cdf[i] = total;
    }
    for (double &c : cdf) {
        c /= total;
    }
    return cdf;
}

size_t
sampleCdf(const std::vector<double> &cdf, std::mt19937_64 &rng)
{
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    size_t i = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return std::min(i, cdf.size() - 1);
}

} // namespace perfbench
