/**
 * @file
 * Shared machinery of the repository benchmark: closed-loop load with
 * a watchdog, seeded input derivation, benchmark-side trace spans,
 * process/host measurements, and the metric catalogue every run
 * reports against.
 *
 * The benchmark drives the library only through its public functions
 * and the obs::MetricsRegistry; nothing here reaches into src/
 * internals.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using u64 = std::uint64_t;

// ------------------------------------------------------------ options

/** Command-line options of one benchmark run. */
struct RunOptions
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut; ///< Chrome trace path for traced runs ("" = none)
};

/** Seed for one named input stream, derived from the run seed. */
u64 deriveSeed(u64 seed, const std::string &tag);

// ------------------------------------------------------------- clocks

u64 nowNs();
double msSince(u64 startNs);

/** Median wall time of @p reps calls of @p fn, in milliseconds. */
double medianMs(int reps, const std::function<void()> &fn);

/** Arithmetic mean of @p v; 0 if empty. */
double mean(const std::vector<double> &v);

/** Linear-interpolated quantile of @p v (q in [0, 1]); 0 if empty. */
double quantile(std::vector<double> v, double q);

/** Split a window of @p seconds into @p slices equal slices by op
 *  start time and return the median over slices of each slice's
 *  @p q-quantile of @p latencyMs: a tail estimate that a disturbance
 *  covering a minority of the run does not move. */
double slicedQuantile(const std::vector<double> &latencyMs,
                      const std::vector<double> &startS, double seconds,
                      size_t slices, double q);

// --------------------------------------------------------- closed loop

/** Outcome of one closed-loop operation as the caller saw it. */
struct OpResult
{
    double latencyMs = 0; ///< submit -> result, verification excluded
    bool ok = false;      ///< result decrypted to the expected value
};

/** One operation: submit, wait for the reply, verify it. Throwing
 *  counts as a failed op. */
using OpFn = std::function<OpResult(size_t caller, std::mt19937_64 &rng)>;

struct LoopStats
{
    u64 attempted = 0;  ///< ops started
    u64 verified = 0;   ///< ops whose result verified
    u64 failed = 0;     ///< wrong + threw + unfinished at the deadline
    u64 unfinished = 0; ///< still in flight when the watchdog fired
    bool hung = false;  ///< the watchdog fired
    std::vector<double> latencyMs; ///< verified ops only
    std::vector<double> startS;    ///< their start, s after window start
    /** Sum over callers of (ops completed / that caller's busy span),
     *  counting verified ops only. */
    double throughput = 0;
    double wallS = 0; ///< window start -> last completion

    double failedFrac() const
    {
        return attempted == 0 ? 0.0
                              : static_cast<double>(failed) /
                                    static_cast<double>(attempted);
    }
};

/**
 * Run @p callers closed-loop callers for @p seconds: each starts its
 * next op only after the previous one returned. Callers stop starting
 * ops when the window closes; the watchdog then allows @p graceS for
 * in-flight ops. Ops still unfinished at that deadline count as
 * failed and the result is marked hung; the hung caller threads are
 * abandoned (the caller must then end the process with
 * abandonHungRun(), since the servers they block on cannot be torn
 * down). Each caller's rng is seeded from @p seed and its index.
 */
LoopStats runClosedLoop(const std::string &workload, size_t callers,
                        double seconds, double graceS, u64 seed,
                        const OpFn &op);

/** Print the failure (naming @p workload) and the result line with
 *  correct=false, then exit with status 3 without running
 *  destructors. */
[[noreturn]] void abandonHungRun(const std::string &workload,
                                 const LoopStats &stats);

// ---------------------------------------------------------------- spans

/** One benchmark-side trace span: a call into a library layer. */
struct Span
{
    u64 id = 0;
    u64 parent = 0; ///< 0 = root
    std::string layer;
    std::string name;
    u64 startNs = 0;
    u64 durNs = 0;
    u64 tid = 0;
};

/**
 * In-memory span log. Recording is off unless enabled, so the
 * untraced run pays one branch per span. Thread-safe.
 */
class SpanLog
{
  public:
    void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return on_.load(std::memory_order_relaxed); }

    /** Open a span; returns its id (0 when disabled). */
    u64 open(const std::string &layer, const std::string &name,
             u64 parent);
    void close(u64 id);

    std::vector<Span> spans() const;

    /** Durations of the closed spans named @p name, in ms. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Self time (duration minus covered child time) summed per
     *  layer, over spans whose root ancestor is named @p root. */
    std::map<std::string, double> selfMsByLayer(const std::string &root)
        const;

    /** Write the spans as Chrome trace-event JSON. */
    bool write(const std::string &path) const;

  private:
    std::atomic<bool> on_{false};
    mutable std::mutex mtx_;
    std::vector<Span> spans_;
    std::map<u64, size_t> openIdx_;
    u64 nextId_ = 1;
};

SpanLog &spanLog();

/** RAII span around one call into a layer. */
class Scoped
{
  public:
    Scoped(const std::string &layer, const std::string &name,
           u64 parent = 0)
        : id_(spanLog().open(layer, name, parent))
    {
    }
    ~Scoped() { spanLog().close(id_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    u64 id() const { return id_; }

  private:
    u64 id_;
};

// -------------------------------------------------------- process/host

double peakRssMb();
double processCpuS();
unsigned hostThreads();

/** One line recording nproc, SIMD level, LLC size, compiler, build
 *  type and the active engine. */
std::string hostConfigLine();

/** Fatal (exit 2) when a TRINITY_* variable is set: every one of them
 *  changes an engine, a server policy, a store budget, the fold, or
 *  the metrics the benchmark reads. */
void refuseWorkloadEnv();

/** Select @p engine through the BackendRegistry. */
void selectEngine(const std::string &engine);

// -------------------------------------------------------------- metrics

/** A metric of the catalogue: what it is and what it should move. */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;
    const char *moves; ///< end-to-end metric it should move ("" = none)
    const char *on;    ///< workloads whose path runs the layer
};

const std::vector<MetricDef> &endToEndCatalogue();
const std::vector<MetricDef> &perLayerCatalogue();

/** What one workload run reports. */
struct WorkloadResult
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    std::map<std::string, double> metrics;
    /** Per-layer self time per op (traced runs), layer -> ms. */
    std::map<std::string, double> selfMsPerOp;
    double e2eMsPerOp = 0; ///< the per-op time the self times divide
};

/** Print the human tables and the final JSON result line. */
void report(const RunOptions &opt, const WorkloadResult &res);

/** Untraced run: one closed loop over the whole window, reported as
 *  the end-to-end metrics (a hung run is abandoned). */
WorkloadResult runUntraced(const std::string &workload, size_t callers,
                           const RunOptions &opt, const OpFn &op,
                           double setupS);

/** The two closed loops of a traced run. */
struct TracedLoops
{
    LoopStats plain;  ///< first half of the window, untraced
    LoopStats traced; ///< second half, spans and window counters on
};

/**
 * Traced run: half the window untraced, then @p beforeTraced (to
 * snapshot server counters), then half traced under a WindowProbe.
 * Fills @p res with the attempted/failed counts, the backend window
 * metrics and trace.overhead_frac; spans stay enabled for the replays
 * that follow. A hung half is abandoned.
 */
TracedLoops runTracedHalves(const std::string &workload, size_t callers,
                            const RunOptions &opt, const OpFn &op,
                            const std::function<void()> &beforeTraced,
                            WorkloadResult &res);

// ------------------------------------------------------------- helpers

/** Run @p make @p k times (destroying the previous instance first),
 *  keep the last, and store the median set-up time in @p medianS. */
template <class T>
std::unique_ptr<T>
timedSetups(int k, double &medianS,
            const std::function<std::unique_ptr<T>()> &make)
{
    std::vector<double> times;
    std::unique_ptr<T> out;
    for (int i = 0; i < k; ++i) {
        out.reset();
        u64 t0 = nowNs();
        out = make();
        times.push_back(msSince(t0) / 1e3);
    }
    medianS = quantile(times, 0.5);
    return out;
}

/** Count-weighted summary of obs::MetricsRegistry nanosecond
 *  histograms (per-shard copies of one metric), in milliseconds.
 *  Percentiles of several histograms are averaged by count. */
struct HistSummary
{
    double count = 0;
    double meanMs = 0;
    double p50Ms = 0;
    double p90Ms = 0;
};
HistSummary histSummary(const std::vector<std::string> &names);
void resetHistograms(const std::vector<std::string> &names);

/**
 * Process-level counters over a measured window: CPU utilization
 * (process CPU-seconds / (wall * nproc)), work-stealing executor
 * steals and jobs per op, and scratch-arena misses.
 */
class WindowProbe
{
  public:
    void begin();
    void end(std::map<std::string, double> &metrics, u64 ops) const;

  private:
    double cpu0_ = 0;
    u64 t0_ = 0;
    u64 steals0_ = 0;
    u64 jobs0_ = 0;
    u64 misses0_ = 0;
};

/** The backend.* kernel metrics on the active engine: batched forward
 *  NTTs at N = 1024 (32 limbs, a B=8 Set-I CMux step), 2048 (16
 *  limbs, a PIR fold row) and 32768 (16 limbs, a CKKS level-15
 *  ciphertext), and a 16-limb automorphism at 32768. */
void measureBackendKernels(std::map<std::string, double> &metrics,
                           u64 parentSpan);

/** Zipf(s = 1) popularity over @p n items as an inverse-CDF table. */
std::vector<double> zipfCdf(size_t n);
size_t sampleCdf(const std::vector<double> &cdf, std::mt19937_64 &rng);

// Workload entry points.
WorkloadResult runPbsTenants(const RunOptions &opt);
WorkloadResult runPirServe(const RunOptions &opt);
WorkloadResult runCkksHybrid(const RunOptions &opt);

/** Number of set-ups timed per run (median reported as setup_s). */
constexpr int kSetups = 3;

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
