/**
 * @file
 * Self-test of the benchmark harness: an op that never completes is
 * counted as attempted and failed (so failed_frac > 0) and marks the
 * run hung, while ops that complete keep their verified count; seeded
 * caller streams repeat; quantiles interpolate. Exits 0 on success.
 */

#include <cstdio>
#include <cstdlib>
#include <future>

#include "harness.h"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) {
        ++failures;
    }
}

} // namespace

int
main()
{
    // Caller 1's third op blocks forever on a reply that never comes
    // (the shape of a deadlocked server); caller 0 keeps completing
    // verified ops until the window closes.
    std::promise<void> never;
    std::shared_future<void> reply = never.get_future().share();
    OpFn op = [reply](size_t caller, std::mt19937_64 &) {
        static thread_local int calls = 0;
        ++calls;
        if (caller == 1 && calls == 3) {
            reply.wait();
        }
        u64 t0 = nowNs();
        while (msSince(t0) < 2.0) {
        }
        OpResult r;
        r.latencyMs = msSince(t0);
        r.ok = true;
        return r;
    };
    LoopStats st = runClosedLoop("self-test", 2, 0.3, 0.3, 42, op);
    check(st.hung, "watchdog marks the run hung");
    check(st.unfinished == 1, "exactly one op is unfinished");
    check(st.failed == st.unfinished,
          "the unfinished op is counted as failed");
    check(st.attempted == st.verified + st.failed,
          "attempted = verified + failed");
    check(st.failedFrac() > 0, "failed_frac > 0");
    check(st.verified > 10, "the healthy caller kept completing ops");

    // A wrong result and a throwing op both count as failed, not hung.
    OpFn bad = [](size_t caller, std::mt19937_64 &) -> OpResult {
        if (caller == 0) {
            throw std::runtime_error("rejected");
        }
        OpResult r;
        r.ok = false;
        return r;
    };
    LoopStats b = runClosedLoop("self-test-bad", 2, 0.05, 1.0, 7, bad);
    check(!b.hung, "failing ops do not mark the run hung");
    check(b.failed == b.attempted && b.verified == 0,
          "wrong and throwing ops are failed");

    // Seeded caller streams repeat.
    std::vector<u64> first, second;
    for (std::vector<u64> *dst : {&first, &second}) {
        std::mt19937_64 rng(deriveSeed(9, "caller0"));
        for (int i = 0; i < 4; ++i) {
            dst->push_back(rng());
        }
    }
    check(first == second, "derived seeds are deterministic");
    check(deriveSeed(9, "a") != deriveSeed(9, "b") &&
              deriveSeed(9, "a") != deriveSeed(10, "a"),
          "derived seeds differ by tag and seed");

    check(quantile({1, 2, 3, 4}, 0.5) == 2.5, "median interpolates");
    // Two of six slices disturbed (latency 100 instead of 1): the
    // sliced p90 stays at the undisturbed slices' value.
    std::vector<double> lat, start;
    for (int i = 0; i < 60; ++i) {
        start.push_back(i * 0.5);
        lat.push_back(i < 20 ? 100.0 : 1.0);
    }
    check(quantile(lat, 0.9) == 100.0 &&
              slicedQuantile(lat, start, 30.0, 6, 0.9) == 1.0,
          "sliced p90 ignores a disturbed minority of slices");
    check(quantile({5}, 0.9) == 5, "single-sample quantile");

    std::printf("%s\n", failures == 0 ? "harness self-test passed"
                                      : "harness self-test FAILED");
    std::fflush(stdout);
    // The abandoned caller is still blocked; end without unwinding.
    std::_Exit(failures == 0 ? 0 : 1);
}
