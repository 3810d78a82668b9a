/**
 * @file
 * The repository benchmark program:
 *
 *   trinity_perfbench --workload <pbs-tenants|pir-serve|ckks-hybrid>
 *                     --seed <n> --seconds <s> --trace <0|1>
 *                     [--trace-out <chrome-trace.json>]
 *
 * Untraced runs (--trace 0) report the end-to-end metrics; traced
 * runs (--trace 1) report the per-layer metrics and a per-layer
 * self-time table. The last stdout line is the JSON result. Exit
 * status: 0 on a verified run, 1 on a wrong result, 2 on a usage or
 * environment error, 3 when the watchdog abandoned a hung run.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: trinity_perfbench --workload "
                 "<pbs-tenants|pir-serve|ckks-hybrid> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
                 msg);
    std::exit(2);
}

u64
parseU64(const char *flag, const char *v)
{
    char *end = nullptr;
    unsigned long long x = std::strtoull(v, &end, 10);
    if (*v == '\0' || *v == '-' || *end != '\0') {
        usage((std::string("bad value for ") + flag).c_str());
    }
    return x;
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + a).c_str());
        }
        const char *v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = parseU64("--seed", v);
        } else if (a == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(o.seconds > 0) || o.seconds > 600) {
                usage("--seconds must be in (0, 600]");
            }
        } else if (a == "--trace") {
            u64 t = parseU64("--trace", v);
            if (t > 1) {
                usage("--trace must be 0 or 1");
            }
            o.trace = t == 1;
        } else if (a == "--trace-out") {
            o.traceOut = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!haveWorkload) {
        usage("--workload is required");
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt = parseArgs(argc, argv);
    refuseWorkloadEnv();
    WorkloadResult res;
    if (opt.workload == "pbs-tenants") {
        res = runPbsTenants(opt);
    } else if (opt.workload == "pir-serve") {
        res = runPirServe(opt);
    } else if (opt.workload == "ckks-hybrid") {
        res = runCkksHybrid(opt);
    } else {
        usage(("unknown workload " + opt.workload).c_str());
    }
    if (opt.trace && !opt.traceOut.empty() &&
        !spanLog().write(opt.traceOut)) {
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     opt.traceOut.c_str());
    }
    report(opt, res);
    return res.correct ? 0 : 1;
}
