/**
 * @file
 * perfbench: runs one workload (or all of them, in one process)
 * and prints a report — host context, which checks were applied or
 * skipped, every metric with its unit — followed by one JSON line:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * Untraced runs (--trace 0) report the end-to-end metrics, traced runs
 * (--trace 1) the per-layer ones. The exit code is 0 only when every
 * output check passed.
 *
 *   perfbench --workload stm-disjoint --seed 1 --seconds 10 --trace 0
 */

#include <cpuid.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>

#include "common.hh"

using namespace perfbench;

namespace {

const std::map<std::string, std::function<WorkloadResult(const Options &)>>
    kWorkloads = {
        {"stm-disjoint", runStmDisjoint},
        {"stm-contended", runStmContended},
        {"serve-pool", runServePool},
        {"sim-hastm", runSimHastm},
};
const char *const kOrder[] = {"stm-disjoint", "stm-contended", "serve-pool",
                              "sim-hastm"};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME|all --seed N --seconds S "
                 "--trace 0|1 [--inject-fault] [--trace-dir DIR] "
                 "[--commit ID]\n"
                 "workloads: stm-disjoint stm-contended serve-pool "
                 "sim-hastm\n",
                 why);
    std::exit(2);
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** CPU brand string from cpuid (no file outside the checkout read). */
std::string
cpuModel()
{
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
        if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string s(brand);
    std::size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
}

/**
 * Print @p r's report and return its metrics as JSON members in the
 * canonical order (missing per-layer metrics are layers this workload
 * does not exercise and read 0). Sets @p ok false on a bad metric set.
 */
std::string
report(const WorkloadResult &r, const Options &opt, bool &ok)
{
    std::printf("# workload %s seed=%llu seconds=%s trace=%d\n",
                r.workload.c_str(), (unsigned long long)opt.seed,
                num(opt.seconds).c_str(), opt.trace ? 1 : 0);
    for (const auto &[k, v] : r.context)
        std::printf("# context %s = %s\n", k.c_str(), v.c_str());
    for (const Check &c : r.checks) {
        std::printf("# check %s: %s%s — %s\n", c.name.c_str(),
                    c.applied ? "applied, " : "skipped",
                    c.applied ? (c.ok ? "ok" : "FAILED") : "",
                    c.detail.c_str());
    }
    std::printf("# attempted %llu failed %llu failed_ratio %s\n",
                (unsigned long long)r.attempted,
                (unsigned long long)r.failed,
                num(r.attempted ? double(r.failed) / double(r.attempted) : 0)
                    .c_str());

    const auto &names = opt.trace ? perLayerMetrics() : endToEndMetrics();
    std::string json;
    for (const auto &[name, unit] : names) {
        const Metric *m = nullptr;
        for (const Metric &x : r.metrics) {
            if (x.name == name)
                m = &x;
        }
        if (m && m->unit != unit) {
            std::fprintf(stderr, "perfbench: %s has unit %s, expected %s\n",
                         name.c_str(), m->unit.c_str(), unit.c_str());
            ok = false;
        }
        if (!m && !opt.trace) {
            std::fprintf(stderr, "perfbench: %s did not report %s\n",
                         r.workload.c_str(), name.c_str());
            ok = false;
        }
        double v = m ? m->value : 0.0;
        std::printf("# metric %-30s %14s %-8s %s\n", name.c_str(),
                    num(v).c_str(), unit.c_str(),
                    m ? m->note.c_str() : "(layer not exercised)");
        json += (json.empty() ? "" : ", ") + quoted(name) + ": {\"value\": " +
                num(v) + ", \"unit\": " + quoted(unit) + "}";
    }
    return json;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string commit = "unknown";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                opt.workload = value();
            } else if (a == "--seed") {
                opt.seed = std::stoull(value());
                have_seed = true;
            } else if (a == "--seconds") {
                opt.seconds = std::stod(value());
                have_seconds = true;
            } else if (a == "--trace") {
                std::string v = value();
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                opt.trace = v == "1";
                have_trace = true;
            } else if (a == "--inject-fault") {
                opt.injectFault = true;
            } else if (a == "--trace-dir") {
                opt.traceDir = value();
            } else if (a == "--commit") {
                commit = value();
            } else {
                usage(("unknown argument " + a).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace || opt.workload.empty())
        usage("--workload, --seed, --seconds and --trace are required");
    if (!(opt.seconds >= 1.0 && opt.seconds <= 120.0))
        usage("--seconds must be within [1, 120]");

    std::vector<std::string> names;
    if (opt.workload == "all") {
        names.assign(std::begin(kOrder), std::end(kOrder));
    } else if (kWorkloads.count(opt.workload)) {
        names.push_back(opt.workload);
    } else {
        usage(("unknown workload " + opt.workload).c_str());
    }

    std::printf("# perfbench nproc=%ld cpu=%s build=%s commit=%s seed=%llu "
                "inject_fault=%d\n",
                sysconf(_SC_NPROCESSORS_ONLN), quoted(cpuModel()).c_str(),
                PERFBENCH_BUILD_TYPE, commit.c_str(),
                (unsigned long long)opt.seed, opt.injectFault ? 1 : 0);

    bool ok = true, correct = true;
    std::uint64_t attempted = 0, failed = 0;
    std::string metrics;
    for (const std::string &name : names) {
        Options o = opt;
        o.workload = name;
        WorkloadResult r = kWorkloads.at(name)(o);
        std::string m = report(r, o, ok);
        correct = correct && r.correct();
        attempted += r.attempted;
        failed += r.failed;
        if (names.size() == 1) {
            metrics = m;
        } else {
            metrics += (metrics.empty() ? "" : ", ") + quoted(name) +
                       ": {" + m + "}";
        }
        std::fflush(stdout);
    }
    if (!ok) {
        std::fprintf(stderr, "perfbench: metric set incomplete\n");
        return 2;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed, metrics.c_str());
    return correct ? 0 : 1;
}
