#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>

namespace perfbench {

namespace {

std::uint64_t
tvNs(const timeval &tv)
{
    return std::uint64_t(tv.tv_sec) * 1'000'000'000ull +
           std::uint64_t(tv.tv_usec) * 1000ull;
}

} // namespace

CpuTimes
processCpu()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {tvNs(ru.ru_utime), tvNs(ru.ru_stime)};
}

std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return std::uint64_t(ts.tv_sec) * 1'000'000'000ull +
           std::uint64_t(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- LatHist ----

unsigned
LatHist::index(std::uint64_t v)
{
    if (v < 2 * kSub)
        return unsigned(v);
    unsigned e = 63 - unsigned(__builtin_clzll(v));
    if (e > kMaxLog2) {
        e = kMaxLog2;
        v = (std::uint64_t(2) << kMaxLog2) - 1;
    }
    return (e - 6) * kSub + unsigned(v >> (e - 6));
}

double
LatHist::midpoint(unsigned idx)
{
    if (idx < 2 * kSub)
        return double(idx);
    unsigned e = idx / kSub + 5;
    std::uint64_t m = idx % kSub + kSub;
    double width = double(std::uint64_t(1) << (e - 6));
    return double(m) * width + width / 2;
}

void
LatHist::merge(const LatHist &o)
{
    for (unsigned i = 0; i < kBuckets; ++i)
        counts_[i] += o.counts_[i];
    n_ += o.n_;
}

double
LatHist::quantile(double q) const
{
    if (n_ == 0)
        return 0.0;
    std::uint64_t rank =
        std::max<std::uint64_t>(1, std::uint64_t(std::ceil(q * double(n_))));
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        seen += counts_[i];
        if (seen >= rank)
            return midpoint(i);
    }
    return midpoint(kBuckets - 1);
}

double
tailQuantile(std::uint64_t n)
{
    for (double q : {0.99, 0.95, 0.9}) {
        if (double(n) * (1.0 - q) >= 10.0)
            return q;
    }
    return 0.5;
}

std::string
quantileLabel(double q)
{
    std::string label = "p";
    label += std::to_string(int(std::lround(q * 100)));
    return label;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---- WindowedLat ----

WindowedLat::WindowedLat(std::uint64_t start_ns, std::uint64_t window_ns,
                         unsigned windows)
    : start_(start_ns), window_(std::max<std::uint64_t>(1, window_ns)),
      wins_(windows)
{
}

void
WindowedLat::merge(const WindowedLat &o)
{
    if (wins_.empty()) {
        *this = o;
        return;
    }
    for (std::size_t i = 0; i < wins_.size() && i < o.wins_.size(); ++i)
        wins_[i].merge(o.wins_[i]);
}

std::uint64_t
WindowedLat::count() const
{
    std::uint64_t n = 0;
    for (const LatHist &h : wins_)
        n += h.count();
    return n;
}

LatHist
WindowedLat::total() const
{
    LatHist all;
    for (const LatHist &h : wins_)
        all.merge(h);
    return all;
}

double
WindowedLat::medianOfWindows(double q) const
{
    std::vector<double> per;
    for (const LatHist &h : wins_) {
        if (h.count() != 0)
            per.push_back(h.quantile(q));
    }
    return median(std::move(per));
}

unsigned
windowsFor(double seconds, double window_s)
{
    return std::max(1u, unsigned(seconds / window_s));
}

// ---- WorkloadResult ----

void
WorkloadResult::check(const std::string &name, bool ok,
                      const std::string &detail, std::uint64_t failed_ops)
{
    checks.push_back({name, true, ok, detail});
    if (!ok)
        failed += failed_ops;
}

void
WorkloadResult::skip(const std::string &name, const std::string &why)
{
    checks.push_back({name, false, true, why});
}

// ---- canonical metric lists (keep in step with BENCHMARK.json) ----

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"setup_s", "s"},          {"ops_per_s", "1/s"},
        {"op_p50_us", "us"},       {"op_p99_us", "us"},
        {"cpu_us_per_op", "us"},   {"peak_rss_mb", "MB"},
    };
    return m;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"native.begin_ns", "ns"},
        {"native.commit_ns", "ns"},
        {"native.read_barrier_ns", "ns"},
        {"native.write_barrier_ns", "ns"},
        {"native.barriers_per_op", "count"},
        {"native.retry_ns_per_op", "ns"},
        {"native.abort_ratio", "ratio"},
        {"native.extension_fail_ratio", "ratio"},
        {"native.serial_per_mop", "1/Mop"},
        {"native.clock_skip_ratio", "ratio"},
        {"workloads.self_ns_per_op", "ns"},
        {"service.submit_ns", "ns"},
        {"service.handoff_p50_ns", "ns"},
        {"service.handoff_p99_ns", "ns"},
        {"service.exec_ns", "ns"},
        {"service.collect_ns", "ns"},
        {"service.worker_busy_ratio", "ratio"},
        {"service.max_backlog", "count"},
        {"service.sys_cpu_share", "ratio"},
        {"service.max_rps_at_slo", "1/s"},
        {"service.open_p50_us", "us"},
        {"service.open_p99_us", "us"},
        {"bench.gen_late_p99_us", "us"},
        {"bench.trace_overhead", "ratio"},
        {"bench.timer_ns", "ns"},
        {"sim.instructions", "count"},
        {"sim.makespan_cycles", "count"},
        {"sim.minstr_per_s", "Minstr/s"},
        {"mem.l1_hit_ratio", "ratio"},
        {"stm.phase_share.app", "ratio"},
        {"stm.phase_share.tx_begin", "ratio"},
        {"stm.phase_share.tls_access", "ratio"},
        {"stm.phase_share.rd_barrier", "ratio"},
        {"stm.phase_share.wr_barrier", "ratio"},
        {"stm.phase_share.validate", "ratio"},
        {"stm.phase_share.commit", "ratio"},
        {"stm.phase_share.abort", "ratio"},
        {"stm.phase_share.contention", "ratio"},
        {"hastm.sim_speedup", "ratio"},
    };
    return m;
}

} // namespace perfbench
