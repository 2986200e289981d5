/**
 * @file
 * Shared pieces of the host-time benchmark: run options, the result
 * record every workload fills, a log-linear latency histogram, host
 * clocks and resource usage, and the canonical metric lists (names
 * and units must match BENCHMARK.json at the repository root).
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Command-line options of one workload run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Flip one observed op result, to prove the checks can fail. */
    bool injectFault = false;
    /** Directory the traced run writes its Chrome trace into. */
    std::string traceDir = ".bench_build/traces";
};

/** Host steady-clock time in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count());
}

/** Process CPU time (all threads), user and system, in ns. */
struct CpuTimes
{
    std::uint64_t userNs = 0;
    std::uint64_t sysNs = 0;
    std::uint64_t total() const { return userNs + sysNs; }
};
CpuTimes processCpu();

/** CPU time of the calling thread, in ns. */
std::uint64_t threadCpuNs();

/** Peak resident set size of the process, in MiB. */
double peakRssMb();


/**
 * Log-linear latency histogram over nanoseconds: exact below 128 ns,
 * then 64 sub-buckets per power of two (under 1.6 % relative error).
 */
class LatHist
{
  public:
    static constexpr unsigned kSub = 64;
    static constexpr unsigned kMaxLog2 = 46;  //!< clamp: ~20 hours
    static constexpr unsigned kBuckets = (kMaxLog2 - 4) * kSub;

    void
    record(std::uint64_t ns)
    {
        ++counts_[index(ns)];
        ++n_;
    }

    void merge(const LatHist &o);

    std::uint64_t count() const { return n_; }

    /** Value at quantile @p q in [0, 1] (bucket midpoint), in ns. */
    double quantile(double q) const;

  private:
    static unsigned index(std::uint64_t v);
    static double midpoint(unsigned idx);

    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t n_ = 0;
};

/**
 * Highest of the standard tail quantiles (0.99, 0.95, 0.9, 0.5) that
 * leaves at least 10 samples beyond it in @p n samples; 0.5 when none
 * does.
 */
double tailQuantile(std::uint64_t n);

/** Name of quantile @p q as a percentile label ("p99"). */
std::string quantileLabel(double q);

/** @p num / @p den, or 0 when @p den is not positive. */
inline double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * One histogram per fixed-length time window of the measured phase.
 * End-to-end latencies are reported as the median over windows of
 * each window's quantile, which keeps one stalled window (another
 * tenant on the host) from deciding a run.
 */
class WindowedLat
{
  public:
    WindowedLat() = default;
    WindowedLat(std::uint64_t start_ns, std::uint64_t window_ns,
                unsigned windows);

    /** Record @p ns for an event at time @p at (ignored outside). */
    void
    record(std::uint64_t at, std::uint64_t ns)
    {
        if (at < start_)
            return;
        std::uint64_t w = (at - start_) / window_;
        if (w < wins_.size())
            wins_[w].record(ns);
    }

    void merge(const WindowedLat &o);

    std::uint64_t count() const;
    LatHist total() const;
    unsigned windows() const { return unsigned(wins_.size()); }
    const LatHist &window(unsigned i) const { return wins_[i]; }

    /** Median over windows of each window's quantile @p q, in ns. */
    double medianOfWindows(double q) const;

  private:
    std::uint64_t start_ = 0;
    std::uint64_t window_ = 1;
    std::vector<LatHist> wins_;
};

/** One named number with its unit and a free-text note. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
};

/** One output check: whether it ran, and its verdict. */
struct Check
{
    std::string name;
    bool applied = false;
    bool ok = true;
    std::string detail;
};

/** Everything one workload run reports. */
struct WorkloadResult
{
    std::string workload;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<Check> checks;
    /** Run context beyond the host's: thread/worker counts, sizes. */
    std::vector<std::pair<std::string, std::string>> context;

    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        metrics.push_back({name, value, unit, note});
    }

    /**
     * Record an applied check. A failure adds @p failed_ops to
     * `failed`: the ops it proves wrong, or 1 when a whole-run check
     * cannot say which op was wrong.
     */
    void check(const std::string &name, bool ok, const std::string &detail,
               std::uint64_t failed_ops = 1);
    void skip(const std::string &name, const std::string &why);

    bool
    correct() const
    {
        if (failed != 0)
            return false;
        for (const Check &c : checks) {
            if (c.applied && !c.ok)
                return false;
        }
        return true;
    }
};

/** (name, unit) of every end-to-end metric (untraced runs). */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

/** (name, unit) of every per-layer metric (traced runs). */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/** Number of measurement windows of @p seconds of measured time. */
unsigned windowsFor(double seconds, double window_s);

// ---- workloads ----

WorkloadResult runStmDisjoint(const Options &opt);
WorkloadResult runStmContended(const Options &opt);
WorkloadResult runServePool(const Options &opt);
WorkloadResult runSimHastm(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
