/**
 * @file
 * Tracing from outside the program: a TmExec decorator that forwards
 * every call to the thread it wraps and timestamps it, an in-memory
 * span log, and the Chrome-trace writer.
 *
 * The decorator forwards atomic() to the inner thread with the body
 * wrapped, so the inner scheme keeps its own retry loop, stats,
 * watchdog and serial gate. From the wrapped body's entries and exits
 * it splits one atomic() call into:
 *
 *   begin   atomic() entry -> first body entry (gate, epoch, snapshot)
 *   retry   first body entry -> last body entry (failed attempts,
 *           rollback, backoff)
 *   body    last body entry -> last body exit (workload code plus the
 *           data calls, which are timed on their own)
 *   commit  last body exit -> atomic() return
 *
 * Aggregates cover every op; spans are kept only for sampled ops, up
 * to a per-thread cap, so memory stays bounded on long runs.
 */

#ifndef PERFBENCH_TRACED_EXEC_HH
#define PERFBENCH_TRACED_EXEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"
#include "stm/tm_iface.hh"

namespace perfbench {

/** Names of the spans the benchmark records. */
enum class SpanName : std::uint8_t {
    Op,        //!< one data-structure call (closed loop)
    Request,   //!< one request, due time -> completion (open loop)
    Submit,    //!< WorkerPool::submit
    Handoff,   //!< submit return -> ExecFn entry
    Exec,      //!< the pool's ExecFn
    Collect,   //!< WorkerPool::collect
    Atomic,    //!< TmExec::atomic
    Attempt,   //!< one body attempt that aborted (+ rollback, backoff)
    Body,      //!< the committing body attempt
    Read,      //!< readWord / readField
    Write,     //!< writeWord / writeField
    SimRun,    //!< one runDataStructure call
};

const char *spanName(SpanName n);

/**
 * One closed interval. The parent is span `parent` of log
 * `parentLog` (-1: this span's own log); parent -1 marks a root.
 */
struct Span
{
    std::uint64_t id;     //!< op / request id shared by its spans
    std::uint64_t start;
    std::uint64_t end;
    std::int32_t parent;
    std::int16_t parentLog;
    SpanName name;
};

/** One thread's spans (owner-written, read after the join). */
class alignas(64) SpanLog
{
  public:
    explicit SpanLog(std::size_t cap = 20'000) : cap_(cap) {}

    /** Append a span; returns its index, or -1 once the cap is hit. */
    std::int32_t
    add(SpanName name, std::uint64_t id, std::uint64_t start,
        std::uint64_t end, std::int32_t parent, std::int16_t parent_log = -1)
    {
        if (spans_.size() >= cap_)
            return -1;
        spans_.push_back({id, start, end, parent, parent_log, name});
        return std::int32_t(spans_.size() - 1);
    }

    /** Set the end (and final name) of span @p idx (-1: no-op). */
    void
    close(std::int32_t idx, std::uint64_t end, SpanName name)
    {
        if (idx < 0)
            return;
        spans_[std::size_t(idx)].end = end;
        spans_[std::size_t(idx)].name = name;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::size_t cap_;
    std::vector<Span> spans_;
};

/** Per-thread sums over every traced atomic() call. */
struct alignas(64) LayerAgg
{
    std::uint64_t ops = 0;
    std::uint64_t attempts = 0;
    std::uint64_t beginNs = 0;
    std::uint64_t retryNs = 0;
    std::uint64_t bodyNs = 0;         //!< committing attempts only
    std::uint64_t bodyBarrierNs = 0;  //!< data calls inside those
    std::uint64_t commitNs = 0;
    std::uint64_t rdNs = 0, rdCalls = 0;
    std::uint64_t wrNs = 0, wrCalls = 0;

    void merge(const LayerAgg &o);
};

/**
 * Forwarding, timestamping TmExec. One per host thread, wrapping that
 * thread's NativeThread; never shared between threads.
 */
class TracedExec final : public hastm::TmExec
{
  public:
    TracedExec(hastm::TmExec &inner, SpanLog &log, LayerAgg &agg)
        : inner_(inner), log_(log), agg_(agg)
    {
    }

    /** Attribute the next atomic() to op @p id under span @p parent;
     *  spans are recorded only when @p sampled. */
    void
    nextOp(std::uint64_t id, bool sampled, std::int32_t parent)
    {
        opId_ = id;
        sampled_ = sampled;
        parent_ = parent;
    }

    bool atomic(const std::function<void()> &fn) override;

    std::uint64_t readWord(hastm::Addr a) override;
    void writeWord(hastm::Addr a, std::uint64_t v,
                   bool is_ptr = false) override;
    std::uint64_t readField(hastm::Addr obj, unsigned off) override;
    void writeField(hastm::Addr obj, unsigned off, std::uint64_t v,
                    bool is_ptr = false) override;

    hastm::Addr
    txAlloc(std::size_t field_bytes, std::uint32_t ptr_mask = 0) override
    {
        return inner_.txAlloc(field_bytes, ptr_mask);
    }
    void txFree(hastm::Addr obj) override { inner_.txFree(obj); }
    void validateNow() override { inner_.validateNow(); }
    bool inTx() const override { return inner_.inTx(); }
    bool inIrrevocable() const override { return inner_.inIrrevocable(); }
    void simInstr(unsigned n) override { inner_.simInstr(n); }
    void simInstrIlp(unsigned n) override { inner_.simInstrIlp(n); }
    const hastm::TmStats &stats() const override { return inner_.stats(); }
    void resetStats() override { inner_.resetStats(); }
    void setSite(std::uint32_t site) override { inner_.setSite(site); }
    std::uint32_t site() const override { return inner_.site(); }

  protected:
    // The retry loop runs in the inner thread; these are never called.
    void begin() override { unreachable(); }
    bool commit() override { unreachable(); }
    void rollback() override { unreachable(); }
    void onConflict(unsigned) override { unreachable(); }
    void waitForChange(unsigned) override { unreachable(); }

  private:
    [[noreturn]] static void unreachable();

    void
    noteBarrier(SpanName name, std::uint64_t s, std::uint64_t e)
    {
        barrierNs_ += e - s;
        if (sampled_)
            log_.add(name, opId_, s, e, bodySpan_);
    }

    hastm::TmExec &inner_;
    SpanLog &log_;
    LayerAgg &agg_;
    std::uint64_t opId_ = 0;
    bool sampled_ = false;
    std::int32_t parent_ = -1;
    std::int32_t bodySpan_ = -1;
    std::uint64_t barrierNs_ = 0;
};

/** Mean cost of one nowNs() call on this host, in ns. */
double timerCostNs();

/**
 * Write every thread's spans as one Chrome trace_event file (one
 * "X" event per span, tid = log index, args: id and parent as
 * "log:index").
 * Returns the path written, or "" when the file could not be opened.
 */
std::string writeChromeTrace(const std::string &dir,
                             const std::string &stem,
                             const std::vector<const SpanLog *> &logs);

/** Self time of every span name over @p logs (duration minus the
 *  part its child spans cover), as (name, total ns, count). */
struct SelfTime
{
    SpanName name;
    std::uint64_t selfNs = 0;
    std::uint64_t count = 0;
};
std::vector<SelfTime> selfTimes(const std::vector<const SpanLog *> &logs);

/**
 * Add the native.* and workloads.* per-layer metrics and
 * bench.timer_ns to @p r: timings from the traced aggregates @p agg,
 * ratios from the counter deltas @p d over @p ops ops. Every traced
 * interval contains about one clock read, so per-call means have the
 * measured clock cost taken off (floored at 0). Also writes the
 * Chrome trace of @p logs as <stem>.json and lists per-span self
 * times in the report context.
 */
void addTracedLayers(WorkloadResult &r, const LayerAgg &agg,
                     const hastm::TmStats &d, double ops, const Options &opt,
                     const std::string &stem,
                     const std::vector<const SpanLog *> &logs);

} // namespace perfbench

#endif // PERFBENCH_TRACED_EXEC_HH
