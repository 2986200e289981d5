/**
 * @file
 * stm-disjoint and stm-contended: a closed loop on four host threads
 * (the calling thread plus three spawned ones) over the default native
 * snapshot STM and a transactional hash table. Each thread issues its
 * next op as soon as the previous one returns.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "common.hh"
#include "harness/ds_ops.hh"
#include "harness/oracle.hh"
#include "native/native_session.hh"
#include "sim/rng.hh"
#include "traced_exec.hh"

namespace perfbench {

namespace {

using hastm::OpKind;

constexpr unsigned kThreads = 4;
constexpr unsigned kSetups = 9;
constexpr double kWindowS = 0.5;
/** One op in this many is kept as spans in the traced run. */
constexpr std::uint64_t kSampleEvery = 64;

struct StmShape
{
    const char *name;
    unsigned buckets;
    std::uint64_t keyRange;
    std::uint64_t initial;
    unsigned insertPct;
    unsigned removePct;
    /** Each thread draws only keys that hash to its own buckets. */
    bool partitioned;
};

constexpr StmShape kDisjoint{"stm-disjoint", 1024, 16384, 8192, 10, 10, true};
constexpr StmShape kContended{"stm-contended", 16, 256, 128, 40, 40, false};

/** Phase boundaries of the measured loop, in steady-clock ns. */
struct Phases
{
    std::uint64_t measureStart = 0;  //!< warm-up ends
    std::uint64_t tracedStart = 0;   //!< traced ops from here (trace run)
    std::uint64_t end = 0;
    unsigned windows = 1;
    std::uint64_t windowNs = 1;
};

/** One host thread's loop state; written by its owner only. */
struct alignas(64) ThreadState
{
    hastm::Rng rng;
    /** Residues (key mod buckets) this thread may draw. */
    std::vector<std::uint64_t> residues;
    /** Predicted membership of this thread's keys (partitioned). */
    std::vector<std::uint8_t> shadow;

    std::uint64_t attempted = 0;
    std::uint64_t wrong = 0;
    std::uint64_t insertsOk = 0;
    std::uint64_t removesOk = 0;
    std::uint64_t injected = 0;

    std::uint64_t untracedOps = 0;
    std::uint64_t tracedOps = 0;
    WindowedLat lat;
    std::vector<std::uint64_t> winOps;
    hastm::TmStats atMeasure, atEnd;
    /** Process CPU at the measured loop's start and end (thread 0). */
    CpuTimes cpuAtMeasure, cpuAtEnd;
    LayerAgg agg;
    SpanLog spans;
};

/**
 * One set-up of the workload: session, populated table, and the three
 * spawned threads parked on the start flag. Setting it up is what
 * setup_s times.
 */
class StmRig
{
  public:
    StmRig(const StmShape &shape, const Options &opt)
        : shape_(shape), opt_(opt)
    {
        hastm::NativeSessionConfig cfg;
        cfg.numThreads = kThreads;
        session_ = std::make_unique<hastm::NativeSession>(cfg);
        populate();
        for (unsigned t = 1; t < kThreads; ++t)
            threads_.emplace_back([this, t] { body(t); });
        while (ready_.load(std::memory_order_acquire) != kThreads - 1)
            std::this_thread::yield();
    }

    ~StmRig()
    {
        if (go_.load() == kParked)
            go_.store(kExit, std::memory_order_release);
        for (std::thread &t : threads_)
            t.join();
    }

    StmRig(const StmRig &) = delete;
    StmRig &operator=(const StmRig &) = delete;

    /** Run the loop on every thread (this one is thread 0); joins. */
    void
    run(const Phases &p)
    {
        phases_ = p;
        go_.store(kRun, std::memory_order_release);
        body(0);
        for (std::thread &t : threads_)
            t.join();
        threads_.clear();
    }

    hastm::NativeSession &session() { return *session_; }
    hastm::DsOps &ops() { return ds_.ops; }
    ThreadState &state(unsigned t) { return states_[t]; }
    std::uint64_t populated() const { return populated_; }

  private:
    static constexpr int kParked = 0, kRun = 1, kExit = 2;

    void
    populate()
    {
        hastm::TmExec &t0 = session_->thread(0);
        ds_ = hastm::makeDs(t0, hastm::WorkloadKind::HashTable,
                            shape_.buckets);
        // Exactly half of the keys, chosen by a seeded shuffle.
        hastm::Rng rng(opt_.seed * 7919 + 1);
        std::vector<std::uint64_t> keys(shape_.keyRange);
        for (std::uint64_t k = 0; k < keys.size(); ++k)
            keys[k] = k;
        for (std::uint64_t k = keys.size() - 1; k > 0; --k)
            std::swap(keys[k], keys[rng.range(k + 1)]);
        for (unsigned t = 0; t < kThreads; ++t) {
            states_[t].rng = hastm::Rng(opt_.seed * 104729 + t + 1);
            states_[t].shadow.assign(shape_.keyRange, 0);
        }
        for (std::uint64_t i = 0; i < shape_.initial; ++i) {
            ds_.ops.insert(t0, keys[i], keys[i] * 3 + 1);
            for (ThreadState &s : states_)
                s.shadow[keys[i]] = 1;
        }
        populated_ = shape_.initial;
        session_->resetStats();

        // Key k lands in bucket (k * phi) % buckets, a bijection on
        // k % buckets; thread t owns buckets [t, t+1) * buckets / 4.
        for (std::uint64_t r = 0; r < shape_.buckets; ++r) {
            std::uint64_t b = (r * 0x9e3779b97f4a7c15ull) % shape_.buckets;
            unsigned owner =
                unsigned(b * kThreads / shape_.buckets);
            for (unsigned t = 0; t < kThreads; ++t) {
                if (!shape_.partitioned || t == owner)
                    states_[t].residues.push_back(r);
            }
        }
    }

    std::uint64_t
    drawKey(ThreadState &s)
    {
        std::uint64_t r = s.residues[s.rng.range(s.residues.size())];
        return s.rng.range(shape_.keyRange / shape_.buckets) *
                   shape_.buckets + r;
    }

    void body(unsigned tid);

    const StmShape &shape_;
    const Options &opt_;
    std::unique_ptr<hastm::NativeSession> session_;
    hastm::DsInstance ds_;
    std::uint64_t populated_ = 0;
    ThreadState states_[kThreads];
    Phases phases_;
    std::atomic<int> go_{kParked};
    std::atomic<unsigned> ready_{0};
    std::vector<std::thread> threads_;
};

void
StmRig::body(unsigned tid)
{
    if (tid != 0) {
        ready_.fetch_add(1, std::memory_order_acq_rel);
        int g;
        while ((g = go_.load(std::memory_order_acquire)) == kParked)
            std::this_thread::yield();
        if (g == kExit)
            return;
    }
    ThreadState &s = states_[tid];
    hastm::TmExec &raw = session_->thread(tid);
    TracedExec traced(raw, s.spans, s.agg);
    const Phases p = phases_;
    s.lat = WindowedLat(p.measureStart, p.windowNs, p.windows);
    s.winOps.assign(p.windows, 0);
    bool measuring = false;
    // A wrong result is injected into one update op of thread 0.
    bool inject = opt_.injectFault && tid == 0;

    for (std::uint64_t op = 0;; ++op) {
        std::uint64_t key = drawKey(s);
        std::uint64_t dice = s.rng.range(100);
        OpKind kind = dice < shape_.insertPct ? OpKind::Insert
                      : dice < shape_.insertPct + shape_.removePct
                          ? OpKind::Remove
                          : OpKind::Contains;
        std::uint64_t val = s.rng.next() >> 16;

        std::uint64_t t0 = nowNs();
        if (t0 >= p.end)
            break;
        if (!measuring && t0 >= p.measureStart) {
            measuring = true;
            s.atMeasure = raw.stats();
            if (tid == 0)
                s.cpuAtMeasure = processCpu();
        }
        bool traced_op = opt_.trace && t0 >= p.tracedStart;
        hastm::TmExec &t = traced_op ? static_cast<hastm::TmExec &>(traced)
                                     : raw;
        std::int32_t op_span = -1;
        if (traced_op) {
            bool sampled = op % kSampleEvery == 0;
            if (sampled)
                op_span = s.spans.add(SpanName::Op, op, t0, t0, -1);
            traced.nextOp(op, sampled, op_span);
        }

        bool res = false;
        switch (kind) {
          case OpKind::Insert: res = ds_.ops.insert(t, key, val); break;
          case OpKind::Remove: res = ds_.ops.remove(t, key); break;
          case OpKind::Contains: res = ds_.ops.contains(t, key); break;
        }
        std::uint64_t t1 = nowNs();
        s.spans.close(op_span, t1, SpanName::Op);

        if (inject && kind != OpKind::Contains && s.attempted >= 100) {
            res = !res;
            inject = false;
            ++s.injected;
        }
        ++s.attempted;
        if (kind == OpKind::Insert)
            s.insertsOk += res;
        else if (kind == OpKind::Remove)
            s.removesOk += res;
        if (shape_.partitioned) {
            bool present = s.shadow[key] != 0;
            bool expect = kind == OpKind::Insert ? !present : present;
            s.wrong += res != expect;
            if (kind != OpKind::Contains)
                s.shadow[key] = kind == OpKind::Insert;
        }

        if (!measuring)
            continue;
        if (traced_op) {
            ++s.tracedOps;
        } else {
            ++s.untracedOps;
            s.lat.record(t0, t1 - t0);
            std::uint64_t w = (t0 - p.measureStart) / p.windowNs;
            if (w < s.winOps.size())
                ++s.winOps[w];
        }
    }
    s.atEnd = raw.stats();
    if (tid == 0)
        s.cpuAtEnd = processCpu();
}

/** Counter deltas over the measured phase, summed over threads. */
hastm::TmStats
measuredStats(StmRig &rig)
{
    hastm::TmStats d;
    for (unsigned t = 0; t < kThreads; ++t) {
        const hastm::TmStats &a = rig.state(t).atMeasure;
        const hastm::TmStats &b = rig.state(t).atEnd;
        d.commits += b.commits - a.commits;
        d.aborts += b.aborts - a.aborts;
        d.rdBarriers += b.rdBarriers - a.rdBarriers;
        d.wrBarriers += b.wrBarriers - a.wrBarriers;
        d.extensions += b.extensions - a.extensions;
        d.extensionFailures += b.extensionFailures - a.extensionFailures;
        d.irrevocableEntries += b.irrevocableEntries - a.irrevocableEntries;
        d.clockBumpsSkipped += b.clockBumpsSkipped - a.clockBumpsSkipped;
    }
    return d;
}

WorkloadResult
runStm(const StmShape &shape, const Options &opt)
{
    WorkloadResult r;
    r.workload = shape.name;
    r.context = {
        {"threads", std::to_string(kThreads)},
        {"buckets", std::to_string(shape.buckets)},
        {"key_range", std::to_string(shape.keyRange)},
        {"initial_size", std::to_string(shape.initial)},
        {"mix", "insert " + std::to_string(shape.insertPct) + "%, remove " +
                    std::to_string(shape.removePct) + "%"},
        {"keys", shape.partitioned ? "per-thread bucket partition"
                                   : "uniform over all keys"},
    };

    // ---- set-up, repeated; the last rig is the one measured ----
    std::vector<double> setups;
    std::unique_ptr<StmRig> rig;
    for (unsigned i = 0; i < kSetups; ++i) {
        rig.reset();
        std::uint64_t s = nowNs();
        rig = std::make_unique<StmRig>(shape, opt);
        setups.push_back(double(nowNs() - s) * 1e-9);
    }

    // ---- measured loop ----
    Phases p;
    double warm = std::min(1.0, 0.1 * opt.seconds);
    double measured = opt.seconds - warm;
    std::uint64_t start = nowNs();
    p.measureStart = start + std::uint64_t(warm * 1e9);
    double untraced_s = opt.trace ? 0.4 * measured : measured;
    p.windows = windowsFor(untraced_s, kWindowS);
    p.windowNs = std::uint64_t(untraced_s / p.windows * 1e9);
    p.tracedStart = p.measureStart + p.windows * p.windowNs;
    p.end = opt.trace ? start + std::uint64_t(opt.seconds * 1e9)
                      : p.tracedStart;

    rig->run(p);
    const CpuTimes &cpu0 = rig->state(0).cpuAtMeasure;
    const CpuTimes &cpu1 = rig->state(0).cpuAtEnd;

    // ---- aggregate ----
    WindowedLat lat;
    std::vector<double> win_rate(p.windows, 0.0);
    std::uint64_t untraced = 0, traced_ops = 0, attempted = 0, wrong = 0;
    std::uint64_t ins = 0, rem = 0, injected = 0;
    LayerAgg agg;
    std::vector<const SpanLog *> logs;
    for (unsigned t = 0; t < kThreads; ++t) {
        ThreadState &s = rig->state(t);
        lat.merge(s.lat);
        for (unsigned w = 0; w < p.windows; ++w)
            win_rate[w] += double(s.winOps[w]) / (double(p.windowNs) * 1e-9);
        untraced += s.untracedOps;
        traced_ops += s.tracedOps;
        attempted += s.attempted;
        wrong += s.wrong;
        ins += s.insertsOk;
        rem += s.removesOk;
        injected += s.injected;
        agg.merge(s.agg);
        logs.push_back(&s.spans);
    }
    r.attempted = attempted;
    std::string rates;
    for (double x : win_rate)
        rates += std::to_string(int(x / 1000)) + "k ";
    r.context.push_back({"window_ops_per_s", rates});

    // ---- output checks ----
    hastm::NativeSession &sess = rig->session();
    hastm::TmExec &t0 = sess.thread(0);
    if (shape.partitioned) {
        r.check("shadow_set", wrong == 0,
                std::to_string(wrong) + " of " + std::to_string(attempted) +
                    " op results differ from the per-thread shadow set",
                wrong);
    } else {
        r.skip("shadow_set", "threads share keys; no per-op prediction");
    }
    std::uint64_t size = rig->ops().size(t0);
    std::uint64_t expect = rig->populated() + ins - rem;
    r.check("size_identity", size == expect,
            "final size " + std::to_string(size) + ", initial + inserts - "
            "removes = " + std::to_string(expect));
    r.check("structure_invariant", rig->ops().invariant(t0),
            "hash table invariant");
    std::string diag;
    for (unsigned t = 0; t < kThreads; ++t) {
        std::string d = sess.thread(t).invariantReport();
        if (!d.empty())
            diag += "thread " + std::to_string(t) + ": " + d + "; ";
    }
    r.check("native_invariants", diag.empty(),
            diag.empty() ? "NativeThread::invariantReport clean" : diag);
    r.check("gate_quiescent", sess.runtime().gate().quiescent(),
            "NativeGate::quiescent after the join");
    if (opt.injectFault)
        r.context.push_back({"injected_wrong_results",
                             std::to_string(injected)});

    // ---- metrics ----
    double measured_s = double(p.windows * p.windowNs) * 1e-9;
    if (!opt.trace) {
        double q = tailQuantile(lat.total().count() / p.windows);
        r.add("setup_s", median(setups), "s",
              "median of " + std::to_string(kSetups) + " set-ups");
        r.add("ops_per_s", median(win_rate), "1/s",
              "median of " + std::to_string(p.windows) + " windows; mean " +
                  std::to_string(double(untraced) / measured_s));
        r.add("op_p50_us", lat.medianOfWindows(0.5) / 1000, "us",
              "median over windows; n=" + std::to_string(lat.count()));
        r.add("op_p99_us", lat.medianOfWindows(q) / 1000, "us",
              quantileLabel(q) + ", median over windows; n=" +
                  std::to_string(lat.count()));
        r.add("cpu_us_per_op",
              double(cpu1.total() - cpu0.total()) / 1000 /
                  double(std::max<std::uint64_t>(1, untraced)),
              "us", "getrusage user+sys over the measured loop");
        r.add("peak_rss_mb", peakRssMb(), "MB");
        return r;
    }

    hastm::TmStats d = measuredStats(*rig);
    double ops = double(untraced + traced_ops);
    double traced_s = double(p.end - p.tracedStart) * 1e-9;
    double untraced_rate = double(untraced) / measured_s;
    double traced_rate = double(traced_ops) / traced_s;
    r.add("bench.trace_overhead", ratio(untraced_rate, traced_rate), "ratio",
          "untraced " + std::to_string(untraced_rate) + " ops/s, traced " +
              std::to_string(traced_rate) + " ops/s");
    addTracedLayers(r, agg, d, ops, opt,
                    shape.name + std::string("-seed") + std::to_string(opt.seed),
                    logs);
    return r;
}

} // namespace

WorkloadResult
runStmDisjoint(const Options &opt)
{
    return runStm(kDisjoint, opt);
}

WorkloadResult
runStmContended(const Options &opt)
{
    return runStm(kContended, opt);
}

} // namespace perfbench
