/**
 * @file
 * serve-pool: an open loop in host time through the service's
 * WorkerPool. The calling thread is the generator: it sends Poisson
 * arrivals at fixed offered rates into a 3-worker pool (generator plus
 * workers = 4 host threads). Each worker's ExecFn runs the body of
 * NativePoolRequestExecutor::runOne — the DsOps op on that worker's
 * NativeThread — and records the op for the replay oracle.
 *
 * Phases of one run: warm-up; the nominal rate (end-to-end latency,
 * from the time a request was due to its completion); saturation
 * (the generator submits back to back, bounded only by the pool's
 * channel: requests per host-second); and a ladder of offered rates
 * (the highest rate whose p99 meets the 1 ms limit without a growing
 * backlog).
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "backend/native_backend.hh"
#include "common.hh"
#include "harness/oracle.hh"
#include "service/arrival.hh"
#include "service/executor.hh"
#include "service/worker_pool.hh"
#include "sim/rng.hh"
#include "traced_exec.hh"

namespace perfbench {

namespace {

using hastm::OpKind;

constexpr unsigned kWorkers = 3;
constexpr unsigned kSetups = 9;
constexpr double kNominalRps = 20'000;
constexpr double kSloNs = 1e6;
constexpr double kWindowS = 0.5;
constexpr double kSatWindowS = 0.25;
constexpr double kLadder[] = {10'000, 20'000, 40'000, 60'000,
                              80'000, 100'000, 120'000};
constexpr std::uint64_t kSampleEvery = 16;
constexpr std::size_t kRing = 1 << 14;
/** Request whose recorded result the fault injection flips. */
constexpr std::uint64_t kInjectAt = 1000;

/** Per-request bookkeeping shared by the generator and one worker. */
struct alignas(64) Slot
{
    // Written by the generator before submit (the pool's channel
    // mutex orders them before the worker's reads).
    std::uint64_t due = 0;
    bool traced = false;
    bool sampled = false;
    std::int32_t requestSpan = -1;
    // Written by the worker, published by `done`.
    std::uint64_t execStart = 0;
    std::uint64_t execEnd = 0;
    std::atomic<std::uint8_t> done{0};
    // Generator only.
    std::uint64_t sent = 0;
    std::uint64_t submitRet = 0;
};

/** Generator-side tallies of one phase. */
struct PhaseStats
{
    std::uint64_t requests = 0;
    std::uint64_t badOutcomes = 0;
    WindowedLat lat;          //!< due -> completion (open loop)
    WindowedLat sentLat;      //!< submit call -> completion, any loop
    LatHist late;             //!< generator lateness at submit
    LatHist handoff;          //!< submit return -> ExecFn entry
    std::vector<std::uint64_t> winDone;  //!< completions per window
    std::uint64_t winStart = 0, winNs = 1;
    std::uint64_t submitNs = 0, collectNs = 0, execNs = 0;
    std::uint64_t maxBacklog = 0;
    std::uint64_t finalLateNs = 0;
    std::uint64_t elapsedNs = 0;
    CpuTimes cpu;             //!< process CPU over the phase
    std::uint64_t genCpuNs = 0;  //!< generator thread's share of it
};

class ServeRig
{
  public:
    explicit ServeRig(const Options &opt)
        : opt_(opt),
          backend_([] {
              hastm::NativeSessionConfig cfg;
              cfg.numThreads = kWorkers;
              return cfg;
          }()),
          keys_(256, 0.8)
    {
        // The service's own workload shape (bench/serve).
        workload_.workload = hastm::WorkloadKind::HashTable;
        workload_.hashBuckets = 64;
        workload_.initialSize = 128;
        workload_.keyRange = 256;
        workload_.seed = opt.seed;
        hastm::svcdetail::buildAndPopulate(backend_.thread(0), workload_,
                                           &ds_, &popLog_);
        backend_.resetStats();
        logs_.resize(kWorkers);
        for (unsigned w = 0; w < kWorkers; ++w) {
            logs_[w].reserve(1 << 16);
            spans_.emplace_back();
        }
        aggs_.resize(kWorkers);
        for (unsigned w = 0; w < kWorkers; ++w) {
            traced_.push_back(std::make_unique<TracedExec>(
                backend_.thread(w), spans_[w], aggs_[w]));
        }
        pool_ = std::make_unique<hastm::WorkerPool>(
            kWorkers, [this](unsigned w, const hastm::ServiceRequest &req) {
                return exec(w, req);
            });
    }

    ServeRig(const ServeRig &) = delete;
    ServeRig &operator=(const ServeRig &) = delete;

    /** Open loop at @p rate for @p seconds (rate 0: back to back). */
    PhaseStats runPhase(double rate, double seconds, bool traced,
                        double window_s, hastm::Rng &rng);

    /** Stop the pool (joins the workers). */
    void stop() { pool_->stop(); }

    hastm::NativeBackend &backend() { return backend_; }
    const std::vector<hastm::PoolWorkerStats> &
    workerStats() const { return pool_->workerStats(); }
    const std::vector<SpanLog> &workerSpans() const { return spans_; }
    const SpanLog &generatorSpans() const { return genSpans_; }
    LayerAgg
    layerAgg() const
    {
        LayerAgg a;
        for (const LayerAgg &x : aggs_)
            a.merge(x);
        return a;
    }
    std::uint64_t injected() const { return injected_.load(); }

    /**
     * Replay oracle over every op since the last checkpoint; call with
     * the pool drained. The log starts from the populate log the first
     * time and from the verified contents afterwards, so the logs can
     * be dropped and memory does not grow with the request count.
     */
    void checkpoint();

    std::uint64_t oracleRuns() const { return oracleRuns_; }
    std::uint64_t oracleFailures() const { return oracleFailures_; }
    const std::string &oracleDiag() const { return oracleDiag_; }

  private:
    hastm::ExecOutcome exec(unsigned w, const hastm::ServiceRequest &req);

    hastm::ServiceRequest
    makeRequest(hastm::Rng &rng, std::uint64_t seq)
    {
        hastm::ServiceRequest req;
        std::uint64_t dice = rng.range(100);
        req.op = dice < 10   ? OpKind::Insert
                 : dice < 20 ? OpKind::Remove
                             : OpKind::Contains;
        req.key = keys_.draw(rng);
        req.value = rng.next() >> 16;
        req.seq = seq;
        return req;
    }

    /** Collect the oldest outstanding request if it has finished (or
     *  always, when @p block). Returns false when nothing was taken. */
    bool collectOne(PhaseStats &ps, bool block);

    const Options &opt_;
    hastm::NativeBackend backend_;
    hastm::ZipfKeys keys_;
    hastm::ExecutorWorkload workload_;
    hastm::DsInstance ds_;
    std::vector<hastm::OpRecord> popLog_;
    /** Log w is written only by worker w; the generator reads it only
     *  with the pool drained (the channel mutex orders the two). */
    std::vector<std::vector<hastm::OpRecord>> logs_;
    /** Contents as of the last checkpoint (key -> value). */
    std::map<std::uint64_t, std::uint64_t> model_;
    bool checkpointed_ = false;
    std::uint64_t oracleRuns_ = 0;
    std::uint64_t oracleFailures_ = 0;
    std::string oracleDiag_;
    std::vector<SpanLog> spans_;
    std::vector<LayerAgg> aggs_;
    std::vector<std::unique_ptr<TracedExec>> traced_;
    SpanLog genSpans_{60'000};  //!< four spans per sampled request
    std::atomic<std::uint64_t> injected_{0};

    std::unique_ptr<Slot[]> ring_{new Slot[kRing]};
    std::uint64_t nextSeq_ = 0;
    struct Pending
    {
        std::uint64_t ticket;
        std::uint64_t seq;
    };
    std::deque<Pending> outstanding_;
    std::unique_ptr<hastm::WorkerPool> pool_;  //!< last: joins first
};

hastm::ExecOutcome
ServeRig::exec(unsigned w, const hastm::ServiceRequest &req)
{
    std::uint64_t s = nowNs();
    Slot &slot = ring_[req.seq % kRing];
    hastm::TmExec &nt = backend_.thread(w);
    hastm::TmExec *t = &nt;
    std::int32_t exec_span = -1;
    if (slot.traced) {
        if (slot.sampled)
            exec_span = spans_[w].add(SpanName::Exec, req.seq, s, s,
                                      slot.requestSpan, std::int16_t(kWorkers));
        traced_[w]->nextOp(req.seq, slot.sampled, exec_span);
        t = traced_[w].get();
    }
    // The body of NativePoolRequestExecutor::runOne.
    hastm::svcdetail::StatSnap before(nt.stats());
    hastm::ExecOutcome o = hastm::svcdetail::runOp(*t, ds_.ops, req);
    hastm::svcdetail::fillDeltas(&o, before, nt.stats());
    o.commitStamp = nt.commitStamp();
    bool recorded = o.opResult;
    if (opt_.injectFault && req.seq == kInjectAt) {
        recorded = !recorded;
        injected_.fetch_add(1);
    }
    std::vector<hastm::OpRecord> &log = logs_[w];
    log.push_back({o.commitStamp, w, 1, req.op, req.key, req.value, recorded,
                   log.size()});
    std::uint64_t e = nowNs();
    spans_[w].close(exec_span, e, SpanName::Exec);
    slot.execStart = s;
    slot.execEnd = e;
    slot.done.store(1, std::memory_order_release);
    return o;
}

void
ServeRig::checkpoint()
{
    using hastm::OpRecord;
    std::vector<OpRecord> log;
    if (!checkpointed_) {
        log = popLog_;
        checkpointed_ = true;
    } else {
        for (const auto &[key, value] : model_) {
            log.push_back({0, 0, 0, OpKind::Insert, key, value, true,
                           log.size()});
        }
    }
    for (std::vector<OpRecord> &l : logs_) {
        log.insert(log.end(), l.begin(), l.end());
        l.clear();
    }
    std::sort(log.begin(), log.end(), hastm::opOrderLess);
    model_.clear();
    for (const OpRecord &op : log) {
        if (op.kind == OpKind::Insert)
            model_[op.key] = op.value;
        else if (op.kind == OpKind::Remove)
            model_.erase(op.key);
    }
    hastm::TmExec &t0 = backend_.thread(0);
    hastm::OracleOutcome oo =
        hastm::replayOps(std::move(log), ds_.ops.checksum(t0),
                         ds_.ops.size(t0), ds_.ops.invariant(t0), opt_.seed);
    ++oracleRuns_;
    if (!oo.ok) {
        if (oracleFailures_++ == 0)
            oracleDiag_ = oo.diag;
    }
}

bool
ServeRig::collectOne(PhaseStats &ps, bool block)
{
    if (outstanding_.empty())
        return false;
    Pending p = outstanding_.front();
    Slot &slot = ring_[p.seq % kRing];
    if (!block && !slot.done.load(std::memory_order_acquire))
        return false;
    std::uint64_t c0 = nowNs();
    hastm::ExecOutcome o = pool_->collect(p.ticket);
    std::uint64_t c1 = nowNs();
    outstanding_.pop_front();
    ps.collectNs += c1 - c0;
    if (o.commits != 1)
        ++ps.badOutcomes;
    std::uint64_t end = slot.execEnd;
    if (slot.due != 0)
        ps.lat.record(slot.due, end - std::min(end, slot.due));
    ps.sentLat.record(slot.sent, end - std::min(end, slot.sent));
    std::uint64_t handoff_end = std::max(slot.execStart, slot.submitRet);
    ps.handoff.record(handoff_end - slot.submitRet);
    if (slot.sampled) {
        genSpans_.add(SpanName::Handoff, p.seq, slot.submitRet, handoff_end,
                      slot.requestSpan);
        genSpans_.add(SpanName::Collect, p.seq, c0, c1, slot.requestSpan);
        genSpans_.close(slot.requestSpan, std::max(end, c1),
                        SpanName::Request);
    }
    ps.execNs += slot.execEnd - slot.execStart;
    if (end >= ps.winStart) {
        std::uint64_t w = (end - ps.winStart) / ps.winNs;
        if (w < ps.winDone.size())
            ++ps.winDone[w];
    }
    slot.done.store(0, std::memory_order_relaxed);
    return true;
}

PhaseStats
ServeRig::runPhase(double rate, double seconds, bool traced, double window_s,
                   hastm::Rng &rng)
{
    PhaseStats ps;
    std::uint64_t start = nowNs();
    std::uint64_t end = start + std::uint64_t(seconds * 1e9);
    unsigned windows = windowsFor(seconds, window_s);
    ps.winStart = start;
    ps.winNs = std::uint64_t(seconds / windows * 1e9);
    ps.lat = WindowedLat(start, ps.winNs, windows);
    ps.sentLat = WindowedLat(start, ps.winNs, windows);
    ps.winDone.assign(windows, 0);
    CpuTimes cpu0 = processCpu();
    std::uint64_t gen0 = threadCpuNs();

    double mean_gap_ns = rate > 0 ? 1e9 / rate : 0.0;
    std::uint64_t due = start;
    for (;;) {
        if (rate > 0) {
            // Poisson arrivals: exponential gaps, drawn from the seed.
            due += std::uint64_t(-std::log(1.0 - rng.uniform()) * mean_gap_ns);
            if (due >= end)
                break;
            // Wait by yielding, not by spinning: a woken worker that
            // the kernel places on the generator's CPU must not wait
            // for a spinning generator's time slice to run out.
            while (nowNs() < due) {
                if (!collectOne(ps, false))
                    std::this_thread::yield();
            }
        } else if (nowNs() >= end) {
            break;
        }
        while (outstanding_.size() >= kRing - 1)
            collectOne(ps, true);
        std::uint64_t seq = nextSeq_++;
        Slot &slot = ring_[seq % kRing];
        slot.due = rate > 0 ? due : 0;
        slot.traced = traced;
        slot.sampled = traced && seq % kSampleEvery == 0;
        hastm::ServiceRequest req = makeRequest(rng, seq);
        std::uint64_t s = nowNs();
        // Root span of a sampled request: due (or send) time until
        // completion; closed in collectOne.
        slot.requestSpan =
            slot.sampled ? genSpans_.add(SpanName::Request, seq,
                                         rate > 0 ? due : s, s, -1)
                         : -1;
        if (rate > 0)
            ps.late.record(s - std::min(s, due));
        slot.sent = s;
        std::uint64_t ticket = pool_->submit(req);
        std::uint64_t r = nowNs();
        slot.submitRet = r;
        ps.submitNs += r - s;
        if (slot.sampled)
            genSpans_.add(SpanName::Submit, seq, s, r, slot.requestSpan);
        outstanding_.push_back({ticket, seq});
        ++ps.requests;
        ps.maxBacklog = std::max<std::uint64_t>(ps.maxBacklog,
                                                outstanding_.size());
        if (rate > 0)
            ps.finalLateNs = r - std::min(r, due);
        collectOne(ps, false);
    }
    while (collectOne(ps, true)) {
    }
    ps.elapsedNs = nowNs() - start;
    CpuTimes cpu1 = processCpu();
    ps.cpu = {cpu1.userNs - cpu0.userNs, cpu1.sysNs - cpu0.sysNs};
    ps.genCpuNs = threadCpuNs() - gen0;
    return ps;
}

/** Per-window figures of the saturated pool (one phase per window). */
struct Saturation
{
    std::vector<double> rate;  //!< completions per host-second
    std::vector<double> p50, tail;  //!< submit -> completion, ns
    std::string tailLabel = "p99";
    std::uint64_t requests = 0;
    std::uint64_t cpuNs = 0, genCpuNs = 0;

    void
    add(const PhaseStats &ps)
    {
        rate.push_back(double(ps.winDone[0]) / (double(ps.winNs) * 1e-9));
        const LatHist &h = ps.sentLat.window(0);
        double q = tailQuantile(h.count());
        tailLabel = quantileLabel(q);
        p50.push_back(h.quantile(0.5));
        tail.push_back(h.quantile(q));
        requests += ps.requests;
        cpuNs += ps.cpu.total();
        genCpuNs += ps.genCpuNs;
    }
};

} // namespace

WorkloadResult
runServePool(const Options &opt)
{
    WorkloadResult r;
    r.workload = "serve-pool";
    r.context = {
        {"workers", std::to_string(kWorkers)},
        {"generator_threads", "1"},
        {"nominal_rate_per_s", std::to_string(kNominalRps)},
        {"structure", "hash table, 64 buckets, 256 keys, 128 populated"},
        {"keys", "ZipfKeys(256, s=0.8)"},
        {"mix", "contains 80%, insert 10%, remove 10%"},
    };

    std::vector<double> setups;
    std::unique_ptr<ServeRig> rig;
    for (unsigned i = 0; i < kSetups; ++i) {
        rig.reset();
        std::uint64_t s = nowNs();
        rig = std::make_unique<ServeRig>(opt);
        setups.push_back(double(nowNs() - s) * 1e-9);
    }

    double S = opt.seconds;
    hastm::Rng rng(opt.seed * 0x51ed + 7);
    std::uint64_t bad = 0, requests = 0;
    auto tally = [&](const PhaseStats &ps) {
        bad += ps.badOutcomes;
        requests += ps.requests;
    };

    tally(rig->runPhase(kNominalRps, 0.05 * S, false, kWindowS, rng));
    rig->checkpoint();
    PhaseStats nominal = rig->runPhase(kNominalRps, 0.3 * S, opt.trace,
                                       kWindowS, rng);
    tally(nominal);
    rig->checkpoint();
    // Saturation runs as one short phase per window, each followed by
    // an oracle checkpoint outside the timed window.
    auto saturate = [&](double seconds, bool traced) {
        Saturation sat;
        unsigned n = windowsFor(seconds, kSatWindowS);
        for (unsigned i = 0; i < n; ++i) {
            PhaseStats ps = rig->runPhase(0, seconds / n, traced,
                                          seconds / n, rng);
            tally(ps);
            rig->checkpoint();
            sat.add(ps);
        }
        return sat;
    };
    Saturation sat = saturate(opt.trace ? 0.2 * S : 0.4 * S, false);
    Saturation sat_traced;
    if (opt.trace)
        sat_traced = saturate(0.2 * S, true);
    double max_rps = 0;
    std::string ladder;
    double step_s = 0.25 * S / std::size(kLadder);
    for (double rate : kLadder) {
        PhaseStats ps = rig->runPhase(rate, step_s, false, step_s, rng);
        tally(ps);
        rig->checkpoint();
        LatHist all = ps.lat.total();
        double q = tailQuantile(all.count());
        double tail = all.quantile(q);
        bool pass = ps.badOutcomes == 0 && tail <= kSloNs &&
                    ps.finalLateNs <= kSloNs;
        if (pass)
            max_rps = std::max(max_rps, rate);
        ladder += std::to_string(int(rate)) + ":" + quantileLabel(q) + "=" +
                  std::to_string(int(tail / 1000)) + "us" +
                  (pass ? "" : "(miss)") + " ";
    }
    rig->stop();
    r.attempted = requests;
    r.context.push_back({"ladder", ladder});
    std::string wins;
    for (unsigned w = 0; w < nominal.lat.windows(); ++w) {
        const LatHist &h = nominal.lat.window(w);
        wins += std::to_string(int(h.quantile(0.5) / 1000)) + "/" +
                std::to_string(int(h.quantile(tailQuantile(h.count())) / 1000)) +
                " ";
    }
    r.context.push_back({"open_loop_windows_p50/tail_us", wins});
    double oq = tailQuantile(nominal.lat.total().count() /
                             nominal.lat.windows());
    double open_p50 = nominal.lat.medianOfWindows(0.5) / 1000;
    double open_tail = nominal.lat.medianOfWindows(oq) / 1000;
    r.context.push_back(
        {"open_loop_due_to_done_us",
         "p50 " + std::to_string(open_p50) + ", " + quantileLabel(oq) + " " +
             std::to_string(open_tail) + " at " +
             std::to_string(int(kNominalRps)) + "/s (median over windows)"});
    r.context.push_back({"max_rps_at_slo", std::to_string(max_rps)});
    std::string pool;
    for (const hastm::PoolWorkerStats &w : rig->workerStats()) {
        pool += "executed=" + std::to_string(w.executed) + " busy_ms=" +
                std::to_string(w.busyHostNs / 1'000'000) + "; ";
    }
    r.context.push_back({"pool_worker_stats", pool});
    std::string rates;
    for (double x : sat.rate)
        rates += std::to_string(int(x / 1000)) + "k ";
    r.context.push_back({"saturation_window_ops_per_s", rates});

    // ---- output checks ----
    r.check("outcomes_committed", bad == 0,
            std::to_string(bad) + " requests did not commit exactly once",
            bad);
    r.check("replay_oracle", rig->oracleFailures() == 0,
            rig->oracleFailures() == 0
                ? "replayOps over the commit-stamp-ordered log, " +
                      std::to_string(rig->oracleRuns()) + " checkpoints"
                : rig->oracleDiag());
    hastm::NativeSession &sess = rig->backend().session();
    std::string diag;
    for (unsigned t = 0; t < kWorkers; ++t) {
        std::string d = sess.thread(t).invariantReport();
        if (!d.empty())
            diag += "thread " + std::to_string(t) + ": " + d + "; ";
    }
    r.check("native_invariants", diag.empty(),
            diag.empty() ? "NativeThread::invariantReport clean" : diag);
    r.check("gate_quiescent", sess.runtime().gate().quiescent(),
            "NativeGate::quiescent after the pool stopped");
    if (opt.injectFault)
        r.context.push_back({"injected_wrong_results",
                             std::to_string(rig->injected())});

    if (!opt.trace) {
        // End to end: the saturated pool, a closed loop whose window
        // is the channel (the open loop's tail is host CPU steal on a
        // shared host; see perfbench/README.md).
        r.add("setup_s", median(setups), "s",
              "median of " + std::to_string(kSetups) + " set-ups");
        r.add("ops_per_s", median(sat.rate), "1/s",
              "saturation: median of " + std::to_string(sat.rate.size()) +
                  " windows, generator submitting back to back");
        r.add("op_p50_us", median(sat.p50) / 1000, "us",
              "submit -> completion at saturation, median over windows; n=" +
                  std::to_string(sat.requests));
        r.add("op_p99_us", median(sat.tail) / 1000, "us",
              sat.tailLabel + ", median over windows; n=" +
                  std::to_string(sat.requests));
        r.add("cpu_us_per_op",
              double(sat.cpuNs - std::min(sat.cpuNs, sat.genCpuNs)) / 1000 /
                  double(std::max<std::uint64_t>(1, sat.requests)),
              "us", "process CPU minus the generator thread's, saturation");
        r.add("peak_rss_mb", peakRssMb(), "MB");
        return r;
    }

    // ---- per-layer (the nominal phase ran traced) ----
    LayerAgg agg = rig->layerAgg();
    hastm::TmStats d = sess.totalStats();
    double reqs = double(std::max<std::uint64_t>(1, nominal.requests));
    r.add("service.submit_ns", double(nominal.submitNs) / reqs, "ns");
    r.add("service.handoff_p50_ns", nominal.handoff.quantile(0.5), "ns");
    double hq = tailQuantile(nominal.handoff.count());
    r.add("service.handoff_p99_ns", nominal.handoff.quantile(hq), "ns",
          quantileLabel(hq));
    r.add("service.exec_ns", double(nominal.execNs) / reqs, "ns");
    r.add("service.collect_ns", double(nominal.collectNs) / reqs, "ns");
    r.add("service.worker_busy_ratio",
          double(nominal.execNs) / (double(kWorkers) * double(nominal.elapsedNs)),
          "ratio");
    r.add("service.max_backlog", double(nominal.maxBacklog), "count");
    r.add("service.sys_cpu_share",
          ratio(double(nominal.cpu.sysNs), double(nominal.cpu.total())),
          "ratio");
    r.add("service.max_rps_at_slo", max_rps, "1/s");
    r.add("service.open_p50_us", open_p50, "us",
          "due -> completion at the nominal rate (traced)");
    r.add("service.open_p99_us", open_tail, "us", quantileLabel(oq));
    double lq = tailQuantile(nominal.late.count());
    r.add("bench.gen_late_p99_us", nominal.late.quantile(lq) / 1000, "us",
          quantileLabel(lq));
    double sat_rate = median(sat.rate), traced_rate = median(sat_traced.rate);
    r.add("bench.trace_overhead", ratio(sat_rate, traced_rate), "ratio",
          "saturation: untraced " + std::to_string(sat_rate) +
              " req/s, traced " + std::to_string(traced_rate) + " req/s");

    std::vector<const SpanLog *> logs;
    for (const SpanLog &l : rig->workerSpans())
        logs.push_back(&l);
    logs.push_back(&rig->generatorSpans());
    addTracedLayers(r, agg, d, double(d.commits), opt,
                    "serve-pool-seed" + std::to_string(opt.seed), logs);
    return r;
}

} // namespace perfbench
