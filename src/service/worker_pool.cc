#include "service/worker_pool.hh"

#include <algorithm>
#include <chrono>

#include "harness/native_experiment.hh"
#include "sim/logging.hh"

namespace hastm {

namespace {

std::uint64_t
hostNowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * How long a party spins before it parks. It covers a request's
 * microsecond of TM work plus the handoff on either side, so a busy
 * pool never parks; it is short enough that an idle worker parks
 * well within a millisecond and stops taking CPU from the producer.
 */
constexpr std::uint64_t kSpinNs = 20'000;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** Spin until @p done() holds, for at most kSpinNs (not at all when
 *  @p spin is false); returns done(). */
template <typename Pred>
bool
spinFor(bool spin, Pred done)
{
    if (done())
        return true;
    if (!spin)
        return false;
    std::uint64_t deadline = 0;
    for (unsigned i = 1;; ++i) {
        cpuRelax();
        if (done())
            return true;
        if (i % 64 == 0) {
            std::uint64_t now = hostNowNs();
            if (deadline == 0)
                deadline = now + kSpinNs;
            else if (now >= deadline)
                return false;
        }
    }
}

} // namespace

// ---- WorkerPool ----

WorkerPool::WorkerPool(unsigned workers, ExecFn fn)
    : fn_(std::move(fn)),
      cap_(2 * std::max(1u, workers)),
      spin_(std::thread::hardware_concurrency() > 1),
      stats_(std::max(1u, workers))
{
    startNs_ = hostNowNs();
    threads_.reserve(stats_.size());
    for (unsigned w = 0; w < stats_.size(); ++w)
        threads_.emplace_back([this, w] { loop(w); });
}

WorkerPool::~WorkerPool()
{
    stop();
}

void
WorkerPool::loop(unsigned w)
{
    // Tallied locally and stored once: no line shared with the other
    // workers while running, and stop()'s join orders the store
    // before workerStats() reads it.
    PoolWorkerStats s;
    Job job;
    while (pull(s, &job)) {
        std::uint64_t t0 = hostNowNs();
        ExecOutcome o = fn_(w, job.req);
        std::uint64_t t1 = hostNowNs();
        ++s.executed;
        s.commits += o.commits;
        s.aborts += o.aborts;
        s.busyHostNs += t1 - t0;
        publish(*job.cell, o);
    }
    stats_[w] = s;
}

bool
WorkerPool::pull(PoolWorkerStats &s, Job *job)
{
    std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
    for (;;) {
        bool seen = spinFor(spin_, [this] {
            return queued_.load(std::memory_order_relaxed) != 0 ||
                   stopping_.load(std::memory_order_relaxed);
        });
        lk.lock();
        if (!channel_.empty() || stopping_.load(std::memory_order_relaxed))
            break;
        if (!seen) {
            ++s.parks;
            ++pullersParked_;
            canPull_.wait(lk, [this] {
                return !channel_.empty() ||
                       stopping_.load(std::memory_order_relaxed);
            });
            --pullersParked_;
            break;
        }
        lk.unlock();  // another worker took it: spin again
    }
    if (channel_.empty())
        return false;  // stopping, channel drained
    *job = channel_.front();
    channel_.pop_front();
    queued_.store(unsigned(channel_.size()), std::memory_order_relaxed);
    bool wake = submitterParked_;
    lk.unlock();
    if (wake)
        canSubmit_.notify_one();
    return true;
}

void
WorkerPool::publish(Cell &cell, const ExecOutcome &o)
{
    cell.out = o;
    // Dekker with collect(): store ready, then load the parked word.
    cell.ready.store(true, std::memory_order_seq_cst);
    if (collectorParked_.load(std::memory_order_seq_cst)) {
        // The collector holds mu_ from raising the word until it is
        // inside wait(); taking mu_ here means the notify cannot land
        // in between.
        { std::lock_guard<std::mutex> lk(mu_); }
        collected_.notify_one();
    }
}

void
WorkerPool::onProducerThread()
{
    std::thread::id me = std::this_thread::get_id();
    if (producer_ == std::thread::id())
        producer_ = me;
    if (producer_ != me)
        panic("WorkerPool: submit/collect called from a second thread "
              "(the pool has a single producer)");
}

std::uint64_t
WorkerPool::submit(const ServiceRequest &req)
{
    onProducerThread();
    HASTM_ASSERT(!stopping_.load(std::memory_order_relaxed));
    std::uint64_t ticket = nextTicket_++;
    Cell &cell = cells_.emplace_back();
    spinFor(spin_, [this] {
        return queued_.load(std::memory_order_relaxed) < cap_;
    });
    std::unique_lock<std::mutex> lk(mu_);
    if (channel_.size() >= cap_) {
        submitterParked_ = true;
        canSubmit_.wait(lk, [this] { return channel_.size() < cap_; });
        submitterParked_ = false;
    }
    channel_.push_back({&cell, req});
    queued_.store(unsigned(channel_.size()), std::memory_order_relaxed);
    bool wake = pullersParked_ != 0;
    lk.unlock();
    if (wake)
        canPull_.notify_one();
    return ticket;
}

ExecOutcome
WorkerPool::collect(std::uint64_t ticket)
{
    onProducerThread();
    if (ticket >= nextTicket_)
        panic("WorkerPool::collect: ticket %llu was never submitted",
              static_cast<unsigned long long>(ticket));
    if (ticket < base_ || cells_[ticket - base_].taken)
        panic("WorkerPool::collect: ticket %llu was already collected",
              static_cast<unsigned long long>(ticket));
    Cell &cell = cells_[ticket - base_];
    if (!spinFor(spin_, [&cell] {
            return cell.ready.load(std::memory_order_acquire);
        })) {
        std::unique_lock<std::mutex> lk(mu_);
        // Dekker with publish(): raise the word, then load ready.
        collectorParked_.store(true, std::memory_order_seq_cst);
        collected_.wait(lk, [&cell] {
            return cell.ready.load(std::memory_order_seq_cst);
        });
        collectorParked_.store(false, std::memory_order_relaxed);
    }
    ExecOutcome o = cell.out;
    cell.taken = true;
    while (!cells_.empty() && cells_.front().taken) {
        cells_.pop_front();
        ++base_;
    }
    return o;
}

void
WorkerPool::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_.load(std::memory_order_relaxed)) {
            HASTM_ASSERT(stopped_);
            return;
        }
        stopping_.store(true, std::memory_order_relaxed);
    }
    canPull_.notify_all();
    for (std::thread &t : threads_)
        t.join();
    wallNs_ = hostNowNs() - startNs_;
    stopped_ = true;
}

const std::vector<PoolWorkerStats> &
WorkerPool::workerStats() const
{
    HASTM_ASSERT(stopped_);
    return stats_;
}

std::uint64_t
WorkerPool::wallHostNs() const
{
    HASTM_ASSERT(stopped_);
    return wallNs_;
}

// ---- NativePoolRequestExecutor ----

NativePoolRequestExecutor::NativePoolRequestExecutor(
    unsigned workers, const StmConfig &stm, bool sim_replay,
    std::size_t heap_bytes)
    : workers_(std::max(1u, workers)),
      simReplay_(sim_replay),
      backend_([&] {
          NativeSessionConfig cfg;
          cfg.numThreads = std::max(1u, workers);
          cfg.stm = stm;
          cfg.heapBytes = heap_bytes;
          return cfg;
      }())
{
}

void
NativePoolRequestExecutor::populate(const ExecutorWorkload &w)
{
    if (pool_)
        pool_->stop();
    workload_ = w;
    popLog_.clear();
    logs_.assign(workers_, {});
    // Inline on thread 0 before the pool spins up: no concurrency
    // during populate, so the epoch-0 log is in program order.
    svcdetail::buildAndPopulate(backend_.thread(0), w, &ds_, &popLog_);
    backend_.resetStats();
    pool_ = std::make_unique<WorkerPool>(
        workers_, [this](unsigned worker, const ServiceRequest &req) {
            return runOne(worker, req);
        });
}

ExecOutcome
NativePoolRequestExecutor::runOne(unsigned worker,
                                  const ServiceRequest &req)
{
    // Only worker `worker` ever touches thread(worker): per-thread
    // stats deltas and the op log are race-free by construction.
    TmExec &t = backend_.thread(worker);
    svcdetail::StatSnap before(t.stats());
    ExecOutcome o = svcdetail::runOp(t, ds_.ops, req);
    svcdetail::fillDeltas(&o, before, t.stats());
    o.commitStamp = t.commitStamp();
    std::vector<OpRecord> &log = logs_[worker];
    log.push_back({o.commitStamp, worker, 1, req.op, req.key,
                   req.value, o.opResult, log.size()});
    return o;
}

ExecOutcome
NativePoolRequestExecutor::execute(const ServiceRequest &req, unsigned)
{
    // Synchronous probes (calibration, post-run quiescence checks):
    // through the pool while it runs, inline once quiesced.
    if (pool_)
        return pool_->collect(pool_->submit(req));
    TmExec &t = backend_.thread(0);
    svcdetail::StatSnap before(t.stats());
    ExecOutcome o = svcdetail::runOp(t, ds_.ops, req);
    svcdetail::fillDeltas(&o, before, t.stats());
    o.commitStamp = t.commitStamp();
    return o;
}

std::uint64_t
NativePoolRequestExecutor::submit(const ServiceRequest &req)
{
    HASTM_ASSERT(pool_);
    return pool_->submit(req);
}

ExecOutcome
NativePoolRequestExecutor::collect(std::uint64_t ticket)
{
    HASTM_ASSERT(pool_);
    return pool_->collect(ticket);
}

void
NativePoolRequestExecutor::quiesce()
{
    if (pool_)
        pool_->stop();
}

PoolOutcome
NativePoolRequestExecutor::poolOutcome()
{
    quiesce();
    PoolOutcome po;
    po.enabled = true;
    po.workers = workers_;
    if (!pool_)
        return po;
    po.perWorker = pool_->workerStats();
    po.wallHostNs = pool_->wallHostNs();
    std::uint64_t executed = 0;
    for (const PoolWorkerStats &s : po.perWorker)
        executed += s.executed;
    po.execPerHostSec =
        po.wallHostNs
            ? double(executed) * 1e9 / double(po.wallHostNs)
            : 0.0;

    auto fail = [&](const std::string &what) {
        if (po.diag.empty())
            po.diag = what;
    };

    // ---- native protocol invariant sweep (always on) ----
    NativeSession &sess = backend_.session();
    for (unsigned tid = 0; tid < sess.numThreads(); ++tid) {
        std::string diag = sess.thread(tid).invariantReport();
        if (!diag.empty()) {
            po.nativeInvariantsOk = false;
            fail("thread " + std::to_string(tid) + ": " + diag);
        }
    }
    if (!sess.runtime().gate().quiescent()) {
        po.nativeInvariantsOk = false;
        fail("gate not quiescent");
    }

    // ---- replay oracle over the merged, serialization-ordered log ----
    std::vector<OpRecord> log = popLog_;
    for (const std::vector<OpRecord> &l : logs_)
        log.insert(log.end(), l.begin(), l.end());
    std::sort(log.begin(), log.end(), opOrderLess);
    po.opsRecorded = log.size();
    TmExec &t0 = backend_.thread(0);
    std::uint64_t cks = ds_.ops.checksum(t0);
    std::uint64_t sz = ds_.ops.size(t0);
    bool inv = ds_.ops.invariant(t0);
    OracleOutcome oo = replayOps(log, cks, sz, inv, workload_.seed);
    po.oracleChecked = true;
    po.oracleOk = oo.ok;
    if (!oo.ok)
        fail("oracle: " + oo.diag);

    // ---- sim-replay cross-validation (fibers; off under TSan) ----
    if (simReplay_) {
        SimBackendConfig sc;
        sc.session.scheme = TmScheme::Sequential;
        sc.session.numThreads = 1;
        SimBackend sim(sc);
        ReplayOutcome rep = replayThroughBackend(
            sim, workload_.workload, workload_.hashBuckets, log);
        po.simReplayChecked = true;
        po.simReplayOk = rep.ok && rep.invariantOk &&
                         rep.checksum == cks && rep.finalSize == sz;
        if (!po.simReplayOk) {
            fail("sim replay: " +
                 (rep.diag.empty() ? std::string("final state differs")
                                   : rep.diag));
        }
    }
    return po;
}

TmStats
NativePoolRequestExecutor::totalStats() const
{
    return backend_.totalStats();
}

std::uint64_t
NativePoolRequestExecutor::checksum()
{
    quiesce();
    return ds_.ops.checksum(backend_.thread(0));
}

std::uint64_t
NativePoolRequestExecutor::size()
{
    quiesce();
    return ds_.ops.size(backend_.thread(0));
}

bool
NativePoolRequestExecutor::invariant()
{
    quiesce();
    return ds_.ops.invariant(backend_.thread(0));
}

bool
NativePoolRequestExecutor::gateQuiescent()
{
    quiesce();
    return backend_.session().runtime().gate().quiescent();
}

} // namespace hastm
