/**
 * @file
 * Request executors: one transactional request, really executed.
 *
 * The service's discrete-event loop is single-threaded and virtual-
 * clocked, but the requests it dispatches run for real on a TmBackend
 * — real barriers, real aborts, real watchdog escalations, real
 * serial-gate entries — and the measured outcome (barrier/abort/
 * irrevocable deltas) feeds the deterministic service-time model.
 * Contention is injected deterministically, scaled by how many busy
 * workers collide on the request's conflict class:
 *
 *  - NativeRequestExecutor drives a 2-thread NativeSession inline
 *    from the event loop's host thread: thread 0 executes the
 *    request through a RivalryExec decorator whose atomic() brackets
 *    the body with reads of a per-class hot word and fires rival
 *    commits through thread 1 (a genuine second NativeThread) that
 *    invalidate the bracket read — each armed attempt takes a real
 *    conflict abort, retries, and escalates through the watchdog /
 *    serial gate exactly as concurrent overload would, while staying
 *    bit-identical run to run (no host races anywhere).
 *  - SimRequestExecutor runs each request as a 2-fiber simulator
 *    step: body 0 is the bracketed request, body 1 a genuine rival
 *    fiber committing hot-word writes concurrently under the
 *    deterministic scheduler. The fibers pace each other through a
 *    host-side handshake (fibers are cooperative, so plain flags are
 *    deterministic): each worker attempt signals for exactly one
 *    rival commit and spins simulated instructions until it lands
 *    inside the attempt's window — the same one-rival-per-attempt
 *    contract the native path gets from firing inline. This is where
 *    the Adaptive arbiter and every simulated scheme meet
 *    open-system overload.
 */

#ifndef HASTM_SERVICE_EXECUTOR_HH
#define HASTM_SERVICE_EXECUTOR_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/native_backend.hh"
#include "backend/sim_backend.hh"
#include "harness/ds_ops.hh"
#include "harness/oracle.hh"
#include "service/arrival.hh"

namespace hastm {

/** The data structure one executor serves, plus its initial load. */
struct ExecutorWorkload
{
    WorkloadKind workload = WorkloadKind::HashTable;
    unsigned hashBuckets = 64;
    std::uint64_t initialSize = 256;
    std::uint64_t keyRange = 1024;
    std::uint64_t seed = 1;
    /** Keys map to key % conflictClasses hot words (rivalry). */
    unsigned conflictClasses = 8;
};

/** Measured outcome of one executed request (stats deltas). */
struct ExecOutcome
{
    bool opResult = false;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t barriers = 0;      //!< read + write barriers
    std::uint64_t irrevocable = 0;   //!< serial-gate escalations
    std::uint64_t commitStamp = 0;
};

/**
 * TmExec decorator injecting deterministic rivalry around the atomic
 * blocks the data-structure ops run. Delegates the whole retry loop
 * to the inner thread (so stats, watchdog, and serial-irrevocable
 * behavior are the inner scheme's own) with the body wrapped:
 *
 *   read hot[cls]; body(); fire one rival commit / spacer;
 *   read hot[cls] again  ->  genuine stale-read abort
 *
 * Each armed attempt consumes one pending rival and fires it through
 * the caller-supplied hook — inline on the native backend, via the
 * fiber handshake on the sim — so `rivals` attempts take a real
 * conflict abort each, then the request commits cleanly (or a
 * watchdog escalation cuts the sequence short). Irrevocable attempts
 * never bracket: an irrevocable transaction runs alone by definition
 * (and a native rival would park on the gate the executing thread
 * holds).
 */
class RivalryExec : public TmExec
{
  public:
    explicit RivalryExec(TmExec &inner) : inner_(inner) {}

    void
    arm(Addr hot, unsigned cls, unsigned rivals,
        std::function<void()> fire)
    {
        hot_ = hot;
        cls_ = cls;
        pending_ = rivals;
        fire_ = std::move(fire);
    }

    bool atomic(const std::function<void()> &fn) override;

    bool
    atomicOrElse(const std::function<void()> &first,
                 const std::function<void()> &second) override
    {
        return inner_.atomicOrElse(first, second);
    }

    std::uint64_t readWord(Addr a) override { return inner_.readWord(a); }
    void
    writeWord(Addr a, std::uint64_t v, bool is_ptr) override
    {
        inner_.writeWord(a, v, is_ptr);
    }
    std::uint64_t
    readField(Addr obj, unsigned off) override
    {
        return inner_.readField(obj, off);
    }
    void
    writeField(Addr obj, unsigned off, std::uint64_t v,
               bool is_ptr) override
    {
        inner_.writeField(obj, off, v, is_ptr);
    }
    Addr
    txAlloc(std::size_t field_bytes, std::uint32_t ptr_mask) override
    {
        return inner_.txAlloc(field_bytes, ptr_mask);
    }
    void txFree(Addr obj) override { inner_.txFree(obj); }
    void validateNow() override { inner_.validateNow(); }
    bool inTx() const override { return inner_.inTx(); }
    void simInstr(unsigned n) override { inner_.simInstr(n); }
    void simInstrIlp(unsigned n) override { inner_.simInstrIlp(n); }
    const TmStats &stats() const override { return inner_.stats(); }
    void resetStats() override { inner_.resetStats(); }
    void setSite(std::uint32_t site) override { inner_.setSite(site); }
    std::uint32_t site() const override { return inner_.site(); }
    bool inIrrevocable() const override { return inner_.inIrrevocable(); }

  protected:
    // Never reached: atomic() delegates to the inner driver, so the
    // base retry loop (which would call these) never runs here.
    void begin() override { unreachable("begin"); }
    bool commit() override { unreachable("commit"); return false; }
    void rollback() override { unreachable("rollback"); }
    void onConflict(unsigned) override { unreachable("onConflict"); }
    void waitForChange(unsigned) override { unreachable("waitForChange"); }

  private:
    [[noreturn]] static void unreachable(const char *hook);

    TmExec &inner_;
    Addr hot_ = kNullAddr;
    unsigned cls_ = 0;
    unsigned pending_ = 0;
    std::function<void()> fire_;
};

/**
 * Host-side handshake pacing the sim rival fiber (cooperative fibers
 * under the deterministic scheduler make plain fields race-free).
 */
struct RivalPace
{
    unsigned want = 0;  //!< rival commits requested by the worker
    unsigned done = 0;  //!< rival commits landed
    bool quit = false;  //!< worker finished; rival must not wait more
};

/** One host worker thread's end-of-run tally (pool executors). */
struct PoolWorkerStats
{
    std::uint64_t executed = 0;    //!< requests this worker ran
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t busyHostNs = 0;  //!< wall time inside request bodies
    /** Times this worker found the channel empty after its spin and
     *  parked on the condvar (not in the report JSON). */
    std::uint64_t parks = 0;
};

/**
 * End-of-run report of a concurrent (pool) executor: per-worker
 * host occupancy plus the three-way validation verdict that stands
 * in for bit-identical fingerprints when workers > 1 — the replay
 * oracle over the recorded op log, the optional sim-replay
 * cross-validation, and the native protocol invariant sweep.
 * enabled stays false for the synchronous executors.
 */
struct PoolOutcome
{
    bool enabled = false;
    unsigned workers = 0;
    std::vector<PoolWorkerStats> perWorker;
    std::uint64_t wallHostNs = 0;       //!< populate -> quiesce
    double execPerHostSec = 0.0;        //!< executed / host wall sec
    std::uint64_t opsRecorded = 0;      //!< populate + request ops
    bool oracleChecked = false;
    bool oracleOk = true;
    bool simReplayChecked = false;
    bool simReplayOk = true;
    bool nativeInvariantsOk = true;
    std::string diag;                   //!< first failure, when any
};

/** One scheme/backend's request-execution engine for the service. */
class RequestExecutor
{
  public:
    virtual ~RequestExecutor() = default;

    /** Build + populate the structure; resets stats afterwards. */
    virtual void populate(const ExecutorWorkload &w) = 0;

    /**
     * Execute @p req with @p rivals injected conflicting commits
     * (scaled by the caller from real worker-collision state).
     */
    virtual ExecOutcome execute(const ServiceRequest &req,
                                unsigned rivals) = 0;

    /**
     * True when requests run on real concurrent worker threads via
     * submit()/collect(). The event loop then hands every admitted
     * request to the pool immediately and collects the measured
     * outcome at virtual dispatch; results are fingerprint-exempt
     * (validated by PoolOutcome instead).
     */
    virtual bool concurrent() const { return false; }

    /** Hand an admitted request to the pool; returns its ticket.
     *  Blocks while the bounded dispatch channel is full. */
    virtual std::uint64_t submit(const ServiceRequest &req);

    /** Block until the submitted request really finished. */
    virtual ExecOutcome collect(std::uint64_t ticket);

    /** Pool occupancy + validation report (disabled unless
     *  concurrent(); quiesces the pool first). */
    virtual PoolOutcome poolOutcome() { return {}; }

    virtual TmStats totalStats() const = 0;
    virtual std::uint64_t checksum() = 0;
    virtual std::uint64_t size() = 0;
    virtual bool invariant() = 0;
    virtual bool gateQuiescent() { return true; }
    virtual BackendKind backendKind() const = 0;
};

class NativeRequestExecutor : public RequestExecutor
{
  public:
    NativeRequestExecutor(const StmConfig &stm,
                          std::size_t heap_bytes = 64ull << 20);

    void populate(const ExecutorWorkload &w) override;
    ExecOutcome execute(const ServiceRequest &req,
                        unsigned rivals) override;
    TmStats totalStats() const override;
    std::uint64_t checksum() override;
    std::uint64_t size() override;
    bool invariant() override;
    bool gateQuiescent() override;
    BackendKind backendKind() const override { return BackendKind::Native; }

    NativeBackend &backend() { return backend_; }

  private:
    NativeBackend backend_;
    std::unique_ptr<RivalryExec> exec_;
    DsInstance ds_;
    Addr hot_ = kNullAddr;
    unsigned classes_ = 1;
    std::uint64_t rivalSeq_ = 0;
};

class SimRequestExecutor : public RequestExecutor
{
  public:
    SimRequestExecutor(TmScheme scheme, const StmConfig &stm);

    void populate(const ExecutorWorkload &w) override;
    ExecOutcome execute(const ServiceRequest &req,
                        unsigned rivals) override;
    TmStats totalStats() const override;
    std::uint64_t checksum() override;
    std::uint64_t size() override;
    bool invariant() override;
    BackendKind backendKind() const override { return BackendKind::Sim; }

    SimBackend &backend() { return *backend_; }

  private:
    std::unique_ptr<SimBackend> backend_;
    DsInstance ds_;
    Addr hot_ = kNullAddr;
    unsigned classes_ = 1;
};

/** Site tag for @p op (the ds ops re-tag; harmless duplication). */
std::uint32_t siteForOp(OpKind op);

/**
 * Shared executor plumbing, exported for the worker pool
 * (service/worker_pool.cc): the inline executors above and the pool
 * workers must populate identically and measure identically or the
 * two modes would not be comparable.
 */
namespace svcdetail {

/**
 * Build the structure and the per-class hot-word array through
 * @p t, then load initialSize random inserts from the dedicated
 * populate stream (same derivation as harness/native_experiment.cc).
 * When @p pop_log is non-null, every populate insert is recorded as
 * an epoch-0 OpRecord for the replay oracle.
 */
Addr buildAndPopulate(TmExec &t, const ExecutorWorkload &w,
                      DsInstance *ds,
                      std::vector<OpRecord> *pop_log = nullptr);

/** Run @p req's single map operation through @p t. */
ExecOutcome runOp(TmExec &t, const DsOps &ops,
                  const ServiceRequest &req);

/** The stat fields the service-time model consumes, snapshotted. */
struct StatSnap
{
    std::uint64_t commits, aborts, barriers, irrevocable;

    explicit StatSnap(const TmStats &s)
        : commits(s.commits), aborts(s.aborts),
          barriers(s.rdBarriers + s.wrBarriers),
          irrevocable(s.irrevocableEntries)
    {
    }
};

/** Fill @p o's deltas as @p after minus @p before. */
void fillDeltas(ExecOutcome *o, const StatSnap &before,
                const TmStats &after);

} // namespace svcdetail

} // namespace hastm

#endif // HASTM_SERVICE_EXECUTOR_HH
