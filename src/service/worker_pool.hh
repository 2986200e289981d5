/**
 * @file
 * Real multi-threaded serving for the transaction service.
 *
 * WorkerPool owns N long-lived host threads, each bound to one
 * NativeThread of a shared native session, pulling admitted requests
 * from a bounded dispatch channel and executing them CONCURRENTLY
 * against the shared structure — genuine cross-worker TL2 conflicts,
 * not the manufactured hot-word rival the 1-worker inline executor
 * injects. The discrete-event loop stays single-threaded and keeps
 * virtual time authoritative: it submits each admitted request into
 * the channel right away (so real concurrency tracks real load) and
 * collects the measured stat deltas only when the virtual queue head
 * reaches a free virtual worker; the virtual completion time is then
 * dispatch + the deterministic service-time model over those deltas.
 *
 * Deadlock freedom: workers never wait on the event loop (the result
 * table is unbounded); submit() blocks only until a worker frees
 * channel space, and every pulled request finishes in bounded time
 * (the native STM's watchdog/serial gate guarantee progress), so the
 * loop's only blocking points — a full channel, an uncollected
 * ticket — always drain.
 *
 * Handoff without condvar traffic. The result table is one cell per
 * ticket, in a producer-owned deque indexed by ticket - base (deque
 * references survive emplace_back and pop_front). A job carries a
 * pointer to its cell; the worker writes the outcome and then
 * publishes the cell's ready flag. Every wait is spin-then-park: a
 * party first spins for a bounded few tens of microseconds (not at
 * all on a single-CPU host) on an atomic — the channel's job count,
 * or the cell's ready flag — and only then parks on a condvar. Every
 * wakeup is counted: a side notifies only when it knows the other
 * side is parked, so while every party is busy a request goes from
 * submit() to a worker and back to collect() with no condvar wait or
 * notify, and the channel mutex is held only for a deque push or pop
 * (contended, it can still futex-wait; ROADMAP direction 2 has the
 * lock-free ring measured as the next step).
 *
 *   - Jobs: the parked-puller and parked-submitter counts live under
 *     the channel mutex beside the deque, so "count nonzero, notify"
 *     decides with the same lock the sleeper holds when it checks its
 *     predicate and parks; no wakeup can fall between the two.
 *   - Results: the collector parks outside the channel's lock-step,
 *     so its handshake with the worker is the Dekker store-then-load
 *     NativeGate uses. The collector raises collectorParked_ (seq_cst)
 *     under the mutex and then loads the cell's ready flag (seq_cst)
 *     as its wait predicate; the worker stores ready (seq_cst) and then
 *     loads collectorParked_ (seq_cst). In the seq_cst total order at
 *     least one of the two loads sees the other's store: either the
 *     collector sees ready and does not sleep, or the worker sees the
 *     raised word and notifies — after taking the mutex, which the
 *     collector holds from raising the word until it is inside wait().
 *
 * Single producer: the design relies on exactly one thread calling
 * submit() and collect() (the event loop, or a benchmark generator);
 * both panic when called from any thread other than the one that
 * submitted first. collect() of a ticket that was never submitted or
 * was already collected panics and names the ticket.
 *
 * Determinism contract (two-mode, DESIGN.md §12): with one worker the
 * service keeps using the inline executor and stays bit-identical;
 * with N > 1 the measured outcomes depend on real interleaving, so
 * results are fingerprint-exempt and validated instead by the replay
 * oracle over the recorded per-worker op logs (ordered by the
 * per-thread seq), optional sim-replay cross-validation through the
 * sequential simulated backend, the native protocol invariant sweep,
 * and the service's accounting identities.
 */

#ifndef HASTM_SERVICE_WORKER_POOL_HH
#define HASTM_SERVICE_WORKER_POOL_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "service/executor.hh"

namespace hastm {

/**
 * N host worker threads around a bounded dispatch channel. The
 * caller (one producer thread: the event loop) submits requests and
 * collects ticketed outcomes, in any order; workers run the
 * caller-supplied function, which must be safe to call concurrently
 * from distinct workers.
 */
class WorkerPool
{
  public:
    using ExecFn =
        std::function<ExecOutcome(unsigned worker,
                                  const ServiceRequest &req)>;

    /** Starts the worker threads immediately (they park on the
     *  empty channel). Channel capacity is 2 * workers. */
    WorkerPool(unsigned workers, ExecFn fn);

    ~WorkerPool();
    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Enqueue @p req; blocks while the channel is full. */
    std::uint64_t submit(const ServiceRequest &req);

    /** Block until @p ticket's request finished; its outcome. Each
     *  submitted ticket is collected at most once. */
    ExecOutcome collect(std::uint64_t ticket);

    /** Drain the channel and join every worker (idempotent). */
    void stop();

    unsigned workers() const { return unsigned(stats_.size()); }

    /** Per-worker tallies; call stop() first. */
    const std::vector<PoolWorkerStats> &workerStats() const;

    /** Start -> stop() host wall time; call stop() first. */
    std::uint64_t wallHostNs() const;

  private:
    /** One ticket's result slot, alone on its cache line (workers
     *  finishing neighbouring tickets do not share a line). */
    struct alignas(64) Cell
    {
        ExecOutcome out;                //!< written by the worker
        std::atomic<bool> ready{false}; //!< out published (seq_cst)
        bool taken = false;             //!< collected (producer only)
    };

    struct Job
    {
        Cell *cell = nullptr;
        ServiceRequest req;
    };

    void loop(unsigned w);
    /** Next job for a worker; false once stopping and drained. */
    bool pull(PoolWorkerStats &s, Job *job);
    /** Publish @p o into @p cell; wake the collector if parked. */
    void publish(Cell &cell, const ExecOutcome &o);
    /** Panic unless called on the producer thread (claims it first). */
    void onProducerThread();

    ExecFn fn_;
    const unsigned cap_;
    const bool spin_;  //!< false on a single-CPU host: park at once

    // ---- producer-owned ----
    std::deque<Cell> cells_;  //!< tickets [base_, nextTicket_)
    std::uint64_t base_ = 0;
    std::uint64_t nextTicket_ = 0;
    std::thread::id producer_;

    // ---- channel ----
    /** Jobs in the channel, mirrored for spinners (written under mu_). */
    alignas(64) std::atomic<unsigned> queued_{0};
    std::atomic<bool> stopping_{false};  //!< written under mu_
    /** Raised while collect() is parked (see the file comment). */
    alignas(64) std::atomic<bool> collectorParked_{false};

    alignas(64) std::mutex mu_;
    std::condition_variable canSubmit_;  //!< channel has space
    std::condition_variable canPull_;    //!< channel has work / stop
    std::condition_variable collected_;  //!< a result landed
    std::deque<Job> channel_;
    unsigned pullersParked_ = 0;  //!< workers parked on canPull_
    bool submitterParked_ = false;

    std::vector<PoolWorkerStats> stats_;  //!< worker w writes [w] at exit
    std::vector<std::thread> threads_;
    std::uint64_t startNs_ = 0;
    std::uint64_t wallNs_ = 0;
    bool stopped_ = false;
};

/**
 * The pool-backed native request executor: one NativeThread per
 * worker on a shared NativeBackend, every request recorded for the
 * end-of-run replay validation. Use for workers >= 2; the 1-worker
 * case stays on NativeRequestExecutor (bit-identical, rival-driven).
 */
class NativePoolRequestExecutor : public RequestExecutor
{
  public:
    /**
     * @param sim_replay  also cross-validate the recorded op log
     *        through the sequential simulated backend in
     *        poolOutcome(). Disable under TSan (fibers cannot be
     *        instrumented) — the in-process replay oracle still runs.
     */
    NativePoolRequestExecutor(unsigned workers, const StmConfig &stm,
                              bool sim_replay = true,
                              std::size_t heap_bytes = 64ull << 20);

    void populate(const ExecutorWorkload &w) override;
    ExecOutcome execute(const ServiceRequest &req,
                        unsigned rivals) override;
    bool concurrent() const override { return true; }
    std::uint64_t submit(const ServiceRequest &req) override;
    ExecOutcome collect(std::uint64_t ticket) override;
    PoolOutcome poolOutcome() override;
    TmStats totalStats() const override;
    std::uint64_t checksum() override;
    std::uint64_t size() override;
    bool invariant() override;
    bool gateQuiescent() override;
    BackendKind backendKind() const override
    {
        return BackendKind::Native;
    }

    NativeBackend &backend() { return backend_; }

  private:
    ExecOutcome runOne(unsigned worker, const ServiceRequest &req);
    void quiesce();

    const unsigned workers_;
    const bool simReplay_;
    NativeBackend backend_;
    DsInstance ds_;
    ExecutorWorkload workload_;
    std::vector<OpRecord> popLog_;
    /** Per-worker request logs; log w is written only by worker w
     *  (the pool join orders them before the merge reads). */
    std::vector<std::vector<OpRecord>> logs_;
    std::unique_ptr<WorkerPool> pool_;
};

} // namespace hastm

#endif // HASTM_SERVICE_WORKER_POOL_HH
