#include "harness/native_experiment.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "backend/native_backend.hh"
#include "backend/sim_backend.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace hastm {

namespace {

std::uint64_t
hostNowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

NativeExperimentResult
runNativeDataStructure(const NativeExperimentConfig &cfg)
{
    HASTM_ASSERT(cfg.threads >= 1);
    NativeSessionConfig nc;
    nc.numThreads = cfg.threads;
    nc.stm = cfg.stm;
    nc.heapBytes = cfg.heapBytes;
    nc.fault = cfg.fault;
    NativeBackend backend(nc);

    std::vector<std::vector<OpRecord>> opLogs(cfg.threads);

    // ---- build + populate (thread 0): same stream as the sim runner ----
    DsInstance ds;
    DsOps &ops = ds.ops;
    backend.run({[&](TmExec &t) {
        ds = makeDs(t, cfg.workload, cfg.hashBuckets);
        Rng rng(cfg.seed * 7919 + 1);
        std::uint64_t inserted = 0;
        while (inserted < cfg.initialSize) {
            std::uint64_t key = rng.range(cfg.keyRange);
            std::uint64_t val = key * 3 + 1;
            bool fresh = ops.insert(t, key, val);
            if (cfg.recordOps) {
                opLogs[0].push_back({t.commitStamp(), 0, 0,
                                     OpKind::Insert, key, val, fresh,
                                     opLogs[0].size()});
            }
            if (fresh)
                ++inserted;
        }
    }});
    backend.resetStats();

    // ---- measured phase: fixed total work split across threads, or
    // fixed host time after a warm-up on the same op streams ----
    struct alignas(64) ThreadStream  // one line each: no false sharing
    {
        Rng rng;
        std::uint64_t lo = 0, span = 0;
        std::uint64_t done = 0;
    };
    std::vector<ThreadStream> streams;
    for (unsigned tid = 0; tid < cfg.threads; ++tid) {
        ThreadStream st{Rng(cfg.seed + 104729ull * (tid + 1))};
        // Disjoint mix: thread t owns keyRange/threads keys.
        st.span = cfg.keyRange;
        if (cfg.disjoint && cfg.threads > 1) {
            st.span = std::max<std::uint64_t>(cfg.keyRange / cfg.threads, 1);
            st.lo = st.span * tid;
        }
        streams.push_back(st);
    }
    auto step = [&](unsigned tid, TmExec &t) {
        ThreadStream &st = streams[tid];
        auto record = [&](OpKind kind, std::uint64_t key, std::uint64_t val,
                          bool res) {
            if (cfg.recordOps) {
                opLogs[tid].push_back({t.commitStamp(), tid, 1, kind, key,
                                       val, res, opLogs[tid].size()});
            }
        };
        std::uint64_t key = st.lo + st.rng.range(st.span);
        std::uint64_t dice = st.rng.range(100);
        if (dice < cfg.updatePct) {
            if (st.rng.chancePct(50)) {
                record(OpKind::Insert, key, key ^ dice,
                       ops.insert(t, key, key ^ dice));
            } else {
                record(OpKind::Remove, key, 0, ops.remove(t, key));
            }
        } else {
            record(OpKind::Contains, key, 0, ops.contains(t, key));
        }
        ++st.done;
    };
    // Bodies that run until @p ms of host time pass (deadline checked
    // every 64 ops, off the per-op path).
    auto timedBodies = [&](unsigned ms) {
        std::vector<std::function<void(TmExec &)>> bodies;
        for (unsigned tid = 0; tid < cfg.threads; ++tid) {
            bodies.push_back([&, tid, ms](TmExec &t) {
                std::uint64_t deadline = hostNowNanos() + ms * 1000000ull;
                do {
                    for (unsigned i = 0; i < 64; ++i)
                        step(tid, t);
                } while (hostNowNanos() < deadline);
            });
        }
        return bodies;
    };
    std::vector<std::function<void(TmExec &)>> bodies;
    if (cfg.measureMs != 0) {
        backend.run(timedBodies(std::max(cfg.measureMs / 4, 1u)));
        backend.resetStats();
        for (ThreadStream &st : streams)
            st.done = 0;
        bodies = timedBodies(cfg.measureMs);
    } else {
        std::uint64_t per_thread = cfg.totalOps / cfg.threads;
        for (unsigned tid = 0; tid < cfg.threads; ++tid) {
            bodies.push_back([&, tid, per_thread](TmExec &t) {
                for (std::uint64_t i = 0; i < per_thread; ++i)
                    step(tid, t);
            });
        }
    }
    std::uint64_t t0 = hostNowNanos();
    backend.run(bodies);
    std::uint64_t t1 = hostNowNanos();

    NativeExperimentResult result;
    result.tm = backend.totalStats();
    // Per-thread capture must happen here too: the verification phase
    // below runs on thread 0 and would pollute its counters.
    result.perThread.resize(cfg.threads);
    for (unsigned tid = 0; tid < cfg.threads; ++tid) {
        const TmStats &ts = backend.thread(tid).stats();
        NativeThreadOutcome &out = result.perThread[tid];
        out.commits = ts.commits;
        out.aborts = ts.aborts;
        std::uint64_t attempts = ts.commits + ts.aborts;
        if (attempts > 0)
            out.abortRate = double(ts.aborts) / double(attempts);
    }
    result.hostNanos = t1 - t0;
    std::uint64_t ops_done = 0;
    for (const ThreadStream &st : streams)
        ops_done += st.done;
    if (result.hostNanos > 0)
        result.opsPerSec = double(ops_done) * 1e9 / double(result.hostNanos);

    // ---- post-run verification (single-threaded, still transactional:
    // the native STM has no capacity bound, so whole-structure walks
    // are safe here) ----
    backend.run({[&](TmExec &t) {
        result.checksum = ops.checksum(t);
        result.finalSize = ops.size(t);
        result.invariantOk = ops.invariant(t);
    }});

    // ---- native protocol invariant sweep (always on; the session is
    // quiescent here, every body joined) ----
    NativeSession &sess = backend.session();
    for (unsigned tid = 0; tid < cfg.threads; ++tid) {
        std::string diag = sess.thread(tid).invariantReport();
        if (!diag.empty()) {
            result.nativeInvariantsOk = false;
            if (!result.nativeInvariantDiag.empty())
                result.nativeInvariantDiag += " | ";
            result.nativeInvariantDiag +=
                "thread " + std::to_string(tid) + ": " + diag;
        }
    }
    if (!sess.runtime().gate().quiescent()) {
        result.nativeInvariantsOk = false;
        if (!result.nativeInvariantDiag.empty())
            result.nativeInvariantDiag += " | ";
        result.nativeInvariantDiag += "gate not quiescent";
    }
    if (NativeFaultInjector *inj = sess.runtime().fault())
        result.faultSequenceHash = inj->sequenceHashAll();

    // ---- replay oracle over the serialization-ordered log ----
    if (cfg.recordOps) {
        for (auto &l : opLogs) {
            result.opLog.insert(result.opLog.end(), l.begin(), l.end());
        }
        std::sort(result.opLog.begin(), result.opLog.end(), opOrderLess);
        OracleOutcome verdict =
            replayOps(result.opLog, result.checksum, result.finalSize,
                      result.invariantOk, cfg.seed);
        result.oracleChecked = true;
        result.oracleOk = verdict.ok;
        result.oracleDiag = std::move(verdict.diag);
    }
    return result;
}

ReplayOutcome
replayThroughBackend(TmBackend &backend, WorkloadKind workload,
                     unsigned hash_buckets,
                     const std::vector<OpRecord> &log)
{
    ReplayOutcome out;
    backend.run({[&](TmExec &t) {
        DsInstance ds = makeDs(t, workload, hash_buckets);
        for (std::size_t i = 0; i < log.size(); ++i) {
            const OpRecord &op = log[i];
            bool res;
            switch (op.kind) {
              case OpKind::Insert:
                res = ds.ops.insert(t, op.key, op.value);
                break;
              case OpKind::Remove:
                res = ds.ops.remove(t, op.key);
                break;
              case OpKind::Contains:
              default:
                res = ds.ops.contains(t, op.key);
                break;
            }
            if (res != op.result) {
                out.ok = false;
                std::ostringstream ss;
                ss << "replay op " << i << "/" << log.size() << " ("
                   << opKindName(op.kind) << " key=" << op.key
                   << " core=" << op.core << " epoch="
                   << unsigned(op.epoch) << " stamp=" << op.stamp
                   << ") returned " << (res ? "true" : "false")
                   << " on " << backendKindName(backend.kind())
                   << " but the recording backend observed "
                   << (op.result ? "true" : "false");
                out.diag = ss.str();
                return;
            }
        }
        out.checksum = ds.ops.checksum(t);
        out.finalSize = ds.ops.size(t);
        out.invariantOk = ds.ops.invariant(t);
    }});
    return out;
}

CrossCheckOutcome
crossValidateNative(const NativeExperimentConfig &cfg)
{
    return crossValidateNative(cfg, nullptr);
}

CrossCheckOutcome
crossValidateNative(const NativeExperimentConfig &cfg,
                    NativeExperimentResult *native_out)
{
    CrossCheckOutcome out;
    auto fail = [&](const std::string &what) {
        out.ok = false;
        std::ostringstream ss;
        ss << what << " [workload=" << workloadName(cfg.workload)
           << " threads=" << cfg.threads << " seed=" << cfg.seed << "]";
        out.diag = ss.str();
    };

    NativeExperimentConfig ncfg = cfg;
    ncfg.recordOps = true;
    NativeExperimentResult native = runNativeDataStructure(ncfg);
    if (native_out)
        *native_out = native;
    if (!native.nativeInvariantsOk) {
        fail("native invariants: " + native.nativeInvariantDiag);
        return out;
    }
    if (!native.oracleOk) {
        fail("native oracle: " + native.oracleDiag);
        return out;
    }

    SimBackendConfig sc;
    sc.session.scheme = TmScheme::Sequential;
    sc.session.numThreads = 1;
    SimBackend sim(sc);
    ReplayOutcome rep = replayThroughBackend(sim, cfg.workload,
                                             cfg.hashBuckets,
                                             native.opLog);
    if (!rep.ok) {
        fail("sim replay diverged: " + rep.diag);
        return out;
    }
    if (!rep.invariantOk) {
        fail("sim replay broke the structural invariant");
        return out;
    }
    if (rep.finalSize != native.finalSize ||
        rep.checksum != native.checksum) {
        std::ostringstream ss;
        ss << "final state differs: native size=" << native.finalSize
           << " checksum=" << native.checksum << ", sim size="
           << rep.finalSize << " checksum=" << rep.checksum;
        fail(ss.str());
        return out;
    }
    return out;
}

} // namespace hastm
