/**
 * @file
 * Host-performance benchmark, two modes selected by --backend:
 *
 * Default (sim): runs a Fig 18-20-style sweep once sequentially
 * (--jobs 1) and once under the thread pool, measures both wall
 * times, and proves the parallel pass produced bit-identical
 * simulation results. The parallel job count comes from --jobs /
 * $HASTM_BENCH_JOBS, else min(4, host cores). On a single-core host
 * the pool cannot win and the speedup honestly reports ~1.0; the
 * committed baseline records `hostCores` so readers can tell.
 *
 * --backend native: the protocol scaling sweep — hash-table runs on
 * real host threads (1/2/4/8) x three mixes (read-heavy, write-heavy,
 * disjoint) x both native protocols (TL2-style snapshot clock vs the
 * McRT-style one). Each cell is fixed-time: a warm-up, then the
 * best of kCellReps measured runs of kCellMs (ops done / wall time),
 * with a self-checked acceptance bar: snapshot >= 1.5x McRT on the
 * read-heavy 4-thread cell and >= parity everywhere else (failing
 * cells are re-measured before the verdict; bars above the host's
 * core count are reported but not enforced). The absolute scaling
 * t4/t1 of each mix and protocol is printed and recorded in the
 * scalingSummary block. Both protocols are then
 * cross-validated by replaying recorded native op logs through the
 * simulator (three seeds per workload; any divergence fails the run).
 * --ci trims to 1/2/4 threads and one seed. Emits
 * BENCH_host_native.json (schema v7) under $HASTM_BENCH_JSON.
 */

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/latency_hist.hh"
#include "harness/native_experiment.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "service/executor.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace hastm;

namespace {

std::vector<ExperimentConfig>
sweepConfigs()
{
    std::vector<ExperimentConfig> cfgs;
    const WorkloadKind workloads[] = {WorkloadKind::Bst,
                                      WorkloadKind::Btree,
                                      WorkloadKind::HashTable};
    const TmScheme schemes[] = {TmScheme::Hastm, TmScheme::Stm,
                                TmScheme::Lock};
    for (WorkloadKind w : workloads) {
        for (unsigned ci = 0; ci < 3; ++ci) {
            for (TmScheme s : schemes) {
                ExperimentConfig cfg;
                cfg.workload = w;
                cfg.scheme = s;
                cfg.threads = 1u << ci;
                cfg.totalOps = 4096;
                cfg.initialSize = 32768;
                cfg.keyRange = 131072;
                cfg.hashBuckets = 4096;
                cfg.machine.arenaBytes = 128ull * 1024 * 1024;
                cfg.machine.mem.l1 = CacheParams{16 * 1024, 4, 64, 16};
                cfg.machine.mem.l2 = CacheParams{128 * 1024, 8, 64, 16};
                cfg.machine.mem.prefetchDegree = 2;
                cfgs.push_back(cfg);
            }
        }
    }
    return cfgs;
}

std::uint64_t
wallNanos(const std::chrono::steady_clock::time_point &t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/** Serialise everything deterministic (hostNanos zeroed out). */
std::string
fingerprint(ExperimentResult r)
{
    r.hostNanos = 0;
    std::ostringstream os;
    toJson(r).dump(os, 0);
    return os.str();
}

std::vector<ExperimentResult>
runSweep(const std::vector<ExperimentConfig> &cfgs, unsigned jobs,
         std::uint64_t &nanos)
{
    ExperimentRunner runner(jobs);
    std::vector<ExperimentRunner::Handle> handles;
    for (const ExperimentConfig &cfg : cfgs)
        handles.push_back(runner.add(cfg));
    auto t0 = std::chrono::steady_clock::now();
    runner.runAll();
    nanos = wallNanos(t0);
    std::vector<ExperimentResult> results;
    for (auto h : handles)
        results.push_back(runner.result(h));
    return results;
}

/** One cell of the native scaling sweep. */
struct MixSpec
{
    const char *name;
    unsigned updatePct;
    bool disjoint;
};

/** Scaling-sweep cell timing: measured length (after a warm-up of a
 *  quarter of it), best-of-N. */
constexpr unsigned kCellMs = 200;
constexpr int kCellReps = 3;

NativeExperimentConfig
scalingCellConfig(const MixSpec &mix, unsigned threads, bool snapshot)
{
    NativeExperimentConfig cfg;
    cfg.workload = WorkloadKind::HashTable;
    cfg.threads = threads;
    cfg.totalOps = 0;  // time-bounded: see measureMs
    cfg.measureMs = kCellMs;
    cfg.updatePct = mix.updatePct;
    cfg.disjoint = mix.disjoint;
    cfg.initialSize = 4096;
    cfg.keyRange = 16384;
    cfg.hashBuckets = 1024;
    cfg.stm.nativeSnapshotClock = snapshot;
    return cfg;
}

/** Run @p cfg once; keep whichever of @p best / the new run is faster. */
void
improveBest(const NativeExperimentConfig &cfg, NativeExperimentResult &best,
            bool &invariants_ok)
{
    NativeExperimentResult r = runNativeDataStructure(cfg);
    if (!r.invariantOk || r.opsPerSec <= 0.0)
        invariants_ok = false;
    if (r.opsPerSec > best.opsPerSec)
        best = std::move(r);
}

/**
 * --backend native: old-vs-new protocol scaling sweep plus the
 * sim-vs-native cross-validation of both protocols. Exits non-zero if
 * any run breaks an invariant, any recorded log fails to replay
 * through the simulator, or the sweep misses its self-checked
 * acceptance bar (snapshot >= 1.5x McRT on read-heavy 4-thread,
 * >= parity on every other cell). --ci trims the sweep to 1/2/4
 * threads and one cross-validation seed for the release job.
 */
int
runNativeMode(int argc, char **argv)
{
    bool ci = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--ci")
            ci = true;
    }
    BenchReport report("host_native", argc, argv);
    unsigned host_cores = std::thread::hardware_concurrency();

    const MixSpec mixes[] = {
        {"read-heavy", 10, false},
        {"write-heavy", 80, false},
        {"disjoint", 20, true},
    };
    std::vector<unsigned> thread_counts = {1, 2, 4};
    if (!ci)
        thread_counts.push_back(8);

    std::cout << "Host-perf (native backend): snapshot-clock vs McRT "
              << "protocol scaling sweep (host cores: " << host_cores
              << (ci ? ", reduced CI sweep" : "") << ")\n\n";

    bool ok = true;
    bool bars_ok = true;
    Json cells = Json::array();
    Table table({"mix", "threads", "mcrt_mops", "snap_mops", "ratio",
                 "bar", "verdict"});
    // Absolute scaling: each protocol's 4-thread ops/sec over its own
    // 1-thread ops/sec, per mix.
    Json scaling = Json::array();
    Table scalingTable({"mix", "mcrt_t4/t1", "snap_t4/t1"});
    for (const MixSpec &mix : mixes) {
        double t1[2] = {0.0, 0.0};  // {mcrt, snapshot} 1-thread ops/sec
        for (unsigned th : thread_counts) {
            NativeExperimentConfig oldCfg =
                scalingCellConfig(mix, th, false);
            NativeExperimentConfig newCfg =
                scalingCellConfig(mix, th, true);
            NativeExperimentResult oldBest, newBest;
            // Best-of-N per protocol: wall-clock throughput is noisy
            // and the bar below compares two maxima, not two samples.
            for (int rep = 0; rep < kCellReps; ++rep) {
                improveBest(oldCfg, oldBest, ok);
                improveBest(newCfg, newBest, ok);
            }
            bool read_heavy_4t =
                std::string(mix.name) == "read-heavy" && th == 4;
            double bar = read_heavy_4t ? 1.5 : 1.0;
            // The 1.5x claim needs real parallelism to show up.
            bool bar_applies = host_cores == 0 || th <= host_cores;
            double ratio = newBest.opsPerSec / oldBest.opsPerSec;
            // Re-measure a failing cell (up to two extra reps per
            // protocol) before declaring a regression: one descheduled
            // rep must not fail the sweep.
            for (int extra = 0; extra < 2 && bar_applies && ratio < bar;
                 ++extra) {
                improveBest(oldCfg, oldBest, ok);
                improveBest(newCfg, newBest, ok);
                ratio = newBest.opsPerSec / oldBest.opsPerSec;
            }
            bool pass = !bar_applies || ratio >= bar;
            if (!pass) {
                bars_ok = false;
                warn("host_perf: %s x%u: snapshot/mcrt ratio %.2f "
                     "missed the %.1fx bar", mix.name, th, ratio, bar);
            }
            std::string cell = std::string(mix.name) + "/t" +
                               std::to_string(th);
            report.add("scale/" + cell + "/mcrt", oldCfg, oldBest);
            report.add("scale/" + cell + "/snapshot", newCfg, newBest);
            Json c = Json::object();
            c.set("mix", mix.name)
                .set("threads", std::uint64_t(th))
                .set("mcrtOpsPerSec", oldBest.opsPerSec)
                .set("snapshotOpsPerSec", newBest.opsPerSec)
                .set("ratio", ratio)
                .set("bar", bar)
                .set("barApplies", bar_applies)
                .set("pass", pass);
            cells.push(std::move(c));
            if (th == 1) {
                t1[0] = oldBest.opsPerSec;
                t1[1] = newBest.opsPerSec;
            } else if (th == 4) {
                Json sc = Json::object();
                sc.set("mix", mix.name)
                    .set("mcrtT4OverT1", oldBest.opsPerSec / t1[0])
                    .set("snapshotT4OverT1", newBest.opsPerSec / t1[1]);
                scalingTable.addRow(
                    {mix.name, fmt(oldBest.opsPerSec / t1[0]),
                     fmt(newBest.opsPerSec / t1[1])});
                scaling.push(std::move(sc));
            }
            table.addRow({mix.name, fmt(std::uint64_t(th)),
                          fmt(oldBest.opsPerSec * 1e-6),
                          fmt(newBest.opsPerSec * 1e-6), fmt(ratio),
                          bar_applies ? fmt(bar) : "n/a",
                          pass ? "ok" : "MISSED"});
        }
    }
    table.print(std::cout);
    std::cout << "\nAbsolute scaling (4-thread over 1-thread ops/sec):\n";
    scalingTable.print(std::cout);
    if (!bars_ok)
        ok = false;

    // ---- per-op host latency: individual transactional ops timed
    // with the host clock into the same log-linear percentile
    // histogram the service uses (harness/latency_hist.hh). The
    // percentiles vary run to run like every wall-clock field; the
    // point is the shape — a tight p50 with a visible syscall/
    // scheduling tail — and that the histogram machinery serves a
    // second, real consumer beyond bench/serve. ----
    std::cout << "\nPer-op host latency (single thread, hash table, "
              << "20% updates):\n";
    {
        StmConfig stm;
        NativeRequestExecutor exec{stm};
        ExecutorWorkload w;
        w.workload = WorkloadKind::HashTable;
        w.hashBuckets = 1024;
        w.initialSize = 4096;
        w.keyRange = 16384;
        w.seed = 1;
        exec.populate(w);
        LatencyHistogram hist;
        Rng rng(42);
        std::uint64_t op_count = ci ? 20000 : 100000;
        for (std::uint64_t i = 0; i < op_count; ++i) {
            ServiceRequest req;
            std::uint64_t roll = rng.range(100);
            req.op = roll < 80 ? OpKind::Contains
                     : roll < 90 ? OpKind::Insert
                                 : OpKind::Remove;
            req.key = rng.range(w.keyRange);
            req.value = rng.next() >> 16;
            auto t0 = std::chrono::steady_clock::now();
            exec.execute(req, 0);
            hist.record(wallNanos(t0));
        }
        std::cout << "  ops " << hist.count() << ", p50 "
                  << hist.quantile(0.50) << "ns, p99 "
                  << hist.quantile(0.99) << "ns, p999 "
                  << hist.quantile(0.999) << "ns, max " << hist.max()
                  << "ns\n";
        Json lat = Json::object();
        lat.set("ops", hist.count()).set("latency", toJson(hist));
        report.addCustom("perOpLatency", std::move(lat));
    }

    // ---- cross-validation: native logs must replay through the sim,
    // under both protocols ----
    std::cout << "\nCross-validation (native op logs replayed through "
                 "the simulated backend, both protocols):\n";
    const WorkloadKind workloads[] = {WorkloadKind::Bst,
                                      WorkloadKind::Btree,
                                      WorkloadKind::HashTable};
    std::uint64_t max_seed = ci ? 1 : 3;
    unsigned passed = 0, total = 0;
    for (WorkloadKind w : workloads) {
        for (std::uint64_t seed = 1; seed <= max_seed; ++seed) {
            for (bool snapshot : {false, true}) {
                NativeExperimentConfig cfg;
                cfg.workload = w;
                cfg.threads = 4;
                cfg.totalOps = 2000;
                cfg.updatePct = 30;
                cfg.initialSize = 512;
                cfg.keyRange = 2048;
                cfg.hashBuckets = 128;
                cfg.seed = seed;
                cfg.stm.nativeSnapshotClock = snapshot;
                CrossCheckOutcome v = crossValidateNative(cfg);
                ++total;
                if (v.ok) {
                    ++passed;
                } else {
                    ok = false;
                    warn("host_perf: cross-validation FAILED: %s",
                         v.diag.c_str());
                }
                const char *proto = snapshot ? "snapshot" : "mcrt";
                Json data = Json::object();
                data.set("workload", workloadName(w))
                    .set("seed", seed)
                    .set("protocol", proto)
                    .set("threads", std::uint64_t(cfg.threads))
                    .set("totalOps", cfg.totalOps)
                    .set("ok", v.ok);
                if (!v.ok)
                    data.set("diag", v.diag);
                report.addCustom(std::string("xval/") + workloadName(w) +
                                     "/seed" + std::to_string(seed) +
                                     "/" + proto,
                                 std::move(data));
            }
        }
    }
    std::cout << "  " << passed << "/" << total
              << " workload x seed x protocol combinations replay "
                 "identically\n";

    Json summary = Json::object();
    summary.set("hostCores", std::uint64_t(host_cores))
        .set("ciSweep", ci)
        .set("barsOk", bars_ok)
        .set("xvalPassed", std::uint64_t(passed))
        .set("xvalTotal", std::uint64_t(total))
        .set("cellMs", std::uint64_t(kCellMs))
        .set("cellReps", std::uint64_t(kCellReps))
        .set("cells", std::move(cells))
        .set("scaling", std::move(scaling));
    report.addCustom("scalingSummary", std::move(summary));

    std::cout << "\nNative backend verdict: "
              << (ok ? "OK" : "FAILED") << "\n";
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--backend" &&
            std::string(argv[i + 1]) == "native")
            return runNativeMode(argc, argv);
    }
    BenchReport report("host_perf", argc, argv);

    unsigned host_cores = std::thread::hardware_concurrency();
    unsigned jobs = ExperimentRunner::resolveJobs(argc, argv);
    if (jobs == 1)
        jobs = std::min(4u, host_cores ? host_cores : 1u);

    std::vector<ExperimentConfig> cfgs = sweepConfigs();
    std::cout << "Host-perf: Fig 18-20-style sweep ("
              << cfgs.size() << " experiments), sequential vs --jobs "
              << jobs << " (host cores: " << host_cores << ")\n\n";

    std::uint64_t seq_nanos = 0, par_nanos = 0;
    std::vector<ExperimentResult> seq = runSweep(cfgs, 1, seq_nanos);
    std::vector<ExperimentResult> par = runSweep(cfgs, jobs, par_nanos);

    bool identical = true;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        if (fingerprint(seq[i]) != fingerprint(par[i])) {
            identical = false;
            warn("host_perf: experiment %zu diverged under the "
                 "parallel runner", i);
        }
    }

    double speedup = double(seq_nanos) / double(par_nanos);
    Table table({"pass", "jobs", "wall_seconds", "speedup"});
    table.addRow({"sequential", "1", fmt(double(seq_nanos) * 1e-9), "1.00"});
    table.addRow({"parallel", fmt(std::uint64_t(jobs)),
                  fmt(double(par_nanos) * 1e-9), fmt(speedup)});
    table.print(std::cout);
    std::cout << "\nResults bit-identical across passes: "
              << (identical ? "yes" : "NO — DETERMINISM BROKEN") << "\n";

    std::uint64_t total_instr = 0;
    for (const ExperimentResult &r : seq)
        total_instr += r.instructions;
    Json data = Json::object();
    data.set("experiments", std::uint64_t(cfgs.size()))
        .set("jobs", std::uint64_t(jobs))
        .set("hostCores", std::uint64_t(host_cores))
        .set("wallNanosSequential", seq_nanos)
        .set("wallNanosParallel", par_nanos)
        .set("speedup", speedup)
        .set("identicalResults", identical)
        .set("totalSimInstructions", total_instr)
        .set("simInstrPerHostSecSequential",
             double(total_instr) * 1e9 / double(seq_nanos))
        .set("simInstrPerHostSecParallel",
             double(total_instr) * 1e9 / double(par_nanos));
    report.addCustom("sweep", std::move(data));

    return identical ? 0 : 1;
}
