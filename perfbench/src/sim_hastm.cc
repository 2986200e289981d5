/**
 * @file
 * sim-hastm: the simulator's own host speed on the paper's comparison.
 * One op is a pair of runDataStructure calls — a BST on 4 simulated
 * cores, first under HASTM, then under the base STM — so the simulator
 * layers (sim/ mem/ cpu/ stm/ hastm/) do all the work. Four host
 * threads each run pairs of independent experiments, the way the
 * parallel experiment runner (harness/runner.hh) runs a bench sweep.
 * Simulated results are deterministic in the config, so every repeat
 * must reproduce the first exactly, and a fixed reference config must
 * reproduce the values recorded below.
 */

#include <algorithm>
#include <string>
#include <thread>

#include "common.hh"
#include "harness/experiment.hh"
#include "traced_exec.hh"

namespace perfbench {

namespace {

constexpr unsigned kThreads = 4;
/**
 * Thread 0 times a populate-only call before every kSetupEvery-th
 * pair: set-up takes ~3 ms and host speed drifts over seconds, so
 * samples spread over the whole run give a steadier median than a
 * burst of set-ups at its start.
 */
constexpr unsigned kSetupEvery = 4;
/**
 * Experiment seeds derived from --seed, two per host thread, run
 * round robin: simulated work differs by about 8% between seeds, and
 * cycling through several keeps that out of the run-to-run spread.
 */
constexpr unsigned kConfigs = 2 * kThreads;
constexpr std::uint64_t kReferenceSeed = 42;

/** Simulated outcome fields that must repeat exactly. */
struct SimFingerprint
{
    std::uint64_t instructions = 0;
    std::uint64_t makespan = 0;
    std::uint64_t checksum = 0;
    std::uint64_t finalSize = 0;
    std::uint64_t l1HitLoads = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;

    bool operator==(const SimFingerprint &) const = default;

    std::string
    str() const
    {
        return "instr=" + std::to_string(instructions) +
               " makespan=" + std::to_string(makespan) +
               " checksum=" + std::to_string(checksum) +
               " size=" + std::to_string(finalSize) +
               " l1hits=" + std::to_string(l1HitLoads) +
               " commits=" + std::to_string(commits) +
               " aborts=" + std::to_string(aborts);
    }
};

SimFingerprint
fingerprint(const hastm::ExperimentResult &r)
{
    return {r.instructions, r.makespan,  r.checksum,  r.finalSize,
            r.l1HitLoads,   r.tm.commits, r.tm.aborts};
}

/**
 * Recorded expectation for the reference config (seed 42): HASTM,
 * then STM. A change to the simulator's timing model must update
 * these on purpose; a host-speed optimisation must leave them alone.
 */
constexpr SimFingerprint kExpectHastm{417569, 108428, 11359185282530830112ull,
                                      345,    65099,  1024, 8};
constexpr SimFingerprint kExpectStm{736773, 169672, 11359185282530830112ull,
                                    345,    161998, 1024, 5};

hastm::ExperimentConfig
simConfig(hastm::TmScheme scheme, std::uint64_t seed)
{
    hastm::ExperimentConfig cfg;
    cfg.workload = hastm::WorkloadKind::Bst;
    cfg.scheme = scheme;
    cfg.threads = 4;
    cfg.totalOps = 1024;
    cfg.updatePct = 20;
    cfg.initialSize = 256;
    cfg.keyRange = 2048;
    cfg.seed = seed;
    // 8 MB of simulated memory holds this structure with room to
    // spare; the 64 MB default would make zeroing the arena, not
    // simulating, most of every call's host time.
    cfg.machine.arenaBytes = 8ull << 20;
    return cfg;
}

/** One host thread's pairs; written by its owner only. */
struct alignas(64) SimThread
{
    LatHist pairLat;
    std::uint64_t pairs = 0, pairNs = 0;
    std::uint64_t tracedPairs = 0, tracedNs = 0;
    std::uint64_t instr = 0;  //!< simulated instructions, measured pairs
    std::uint64_t attempted = 0, mismatches = 0;
    bool oracleOk = true, invariantOk = true;
    std::string diag;
    /** First result of each of this thread's two configs. */
    hastm::ExperimentResult firstH[2], firstS[2];
    SpanLog spans;
    /** Process CPU when the measured loop starts (thread 0 only). */
    CpuTimes cpuAtMeasure;
    /** Populate-only call times, in s (thread 0 only). */
    std::vector<double> setups;
};

/** Phase boundaries of the measured loop, in steady-clock ns. */
struct SimPhases
{
    std::uint64_t measureStart = 0;
    std::uint64_t tracedStart = 0;
    std::uint64_t end = 0;
};

void
runPairs(unsigned tid, const SimPhases &p, const Options &opt,
         SimThread &st)
{
    using hastm::TmScheme;
    bool measuring = false;
    for (std::uint64_t i = 0;; ++i) {
        std::uint64_t t0 = nowNs();
        if (t0 >= p.end)
            break;
        if (tid == 0 && !measuring && t0 >= p.measureStart) {
            measuring = true;
            st.cpuAtMeasure = processCpu();
        }
        // Configs tid and tid + kThreads, alternately.
        unsigned slot = unsigned(i % 2);
        std::uint64_t seed = opt.seed * kConfigs + tid + slot * kThreads;
        hastm::ExperimentConfig h = simConfig(TmScheme::Hastm, seed);
        hastm::ExperimentConfig s = simConfig(TmScheme::Stm, seed);
        if (tid == 0 && i % kSetupEvery == 0) {
            hastm::ExperimentConfig c = h;
            c.totalOps = 0;
            std::uint64_t s0 = nowNs();
            hastm::runDataStructure(c);
            st.setups.push_back(double(nowNs() - s0) * 1e-9);
        }
        // The first pair of each config also runs the replay oracle
        // (host-side only: recording charges no simulated cycles, so
        // it must not move the fingerprint either).
        bool first = i < 2;
        h.recordOps = s.recordOps = first;
        bool traced = opt.trace && t0 >= p.tracedStart;
        std::uint64_t a = nowNs();
        hastm::ExperimentResult rh = hastm::runDataStructure(h);
        std::uint64_t b = nowNs();
        hastm::ExperimentResult rs = hastm::runDataStructure(s);
        std::uint64_t c = nowNs();
        if (traced) {
            std::int32_t op = st.spans.add(SpanName::Op, i, a, c, -1);
            st.spans.add(SpanName::SimRun, i, a, b, op);
            st.spans.add(SpanName::SimRun, i, b, c, op);
        }
        st.attempted += 2;
        st.invariantOk = st.invariantOk && rh.invariantOk && rs.invariantOk;
        if (opt.injectFault && tid == 0 && i == 2)
            rh.checksum ^= 1;  // one wrong result, to prove the check
        if (first) {
            if (!(rh.oracleOk && rs.oracleOk && rh.oracleChecked &&
                  rs.oracleChecked)) {
                st.oracleOk = false;
                st.diag += rh.oracleDiag + rs.oracleDiag;
            }
            st.firstH[slot] = rh;
            st.firstS[slot] = rs;
        } else {
            SimFingerprint gh = fingerprint(rh), gs = fingerprint(rs);
            if (!(gh == fingerprint(st.firstH[slot]))) {
                ++st.mismatches;
                st.diag = "seed " + std::to_string(seed) + " hastm{" +
                          gh.str() + "}";
            }
            if (!(gs == fingerprint(st.firstS[slot]))) {
                ++st.mismatches;
                st.diag = "seed " + std::to_string(seed) + " stm{" +
                          gs.str() + "}";
            }
        }

        if (t0 < p.measureStart)
            continue;
        st.instr += rh.instructions + rs.instructions;
        if (traced) {
            ++st.tracedPairs;
            st.tracedNs += c - a;
        } else {
            ++st.pairs;
            st.pairNs += c - a;
            st.pairLat.record(c - a);
        }
    }
}

} // namespace

WorkloadResult
runSimHastm(const Options &opt)
{
    using hastm::TmScheme;
    WorkloadResult r;
    r.workload = "sim-hastm";
    hastm::ExperimentConfig c0 = simConfig(TmScheme::Hastm, opt.seed);
    r.context = {
        {"host_threads", std::to_string(kThreads)},
        {"experiment_seeds", std::to_string(kConfigs) + ", seed * " +
                                 std::to_string(kConfigs) + " and up"},
        {"simulated_cores", std::to_string(c0.threads)},
        {"structure", "BST, " + std::to_string(c0.initialSize) +
                          " populated of " + std::to_string(c0.keyRange) +
                          " keys"},
        {"ops_per_call", std::to_string(c0.totalOps)},
        {"op", "one HASTM + one STM runDataStructure call"},
    };

    // ---- reference config against the recorded expectation ----
    hastm::ExperimentResult ref_h =
        hastm::runDataStructure(simConfig(TmScheme::Hastm, kReferenceSeed));
    hastm::ExperimentResult ref_s =
        hastm::runDataStructure(simConfig(TmScheme::Stm, kReferenceSeed));
    SimFingerprint fh = fingerprint(ref_h), fs = fingerprint(ref_s);
    r.check("sim_reference_expectation",
            fh == kExpectHastm && fs == kExpectStm,
            "hastm{" + fh.str() + "} stm{" + fs.str() + "}");

    // ---- measured pairs, one loop per host thread ----
    double warm = std::min(1.0, 0.1 * opt.seconds);
    double measured = opt.seconds - warm;
    SimPhases p;
    std::uint64_t start = nowNs();
    p.measureStart = start + std::uint64_t(warm * 1e9);
    p.tracedStart = p.measureStart +
                    std::uint64_t((opt.trace ? 0.5 : 1.0) * measured * 1e9);
    p.end = start + std::uint64_t(opt.seconds * 1e9);

    std::vector<SimThread> st(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 1; t < kThreads; ++t)
        threads.emplace_back([&, t] { runPairs(t, p, opt, st[t]); });
    runPairs(0, p, opt, st[0]);
    for (std::thread &t : threads)
        t.join();
    const CpuTimes &cpu0 = st[0].cpuAtMeasure;
    CpuTimes cpu1 = processCpu();

    LatHist lat;
    double rate = 0, traced_rate = 0;
    std::uint64_t pairs = 0, host_ns = 0, instr = 0, mismatches = 0;
    bool oracle_ok = true, invariant_ok = true;
    std::string diag;
    std::vector<const SpanLog *> logs;
    for (const SimThread &s : st) {
        lat.merge(s.pairLat);
        rate += ratio(double(s.pairs), double(s.pairNs) * 1e-9);
        traced_rate += ratio(double(s.tracedPairs), double(s.tracedNs) * 1e-9);
        pairs += s.pairs;
        host_ns += s.pairNs + s.tracedNs;
        instr += s.instr;
        mismatches += s.mismatches;
        oracle_ok = oracle_ok && s.oracleOk;
        invariant_ok = invariant_ok && s.invariantOk;
        r.attempted += s.attempted;
        if (!s.diag.empty())
            diag = s.diag;
        logs.push_back(&s.spans);
    }
    double minstr_per_s = double(instr) / 1e6 / (double(host_ns) * 1e-9);

    r.check("replay_oracle", oracle_ok,
            oracle_ok ? "replayOps on the first HASTM and STM run of every "
                        "seed"
                      : diag);
    r.check("repeat_identical", mismatches == 0,
            mismatches == 0
                ? "every repeat matched its seed's first run; seed " +
                      std::to_string(opt.seed * kConfigs) + ": hastm{" +
                      fingerprint(st[0].firstH[0]).str() + "} stm{" +
                      fingerprint(st[0].firstS[0]).str() + "}"
                : std::to_string(mismatches) + " repeats differ, last " +
                      diag,
            mismatches);
    r.check("structure_invariant", invariant_ok, "BST invariant, every run");
    r.skip("native_invariants", "no native layer in this workload");

    if (!opt.trace) {
        double q = tailQuantile(lat.count());
        r.add("setup_s", median(st[0].setups), "s",
              "median of " + std::to_string(st[0].setups.size()) +
                  " populate-only runDataStructure calls across the run");
        r.add("ops_per_s", rate, "1/s",
              "pairs per host-second, summed over host threads");
        r.add("op_p50_us", lat.quantile(0.5) / 1000, "us",
              "n=" + std::to_string(lat.count()));
        r.add("op_p99_us", lat.quantile(q) / 1000, "us",
              quantileLabel(q) + "; n=" + std::to_string(lat.count()));
        r.add("cpu_us_per_op",
              double(cpu1.total() - cpu0.total()) / 1000 /
                  double(std::max<std::uint64_t>(1, pairs)),
              "us", "getrusage user+sys per pair");
        r.add("peak_rss_mb", peakRssMb(), "MB");
        r.context.push_back({"sim_minstr_per_s", std::to_string(minstr_per_s)});
        return r;
    }

    // Exact per-layer counts come from the first seed's results.
    const hastm::ExperimentResult &h = st[0].firstH[0];
    const hastm::ExperimentResult &s = st[0].firstS[0];
    r.add("sim.instructions", double(h.instructions), "count", "HASTM run");
    r.add("sim.makespan_cycles", double(h.makespan), "count", "HASTM run");
    r.add("sim.minstr_per_s", minstr_per_s, "Minstr/s",
          "simulated instructions per host-second of one host thread, both "
          "schemes, set-up included");
    r.add("mem.l1_hit_ratio", ratio(double(h.l1HitLoads), double(h.loads)),
          "ratio", "HASTM run");
    double core_cycles = 0;
    for (hastm::Cycles c : s.phaseCycles)
        core_cycles += double(c);
    for (std::size_t ph = 0; ph < std::size_t(hastm::Phase::Lock); ++ph) {
        r.add(std::string("stm.phase_share.") +
                  hastm::phaseName(hastm::Phase(ph)),
              ratio(double(s.phaseCycles[ph]), core_cycles), "ratio",
              "STM run, share of all simulated core cycles");
    }
    r.add("hastm.sim_speedup", ratio(double(s.makespan), double(h.makespan)),
          "ratio", "STM makespan / HASTM makespan");
    r.add("bench.trace_overhead", ratio(rate, traced_rate), "ratio",
          "pairs per host-second, untraced / traced");
    r.add("bench.timer_ns", timerCostNs(), "ns");
    std::string path = writeChromeTrace(
        opt.traceDir, "sim-hastm-seed" + std::to_string(opt.seed), logs);
    r.context.push_back({"trace_file", path.empty() ? "(not written)" : path});
    return r;
}

} // namespace perfbench
