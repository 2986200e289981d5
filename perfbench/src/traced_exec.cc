#include "traced_exec.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

namespace perfbench {

const char *
spanName(SpanName n)
{
    switch (n) {
      case SpanName::Op:      return "op";
      case SpanName::Request: return "request";
      case SpanName::Submit:  return "service.submit";
      case SpanName::Handoff: return "service.handoff";
      case SpanName::Exec:    return "service.exec";
      case SpanName::Collect: return "service.collect";
      case SpanName::Atomic:  return "native.atomic";
      case SpanName::Attempt: return "native.aborted_attempt";
      case SpanName::Body:    return "workloads.body";
      case SpanName::Read:    return "native.read";
      case SpanName::Write:   return "native.write";
      case SpanName::SimRun:  return "sim.run";
    }
    return "?";
}

void
LayerAgg::merge(const LayerAgg &o)
{
    ops += o.ops;
    attempts += o.attempts;
    beginNs += o.beginNs;
    retryNs += o.retryNs;
    bodyNs += o.bodyNs;
    bodyBarrierNs += o.bodyBarrierNs;
    commitNs += o.commitNs;
    rdNs += o.rdNs;
    rdCalls += o.rdCalls;
    wrNs += o.wrNs;
    wrCalls += o.wrCalls;
}

void
TracedExec::unreachable()
{
    std::fprintf(stderr, "perfbench: TracedExec retry-loop hook called\n");
    std::abort();
}

bool
TracedExec::atomic(const std::function<void()> &fn)
{
    if (inner_.inTx())
        return inner_.atomic(fn);  // nested: the inner thread flattens

    std::uint64_t entry = nowNs();
    std::int32_t atomic_span =
        sampled_ ? log_.add(SpanName::Atomic, opId_, entry, entry, parent_)
                 : -1;
    std::uint64_t first_body = 0, body_start = 0, body_end = 0;
    unsigned attempts = 0;
    bodySpan_ = -1;
    bool ok = inner_.atomic([&] {
        std::uint64_t s = nowNs();
        if (attempts++ == 0)
            first_body = s;
        body_start = s;
        barrierNs_ = 0;
        if (sampled_) {
            // The previous attempt aborted: it ran from its entry to
            // here, rollback and backoff included.
            log_.close(bodySpan_, s, SpanName::Attempt);
            bodySpan_ = log_.add(SpanName::Body, opId_, s, s, atomic_span);
        }
        fn();
        body_end = nowNs();
    });
    std::uint64_t ret = nowNs();
    if (sampled_) {
        log_.close(bodySpan_, body_end, SpanName::Body);
        log_.close(atomic_span, ret, SpanName::Atomic);
    }
    ++agg_.ops;
    agg_.attempts += attempts;
    agg_.beginNs += first_body - entry;
    agg_.retryNs += body_start - first_body;
    agg_.bodyNs += body_end - body_start;
    agg_.bodyBarrierNs += barrierNs_;
    agg_.commitNs += ret - body_end;
    return ok;
}

std::uint64_t
TracedExec::readWord(hastm::Addr a)
{
    std::uint64_t s = nowNs();
    std::uint64_t v = inner_.readWord(a);
    std::uint64_t e = nowNs();
    agg_.rdNs += e - s;
    ++agg_.rdCalls;
    noteBarrier(SpanName::Read, s, e);
    return v;
}

std::uint64_t
TracedExec::readField(hastm::Addr obj, unsigned off)
{
    std::uint64_t s = nowNs();
    std::uint64_t v = inner_.readField(obj, off);
    std::uint64_t e = nowNs();
    agg_.rdNs += e - s;
    ++agg_.rdCalls;
    noteBarrier(SpanName::Read, s, e);
    return v;
}

void
TracedExec::writeWord(hastm::Addr a, std::uint64_t v, bool is_ptr)
{
    std::uint64_t s = nowNs();
    inner_.writeWord(a, v, is_ptr);
    std::uint64_t e = nowNs();
    agg_.wrNs += e - s;
    ++agg_.wrCalls;
    noteBarrier(SpanName::Write, s, e);
}

void
TracedExec::writeField(hastm::Addr obj, unsigned off, std::uint64_t v,
                       bool is_ptr)
{
    std::uint64_t s = nowNs();
    inner_.writeField(obj, off, v, is_ptr);
    std::uint64_t e = nowNs();
    agg_.wrNs += e - s;
    ++agg_.wrCalls;
    noteBarrier(SpanName::Write, s, e);
}

double
timerCostNs()
{
    constexpr unsigned kCalls = 200'000;
    std::uint64_t sink = 0;
    std::uint64_t s = nowNs();
    for (unsigned i = 0; i < kCalls; ++i)
        sink += nowNs();
    std::uint64_t e = nowNs();
    asm volatile("" : : "r"(sink));
    return double(e - s) / kCalls;
}

std::string
writeChromeTrace(const std::string &dir, const std::string &stem,
                 const std::vector<const SpanLog *> &logs)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string path = dir + "/" + stem + ".json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return "";
    std::uint64_t t0 = ~std::uint64_t(0);
    for (const SpanLog *l : logs) {
        for (const Span &s : l->spans())
            t0 = std::min(t0, s.start);
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    bool first = true;
    for (std::size_t tid = 0; tid < logs.size(); ++tid) {
        for (const Span &s : logs[tid]->spans()) {
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%llu,\"parent\":\"%d:%d\"}}",
                         first ? "" : ",", spanName(s.name), tid,
                         double(s.start - t0) / 1000.0,
                         double(s.end - s.start) / 1000.0,
                         (unsigned long long)s.id,
                         s.parentLog < 0 ? int(tid) : int(s.parentLog),
                         int(s.parent));
            first = false;
        }
    }
    std::fprintf(f, "\n]}\n");
    bool ok = std::fclose(f) == 0;
    return ok ? path : "";
}

std::vector<SelfTime>
selfTimes(const std::vector<const SpanLog *> &logs)
{
    std::vector<SelfTime> out(std::size_t(SpanName::SimRun) + 1);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].name = SpanName(i);
    for (const SpanLog *l : logs) {
        const std::vector<Span> &spans = l->spans();
        std::vector<std::uint64_t> childNs(spans.size(), 0);
        for (const Span &s : spans) {
            // Cross-thread children (a worker's exec under the
            // generator's request) wait rather than nest: only
            // same-log children are subtracted.
            if (s.parent >= 0 && s.parentLog < 0)
                childNs[std::size_t(s.parent)] += s.end - s.start;
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            std::uint64_t dur = spans[i].end - spans[i].start;
            SelfTime &st = out[std::size_t(spans[i].name)];
            st.selfNs += dur > childNs[i] ? dur - childNs[i] : 0;
            ++st.count;
        }
    }
    return out;
}

void
addTracedLayers(WorkloadResult &r, const LayerAgg &agg,
                const hastm::TmStats &d, double ops, const Options &opt,
                const std::string &stem,
                const std::vector<const SpanLog *> &logs)
{
    double timer = timerCostNs();
    double n = double(std::max<std::uint64_t>(1, agg.ops));
    auto per_call = [&](std::uint64_t ns, double calls) {
        return calls > 0 ? std::max(0.0, double(ns) / calls - timer) : 0.0;
    };
    double data_calls = double(agg.rdCalls + agg.wrCalls) / n;
    const char *comp = "per call, clock cost taken off";
    r.add("native.begin_ns", per_call(agg.beginNs, n), "ns", comp);
    r.add("native.commit_ns", per_call(agg.commitNs, n), "ns", comp);
    r.add("native.read_barrier_ns", per_call(agg.rdNs, double(agg.rdCalls)),
          "ns", comp);
    r.add("native.write_barrier_ns", per_call(agg.wrNs, double(agg.wrCalls)),
          "ns", comp);
    r.add("native.barriers_per_op",
          ratio(double(d.rdBarriers + d.wrBarriers), ops), "count");
    r.add("native.retry_ns_per_op", double(agg.retryNs) / n, "ns");
    r.add("native.abort_ratio",
          ratio(double(d.aborts), double(d.aborts + d.commits)), "ratio");
    r.add("native.extension_fail_ratio",
          ratio(double(d.extensionFailures),
                double(d.extensions + d.extensionFailures)),
          "ratio");
    r.add("native.serial_per_mop", ratio(double(d.irrevocableEntries), ops) * 1e6,
          "1/Mop");
    r.add("native.clock_skip_ratio",
          ratio(double(d.clockBumpsSkipped), double(d.commits)), "ratio");
    // The body holds one clock read of its own and one outside each
    // data call's span.
    double self = double(agg.bodyNs - std::min(agg.bodyNs, agg.bodyBarrierNs)) / n;
    r.add("workloads.self_ns_per_op",
          std::max(0.0, self - (1 + data_calls) * timer), "ns",
          "committing attempt minus its data calls, clock cost taken off");
    r.add("bench.timer_ns", timer, "ns", "one steady_clock read");

    std::string path = writeChromeTrace(opt.traceDir, stem, logs);
    r.context.push_back({"trace_file", path.empty() ? "(not written)" : path});
    for (const SelfTime &st : selfTimes(logs)) {
        if (st.count != 0)
            r.context.push_back({std::string("self_ns.") + spanName(st.name),
                                 std::to_string(double(st.selfNs) /
                                                double(st.count))});
    }
}

} // namespace perfbench
