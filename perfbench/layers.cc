// Per-layer probes: each times calls into one module's public
// functions, in-process, on the workload's own inputs.

#include <algorithm>
#include <fstream>
#include <thread>

#include "analysis/certify.h"
#include "bench.h"
#include "common/strutil.h"
#include "gf/clmul.h"
#include "jit/core_translation.h"
#include "jit/translator.h"
#include "sim/machine.h"

using namespace gfp;
using namespace gfp::service;

namespace perfbench {

namespace {

/** Engines whose programs the three workloads run. */
constexpr EngineId kServedEngines[] = {EngineId::kRsSynd, EngineId::kRsBma,
                                       EngineId::kRsChien, EngineId::kRsForney,
                                       EngineId::kAesBlock};

/** Repeat @p fn until @p min_s has passed (at least @p min_calls
 *  times); returns mean seconds per call. */
template <typename Fn>
double
perCall(Fn &&fn, double min_s, size_t min_calls)
{
    const auto t0 = Clock::now();
    size_t calls = 0;
    while (calls < min_calls || secondsSince(t0) < min_s) {
        fn(calls);
        ++calls;
    }
    return secondsSince(t0) / static_cast<double>(calls);
}

template <typename Fn>
double
medianSeconds(Fn &&fn, unsigned reps)
{
    std::vector<double> t;
    for (unsigned i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(secondsSince(t0));
    }
    return quantile(t, 0.5);
}

void
probeWire(const std::vector<Request> &pool, Spans *spans,
          std::map<std::string, double> &m, uint64_t *failures)
{
    constexpr size_t kFrames = 20'000;
    std::vector<uint8_t> out;
    RequestHeader h;
    h.cls = pool[0].cls;
    {
        SpanScope s(spans, "wire.encode", 2);
        m["wire.encode_ns"] = 1e9 * perCall(
                                        [&](size_t i) {
                                            const Request &r = pool[i % pool.size()];
                                            out.clear();
                                            h.id = i;
                                            appendRequestFrame(out, h, r.body.data(),
                                                               r.body.size());
                                        },
                                        0, kFrames);
    }

    // Parse a socket-sized stream of back-to-back frames, as the
    // server's reader does.
    std::vector<uint8_t> stream;
    for (size_t i = 0; i < 256; ++i) {
        const Request &r = pool[i % pool.size()];
        stream.insert(stream.end(), r.frame.begin(), r.frame.end());
    }
    std::vector<uint8_t> payload;
    size_t parsed = 0;
    SpanScope s(spans, "wire.parse", 2);
    const double per_stream = perCall(
        [&](size_t) {
            FrameReader reader(kMaxRequestFrame);
            reader.feed(stream.data(), stream.size());
            RequestHeader ph;
            while (reader.next(&payload) == FrameReader::Next::kFrame)
                parsed += parseRequestHeader(payload.data(), payload.size(), &ph);
        },
        0, kFrames / 256);
    m["wire.parse_ns"] = 1e9 * per_stream / 256.0;
    if (parsed % 256 != 0)
        ++*failures;
}

void
probeSim(const std::map<EngineId, std::vector<Job>> &jobs,
         const EngineSet &engines, Spans *spans,
         std::map<std::string, double> &m, uint64_t *failures)
{
    double run_ns = 0, reset_s = 0;
    uint64_t instrs = 0, runs = 0;
    for (EngineId id : {EngineId::kRsSynd, EngineId::kAesBlock}) {
        const BatchEngine &eng = engines.engine(id);
        Machine machine(eng.program(), eng.kind());
        configureLikeEngine(machine, eng.program(), eng.kind());
        const std::vector<Job> &list = jobs.at(id);
        double run_s = 0;
        size_t n = 0;
        SpanScope whole(spans, "sim.probe", 3);
        const auto t0 = Clock::now();
        while (n < list.size() * 2 || secondsSince(t0) < 0.2) {
            const Job &job = list[n % list.size()];
            Spans *sp = n < list.size() ? spans : nullptr;
            const auto r0 = Clock::now();
            {
                SpanScope s(sp, "sim.reset", 3, whole.index());
                machine.fullReset();
            }
            reset_s += secondsSince(r0);
            for (const auto &[label, bytes] : job.inputs)
                machine.writeBytes(label, bytes);
            for (const auto &[label, value] : job.word_inputs)
                machine.writeWord(label, value);
            const auto x0 = Clock::now();
            RunResult rr;
            {
                SpanScope s(sp, "sim.run", 3, whole.index());
                rr = machine.runToHalt();
            }
            run_s += secondsSince(x0);
            if (!rr.ok())
                ++*failures;
            instrs += rr.stats.instrs;
            ++n;
        }
        m[std::string("sim.run_us.") + engineName(id)] =
            1e6 * run_s / static_cast<double>(n);
        run_ns += 1e9 * run_s;
        runs += n;
    }
    m["sim.reset_us"] = 1e6 * reset_s / static_cast<double>(runs);
    m["sim.host_ns_per_guest_instr"] = run_ns / static_cast<double>(instrs);
}

void
probeCompile(const EngineSet &engines, Spans *spans,
             std::map<std::string, double> &m)
{
    const BatchEngine::Options defaults;
    for (EngineId id : kServedEngines) {
        const BatchEngine &eng = engines.engine(id);
        CertifyOptions copts;
        copts.mem_bytes = defaults.mem_bytes;
        copts.watchdog_max_instrs = defaults.max_instrs;
        m[std::string("analysis.certify_ms.") + engineName(id)] =
            1e3 * medianSeconds(
                      [&] {
                          SpanScope s(spans, "analysis.certify", 4);
                          certifyProgram(eng.program(), copts);
                      },
                      3);
        jit::TranslateOptions topts;
        topts.mem_bytes = defaults.mem_bytes;
        topts.watchdog_max_instrs = defaults.max_instrs;
        m[std::string("jit.compile_ms.") + engineName(id)] =
            1e3 * medianSeconds(
                      [&] {
                          SpanScope s(spans, "jit.compile", 4);
                          jit::translate(eng.program(), eng.kind(), topts);
                      },
                      3);
    }
}

/** Wall time of a one-job submitBatch() + wait() minus the job's own
 *  host time: the engine's fixed cost per batch. */
double
batchFixedUs(BatchEngine &eng, const Job &job, Spans *spans)
{
    std::vector<double> fixed;
    for (unsigned i = 0; i < 200; ++i) {
        SpanScope s(spans, "engine.batch_fixed", 5);
        const auto t0 = Clock::now();
        auto res = eng.wait(eng.submitBatch({job}));
        fixed.push_back(1e6 * (secondsSince(t0) - res[0].host_seconds));
    }
    return quantile(fixed, 0.5);
}

} // namespace

void
configureLikeEngine(Machine &machine, const Program &prog, CoreKind kind)
{
    const BatchEngine::Options defaults;
    machine.core().setDispatchMode(defaults.dispatch);
    if (defaults.dispatch == DispatchMode::kTranslated) {
        jit::TranslateOptions topts;
        topts.mem_bytes = defaults.mem_bytes;
        topts.watchdog_max_instrs = defaults.max_instrs;
        machine.core().setTranslation(
            jit::makeCoreTranslation(jit::translate(prog, kind, topts)));
    }
}

std::map<std::string, double>
probeLayers(EngineSet &engines, const std::vector<Request> &pool,
            const std::map<EngineId, std::vector<Job>> &sim_jobs, Spans *spans,
            uint64_t *failures)
{
    std::map<std::string, double> m;
    probeWire(pool, spans, m, failures);

    size_t valid = 0;
    m["request_classes.validate_ns"] =
        1e9 * perCall(
                  [&](size_t i) {
                      const Request &r = pool[i % pool.size()];
                      valid += validateBody(r.cls, r.body.data(), r.body.size());
                  },
                  0, 20'000);
    if (valid != 20'000)
        ++*failures;

    // The pool driven through EngineSet + advance() until 1 s passed.
    ReplayStats total;
    double first_replay_s = 0;
    const auto t0 = Clock::now();
    while (secondsSince(t0) < 1.0) {
        // Spans of the first pass suffice and keep the trace small.
        ReplayStats r =
            replayPool(engines, pool, total.requests ? nullptr : spans);
        total.requests += r.requests;
        total.failures += r.failures;
        total.seconds += r.seconds;
        total.hops += r.hops;
        total.advance_s += r.advance_s;
        total.advance_calls += r.advance_calls;
        total.submit_s += r.submit_s;
        total.batches += r.batches;
        total.queue_wait_s += r.queue_wait_s;
        total.job_host_s += r.job_host_s;
        total.jobs += r.jobs;
        if (first_replay_s == 0)
            first_replay_s = r.seconds;
    }
    const double cores = std::max(1u, std::thread::hardware_concurrency());
    m["direct.ops_per_s"] = static_cast<double>(total.requests) / total.seconds;
    *failures += total.failures;
    m["request_classes.advance_us"] =
        1e6 * total.advance_s / static_cast<double>(total.advance_calls);
    m["request_classes.hops_per_req"] =
        static_cast<double>(total.hops) / static_cast<double>(total.requests);
    m["engine.submit_us"] = 1e6 * total.submit_s / static_cast<double>(total.batches);
    m["engine.queue_wait_us"] =
        1e6 * total.queue_wait_s / static_cast<double>(total.jobs);
    m["engine.job_host_us"] = 1e6 * total.job_host_s / static_cast<double>(total.jobs);
    m["engine.utilization"] = total.job_host_s / (total.seconds * cores);
    double steals = 0;
    for (unsigned e = 0; e < EngineSet::count(); ++e)
        steals += engines.engine(static_cast<EngineId>(e)).metrics().gauge("steals");
    m["engine.steals"] = steals;
    m["harness.replay_self_frac"] =
        spans ? spans->meanSelfUs("direct.replay") / (1e6 * first_replay_s) : 0;

    m["engine.batch_fixed_us"] = batchFixedUs(
        engines.engine(EngineId::kRsSynd), sim_jobs.at(EngineId::kRsSynd)[0], spans);
    probeSim(sim_jobs, engines, spans, m, failures);
    probeCompile(engines, spans, m);
    return m;
}

std::string
hostBlockJson()
{
    std::string model = "unknown";
    std::ifstream f("/proc/cpuinfo");
    for (std::string line; std::getline(f, line);) {
        if (line.rfind("model name", 0) == 0) {
            model = line.substr(line.find(':') + 2);
            break;
        }
    }
    return strprintf(
        "{\"cores\": %u, \"cpu_model\": \"%s\", \"build_type\": \"%s\", "
        "\"jit_backend\": \"%s\", \"clmul_backend\": \"%s\", "
        "\"default_dispatch\": \"%s\"}",
        std::thread::hardware_concurrency(), jsonEscape(model).c_str(),
        GFP_PERFBENCH_BUILD_TYPE, jit::nativeBackendName(), clmulBackend().name,
        dispatchModeName(BatchEngine::Options{}.dispatch));
}

} // namespace perfbench
