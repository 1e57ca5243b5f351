// Seeded request pools, the span recorder, and the in-process replay of
// a pool through EngineSet + advance().

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "coding/channel.h"
#include "coding/rs.h"
#include "common/random.h"
#include "common/strutil.h"
#include "crypto/aes.h"
#include "hwmodel/energy_model.h"

using namespace gfp;
using namespace gfp::service;

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / static_cast<double>(v.size());
}

namespace {

/** The window's one-second slices, each holding its samples. */
std::vector<std::vector<const Sample *>>
slices(const LoadResult &load)
{
    const size_t n = std::max<size_t>(1, static_cast<size_t>(load.window_s));
    const double width = load.window_s / static_cast<double>(n);
    std::vector<std::vector<const Sample *>> out(n);
    for (const Sample &s : load.ok) {
        const double k = (s.at_s - load.begin_s) / width;
        if (k >= 0 && k < static_cast<double>(n))
            out[static_cast<size_t>(k)].push_back(&s);
    }
    return out;
}

} // namespace

double
sliceLatency(const LoadResult &load, double q)
{
    std::vector<double> per_slice;
    for (const auto &slice : slices(load)) {
        std::vector<double> lat;
        for (const Sample *s : slice)
            lat.push_back(s->latency_us);
        if (!lat.empty())
            per_slice.push_back(quantile(lat, q));
    }
    return quantile(per_slice, 0.5);
}

double
sliceRate(const LoadResult &load)
{
    const auto sl = slices(load);
    const double width = load.window_s / static_cast<double>(sl.size());
    std::vector<double> rates;
    for (const auto &slice : sl)
        rates.push_back(static_cast<double>(slice.size()) / width);
    return quantile(rates, 0.5);
}

namespace {

/** Offset of the id inside a full frame: 4B length + 8B of header. */
constexpr size_t kIdOffset = 12;

void
finishRequest(Request &req)
{
    RequestHeader h;
    h.cls = req.cls;
    appendRequestFrame(req.frame, h, req.body.data(), req.body.size());
}

} // namespace

void
patchId(std::vector<uint8_t> &frame, uint64_t id)
{
    for (unsigned b = 0; b < 8; ++b)
        frame[kIdOffset + b] = static_cast<uint8_t>(id >> (8 * b));
}

std::vector<Request>
decodePool(uint64_t seed, unsigned count)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    RSCode rs(8, kRsT);
    std::vector<Request> pool(count);
    for (unsigned i = 0; i < count; ++i) {
        std::vector<GFElem> info(rs.k());
        for (auto &s : info)
            s = rng.nextByte();
        auto cw = rs.encode(info);
        ExactErrorInjector inj(rng.next64());
        auto rx = inj.corruptSymbols(
            cw, static_cast<unsigned>(rng.below(kRsT + 1)), 8);
        Request &req = pool[i];
        req.cls = RequestClass::kRsDecode;
        req.body = rsDecodeBody(std::vector<uint8_t>(rx.begin(), rx.end()));
        req.expected.push_back(1);
        req.expected.insert(req.expected.end(), cw.begin(), cw.end());
        finishRequest(req);
    }
    return pool;
}

std::vector<Request>
aesPool(uint64_t seed, unsigned count)
{
    Rng rng(seed * 0xd1b54a32d192ed03ull + 2);
    std::vector<Request> pool(count);
    for (unsigned i = 0; i < count; ++i) {
        std::vector<uint8_t> key(16);
        for (auto &b : key)
            b = rng.nextByte();
        Aes aes(key);
        std::vector<uint8_t> rkeys;
        for (uint32_t word : aes.roundKeys())
            for (int b = 3; b >= 0; --b)
                rkeys.push_back(static_cast<uint8_t>(word >> (8 * b)));
        AesBlock counter;
        for (auto &b : counter)
            b = rng.nextByte();
        Request &req = pool[i];
        req.cls = RequestClass::kAesCtrBlock;
        req.body = aesCtrBlockBody(
            rkeys, std::vector<uint8_t>(counter.begin(), counter.end()));
        AesBlock ks = aes.encryptBlock(counter);
        req.expected.assign(ks.begin(), ks.end());
        finishRequest(req);
    }
    return pool;
}

std::vector<Job>
firstHopJobs(const EngineSet &engines, const std::vector<Request> &pool)
{
    std::vector<Job> jobs;
    jobs.reserve(pool.size());
    for (const Request &req : pool) {
        RequestExec ex;
        ex.cls = req.cls;
        ex.body = req.body;
        jobs.push_back(advance(engines, ex, nullptr).job);
    }
    return jobs;
}

// ------------------------------------------------------------- spans

Spans::Spans() : epoch_(Clock::now()) {}

int
Spans::begin(const char *name, int tid, int parent)
{
    const double ts =
        std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
            .count();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, tid, parent, ts, -1});
    return static_cast<int>(spans_.size() - 1);
}

void
Spans::end(int span)
{
    const double now =
        std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
            .count();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(span)].dur_us =
        now - spans_[static_cast<size_t>(span)].ts_us;
}

double
Spans::meanSelfUs(const std::string &name) const
{
    // Children's covered intervals, per parent.  Children of one parent
    // run on one thread here, so they never overlap each other.
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0 && s.dur_us >= 0)
            covered[static_cast<size_t>(s.parent)] += s.dur_us;
    double sum = 0;
    size_t n = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].dur_us < 0 || name != spans_[i].name)
            continue;
        sum += std::max(0.0, spans_[i].dur_us - covered[i]);
        ++n;
    }
    return n ? sum / static_cast<double>(n) : 0;
}

std::string
Spans::toJson() const
{
    constexpr int kPid = 10;
    std::lock_guard<std::mutex> lock(mu_);
    TraceLog log;
    log.processName(kPid, "perfbench");
    for (const Span &s : spans_) {
        if (s.dur_us < 0)
            continue;
        TraceLog::Args args;
        if (s.parent >= 0)
            args.emplace_back("parent", strprintf("%d", s.parent));
        log.complete(s.name, "perfbench", s.ts_us, s.dur_us, kPid, s.tid,
                     std::move(args));
    }
    return log.toJson();
}

// ------------------------------------------------------------ replay

ReplayStats
replayPool(EngineSet &engines, const std::vector<Request> &pool,
           Spans *spans)
{
    const EnergyModel energy = EnergyModel::nominal();
    ReplayStats st;
    st.requests = pool.size();
    st.cost.resize(pool.size());

    std::vector<RequestExec> execs(pool.size());
    std::vector<std::vector<std::pair<size_t, Job>>> pending(
        EngineSet::count());

    const auto t0 = Clock::now();
    SpanScope whole(spans, "direct.replay", 1);
    auto step = [&](size_t i, const JobResult *prev) {
        const auto a0 = Clock::now();
        StepResult sr;
        {
            SpanScope s(spans, "request_classes.advance", 1, whole.index());
            sr = advance(engines, execs[i], prev);
        }
        st.advance_s += secondsSince(a0);
        ++st.advance_calls;
        if (sr.done) {
            if (sr.status != Status::kOk || sr.response != pool[i].expected)
                ++st.failures;
            return;
        }
        pending[static_cast<size_t>(sr.engine)].emplace_back(
            i, std::move(sr.job));
    };

    for (size_t i = 0; i < pool.size(); ++i) {
        execs[i].id = i;
        execs[i].cls = pool[i].cls;
        execs[i].body = pool[i].body;
        step(i, nullptr);
    }
    for (;;) {
        std::vector<std::pair<unsigned, BatchEngine::Ticket>> tickets;
        std::vector<std::vector<size_t>> owners(EngineSet::count());
        for (unsigned e = 0; e < EngineSet::count(); ++e) {
            if (pending[e].empty())
                continue;
            std::vector<Job> jobs;
            jobs.reserve(pending[e].size());
            for (auto &[idx, job] : pending[e]) {
                owners[e].push_back(idx);
                jobs.push_back(std::move(job));
            }
            pending[e].clear();
            const auto s0 = Clock::now();
            {
                SpanScope s(spans, "engine.submit", 1, whole.index());
                tickets.emplace_back(
                    e, engines.engine(static_cast<EngineId>(e))
                           .submitBatch(std::move(jobs)));
            }
            st.submit_s += secondsSince(s0);
            ++st.batches;
        }
        if (tickets.empty())
            break;
        for (auto &[e, ticket] : tickets) {
            std::vector<JobResult> results;
            {
                SpanScope s(spans, "engine.wait", 1, whole.index());
                results =
                    engines.engine(static_cast<EngineId>(e)).wait(ticket);
            }
            for (size_t k = 0; k < results.size(); ++k) {
                const JobResult &r = results[k];
                GuestCost &c = st.cost[owners[e][k]];
                c.instrs += r.stats.instrs;
                c.cycles += r.stats.cycles;
                c.energy_pj += energy.runEnergyPj(r.stats);
                ++st.hops;
                ++st.jobs;
                st.queue_wait_s += r.start_seconds;
                st.job_host_s += r.host_seconds;
                step(owners[e][k], &r);
            }
        }
    }
    st.seconds = secondsSince(t0);
    return st;
}

} // namespace perfbench
