/**
 * @file
 * gfp-perfbench — the repository benchmark (perfbench/README.md).
 *
 *   gfp-perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --serve-bin PATH --work-dir DIR [--trace-out FILE]
 *
 * Workloads: serve_decode, serve_aes_open, engine_direct.  Prints the
 * host block on one line, then one JSON result line:
 * {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
 * the end-to-end metrics, --trace 1 the per-layer ones (and writes the
 * Chrome trace to --trace-out).  Exits 1 when any output was wrong,
 * 2 when the run is invalid (no result line is printed then).
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "bench.h"
#include "coding/decoder_kernels.h"
#include "common/strutil.h"
#include "hwmodel/energy_model.h"

using namespace gfp;
using namespace gfp::service;
using namespace perfbench;

namespace {

// Workload shape (perfbench/README.md says why).
constexpr unsigned kPoolSize = 2048;
constexpr unsigned kDecodeConns = 4;
constexpr unsigned kDecodeWindow = 16;
constexpr double kAesRateHz = 5000;
constexpr size_t kDirectBatch = 512;
constexpr double kWarmupS = 1.0;
constexpr unsigned kSetups = 15;
/** An open-loop run whose generator is later than this at p90 did not
 *  offer the load it claims, and is invalid. */
constexpr double kMaxSendLagP90Us = 200;
/** Length of the served decode probe on engine_direct's traced run. */
constexpr double kServiceProbeS = 2.0;

struct MetricDef
{
    const char *name;
    const char *unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
    {"ok_frac", "fraction"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"guest_mips", "MIPS"},
    {"guest_cycles_per_op", "cycles"},
    {"guest_energy_nj_per_op", "nJ"},
};

constexpr MetricDef kPerLayer[] = {
    {"service.server_latency_p50_us", "us"},
    {"service.socket_gap_us", "us"},
    {"service.batch_jobs_mean", "jobs"},
    {"service.rejected_busy", "count"},
    {"service.protocol_errors", "count"},
    {"service.served_over_direct", "ratio"},
    {"wire.encode_ns", "ns"},
    {"wire.parse_ns", "ns"},
    {"request_classes.validate_ns", "ns"},
    {"request_classes.advance_us", "us"},
    {"request_classes.hops_per_req", "hops"},
    {"engine.submit_us", "us"},
    {"engine.queue_wait_us", "us"},
    {"engine.job_host_us", "us"},
    {"engine.batch_fixed_us", "us"},
    {"engine.utilization", "fraction"},
    {"engine.steals", "count"},
    {"sim.run_us.rs_synd", "us"},
    {"sim.run_us.aes_block", "us"},
    {"sim.reset_us", "us"},
    {"sim.guest_instrs_per_op", "instrs"},
    {"sim.host_ns_per_guest_instr", "ns"},
    {"jit.compile_ms.rs_synd", "ms"},
    {"jit.compile_ms.rs_bma", "ms"},
    {"jit.compile_ms.rs_chien", "ms"},
    {"jit.compile_ms.rs_forney", "ms"},
    {"jit.compile_ms.aes_block", "ms"},
    {"analysis.certify_ms.rs_synd", "ms"},
    {"analysis.certify_ms.rs_bma", "ms"},
    {"analysis.certify_ms.rs_chien", "ms"},
    {"analysis.certify_ms.rs_forney", "ms"},
    {"analysis.certify_ms.aes_block", "ms"},
    {"harness.send_lag_p90_us", "us"},
    {"harness.trace_overhead_frac", "fraction"},
    {"harness.replay_self_frac", "fraction"},
};

struct Cli
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string serve_bin;
    std::string work_dir;
    std::string trace_out;
};

/** What a workload run produced. */
struct Outcome
{
    bool valid = true; ///< false: print no result (reason on stderr)
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, double> metrics;
};

void
onSignal(int)
{
    killActiveServer();
    ::_exit(3);
}

Outcome
invalid(const char *why)
{
    std::fprintf(stderr, "perfbench: invalid run: %s\n", why);
    Outcome o;
    o.valid = false;
    return o;
}

/** Mean guest cycles / energy over every request of a pool. */
void
guestCostMetrics(const std::vector<GuestCost> &cost, Outcome &o)
{
    double cycles = 0, energy = 0;
    for (const GuestCost &c : cost) {
        cycles += static_cast<double>(c.cycles);
        energy += c.energy_pj;
    }
    o.metrics["guest_cycles_per_op"] = cycles / static_cast<double>(cost.size());
    o.metrics["guest_energy_nj_per_op"] =
        energy / static_cast<double>(cost.size()) / 1e3;
}

double
meanInstrs(const std::vector<GuestCost> &cost)
{
    double s = 0;
    for (const GuestCost &c : cost)
        s += static_cast<double>(c.instrs);
    return s / static_cast<double>(cost.size());
}

/** Guest instructions per host second: the load's rate times the mean
 *  guest instructions of the requests it completed. */
double
guestMips(const LoadResult &load, const std::vector<GuestCost> &cost)
{
    double instrs = 0, done = 0;
    for (size_t i = 0; i < cost.size(); ++i) {
        instrs += static_cast<double>(load.pool_hits[i]) *
                  static_cast<double>(cost[i].instrs);
        done += static_cast<double>(load.pool_hits[i]);
    }
    return load.ops_per_s * instrs / done / 1e6;
}

std::map<EngineId, std::vector<Job>>
simJobs(const EngineSet &engines, uint64_t seed)
{
    const auto d = firstHopJobs(engines, decodePool(seed, 64));
    const auto a = firstHopJobs(engines, aesPool(seed, 64));
    return {{EngineId::kRsSynd, d}, {EngineId::kAesBlock, a}};
}

void
addLoad(Outcome &o, const LoadResult &load)
{
    o.attempted += load.attempted;
    o.failed += load.failed;
}

// ------------------------------------------------------------ served

/** Spawn the server kSetups times (setup_s is their median); keeps the
 *  last one running in @p server. */
bool
startServers(const Cli &cli, const Request &probe, ServerProcess &server,
             unsigned setups, double *setup_s, Outcome &o)
{
    std::vector<double> times;
    for (unsigned k = 0; k < setups; ++k) {
        const bool last = k + 1 == setups;
        ServerProcess tmp;
        ServerProcess &s = last ? server : tmp;
        double t = 0;
        if (!timedServerStart(s, cli.serve_bin, cli.work_dir, probe, &t))
            return false;
        if (!last && !tmp.stop(30))
            ++o.failed;
        times.push_back(t);
        ++o.attempted;
    }
    *setup_s = quantile(times, 0.5);
    return true;
}

/** Fetch stats, read memory, drain; folds the server's own checks
 *  (exit 0 after drain, zero protocol errors) into @p o. */
ServerStats
finishServer(ServerProcess &server, RequestClass cls, Outcome &o,
             double *peak_rss_mb)
{
    ServerStats st = fetchServerStats(server.socket(), cls);
    *peak_rss_mb = peakRssMb(server.pid());
    const bool clean_exit = server.stop(30);
    if (!st.fetched || st.protocol_errors != 0 || !clean_exit) {
        std::fprintf(stderr,
                     "perfbench: server check failed: stats=%d "
                     "protocol_errors=%.0f clean_exit=%d\n",
                     st.fetched, st.protocol_errors, clean_exit);
        ++o.failed;
    }
    return st;
}

LoadResult
servedLoad(bool decode, const std::string &socket, const std::vector<Request> &pool,
           double warmup_s, double seconds, uint64_t seed, Spans *spans)
{
    const unsigned conns =
        std::min(kDecodeConns, std::max(1u, std::thread::hardware_concurrency()));
    return decode ? closedLoop(socket, pool, conns, kDecodeWindow, warmup_s,
                               seconds, seed, spans)
                  : openLoop(socket, pool, kAesRateHz, warmup_s, seconds, spans);
}

void
serviceLayerMetrics(const ServerStats &st, const LoadResult &traced,
                    double served_ops, double direct_ops, Outcome &o)
{
    o.metrics["service.server_latency_p50_us"] = st.latency_p50_us;
    o.metrics["service.socket_gap_us"] = quantile(traced.gap_us, 0.5);
    o.metrics["service.batch_jobs_mean"] = st.batch_jobs_mean;
    o.metrics["service.rejected_busy"] = st.rejected_busy;
    o.metrics["service.protocol_errors"] = st.protocol_errors;
    o.metrics["service.served_over_direct"] = served_ops / direct_ops;
}

/** Diagnostics on stderr; an open loop whose generator fell behind
 *  did not offer the load it claims, so the run is invalid. */
bool
checkLoad(const LoadResult &load, bool open_loop)
{
    const double lag_p90 = quantile(load.lag_us, 0.9);
    std::fprintf(stderr,
                 "perfbench: %.1f ok/s, latency p50 %.1f p90 %.1f us, "
                 "client-minus-server p50 %.1f us, generator lag p90 %.1f us\n",
                 load.ops_per_s, sliceLatency(load, 0.5), sliceLatency(load, 0.9),
                 quantile(load.gap_us, 0.5), lag_p90);
    return !open_loop || lag_p90 <= kMaxSendLagP90Us;
}

Outcome
runServed(const Cli &cli, bool decode, Spans *spans)
{
    Outcome o;
    const std::vector<Request> pool =
        decode ? decodePool(cli.seed, kPoolSize) : aesPool(cli.seed, kPoolSize);
    const RequestClass cls = pool[0].cls;

    // Guest cost of every pool request, from an in-process pass that
    // also checks the pool against the host reference.
    std::vector<GuestCost> cost;
    {
        EngineSet engines{BatchEngine::Options{}};
        ReplayStats r = replayPool(engines, pool, nullptr);
        o.attempted += r.requests;
        o.failed += r.failures;
        cost = std::move(r.cost);
    }

    ServerProcess server;
    double setup_s = 0;
    if (!startServers(cli, pool[0], server, cli.trace ? 1 : kSetups, &setup_s, o))
        return invalid("gfp-serve did not start");

    if (!cli.trace) {
        const LoadResult load =
            servedLoad(decode, server.socket(), pool, kWarmupS, cli.seconds,
                       cli.seed, nullptr);
        addLoad(o, load);
        double rss = 0;
        finishServer(server, cls, o, &rss);
        if (!checkLoad(load, !decode))
            return invalid("open-loop generator fell behind its schedule");
        o.metrics["ops_per_s"] = load.ops_per_s;
        o.metrics["latency_p50_us"] = sliceLatency(load, 0.5);
        o.metrics["latency_p90_us"] = sliceLatency(load, 0.9);
        o.metrics["setup_s"] = setup_s;
        o.metrics["peak_rss_mb"] = rss;
        o.metrics["guest_mips"] = guestMips(load, cost);
        guestCostMetrics(cost, o);
        return o;
    }

    // Traced: half the time untraced, half traced, same server.
    const double half = cli.seconds / 2;
    const LoadResult plain =
        servedLoad(decode, server.socket(), pool, kWarmupS, half, cli.seed, nullptr);
    const LoadResult traced = servedLoad(decode, server.socket(), pool, 0.2, half,
                                         cli.seed + 1, spans);
    addLoad(o, plain);
    addLoad(o, traced);
    double rss = 0;
    const ServerStats st = finishServer(server, cls, o, &rss);
    if (!checkLoad(plain, !decode))
        return invalid("open-loop generator fell behind its schedule");
    checkLoad(traced, false);

    EngineSet engines{BatchEngine::Options{}};
    o.metrics = probeLayers(engines, pool, simJobs(engines, cli.seed), spans,
                            &o.failed);
    serviceLayerMetrics(st, traced, plain.ops_per_s, o.metrics["direct.ops_per_s"],
                        o);
    o.metrics["harness.send_lag_p90_us"] = quantile(traced.lag_us, 0.9);
    // Closed loop: lost throughput.  Open loop (fixed rate): added latency.
    o.metrics["harness.trace_overhead_frac"] =
        decode ? 1 - traced.ops_per_s / plain.ops_per_s
               : sliceLatency(traced, 0.5) / sliceLatency(plain, 0.5) - 1;
    o.metrics["sim.guest_instrs_per_op"] = meanInstrs(cost);
    return o;
}

// ------------------------------------------------------------ direct

/** One engine_direct phase: cycles of one syndrome batch then one AES
 *  batch, each a submitBatch() + wait() from a single producer. */
struct DirectPhase
{
    uint64_t jobs_ok = 0;
    double instrs = 0;
    std::vector<double> period_s; ///< cycle start to next cycle start
    std::vector<double> cycle_us; ///< first submit to last wait return
    std::vector<double> gap_us;   ///< producer time between batches
    double submit_s = 0, queue_wait_s = 0, job_host_s = 0, busy_wall_s = 0;
    uint64_t batches = 0, jobs = 0;

    double opsPerS() const
    {
        return static_cast<double>(2 * kDirectBatch) / quantile(period_s, 0.5);
    }
};

bool
sameResult(const JobResult &a, const JobResult &b)
{
    return a.ok() && b.ok() && a.outputs == b.outputs && a.words == b.words &&
           a.stats.instrs == b.stats.instrs && a.stats.cycles == b.stats.cycles;
}

Outcome
runDirect(const Cli &cli, Spans *spans)
{
    Outcome o;
    const std::vector<Request> dpool = decodePool(cli.seed, kPoolSize);
    const std::vector<Request> apool = aesPool(cli.seed, kPoolSize);
    BatchProgram synd_prog, aes_prog;
    std::vector<Job> synd_jobs, aes_jobs;
    {
        EngineSet engines{BatchEngine::Options{}};
        synd_jobs = firstHopJobs(engines, dpool);
        aes_jobs = firstHopJobs(engines, apool);
        const BatchEngine &s = engines.engine(EngineId::kRsSynd);
        const BatchEngine &a = engines.engine(EngineId::kAesBlock);
        synd_prog = {s.program(), s.kind()};
        aes_prog = {a.program(), a.kind()};
    }

    // Reference: serial runs, themselves checked against the host.
    std::vector<JobResult> synd_ref, aes_ref;
    {
        BatchEngine ref_s(synd_prog), ref_a(aes_prog);
        synd_ref = ref_s.runSerial(synd_jobs);
        aes_ref = ref_a.runSerial(aes_jobs);
    }
    const GFField f8(8);
    for (size_t i = 0; i < kPoolSize; ++i) {
        const auto &rx = synd_jobs[i].inputs[0].second;
        const auto synd = syndromes(
            f8, std::vector<GFElem>(rx.begin(), rx.end()), 2 * kRsT);
        const std::vector<uint8_t> want(synd.begin(), synd.end());
        o.attempted += 2;
        o.failed += !synd_ref[i].ok() || synd_ref[i].bytes("synd") != want;
        o.failed += !aes_ref[i].ok() || aes_ref[i].bytes("state") != apool[i].expected;
    }

    // Engine construction -> first verified result, kSetups times.
    std::unique_ptr<BatchEngine> es, ea;
    std::vector<double> setups;
    for (unsigned k = 0; k < (cli.trace ? 1 : kSetups); ++k) {
        es.reset();
        ea.reset();
        const auto t0 = Clock::now();
        es = std::make_unique<BatchEngine>(synd_prog);
        ea = std::make_unique<BatchEngine>(aes_prog);
        auto rs = es->wait(es->submitBatch({synd_jobs[0]}));
        auto ra = ea->wait(ea->submitBatch({aes_jobs[0]}));
        ++o.attempted;
        o.failed += !sameResult(rs[0], synd_ref[0]) || !sameResult(ra[0], aes_ref[0]);
        setups.push_back(secondsSince(t0));
    }

    // Cycles of two 512-job batches: syndrome, then AES.
    struct Batch
    {
        BatchEngine *eng;
        std::vector<Job> jobs;
        const JobResult *ref;
    };
    std::vector<Batch> batches;
    for (size_t off = 0; off + kDirectBatch <= kPoolSize; off += kDirectBatch) {
        batches.push_back({es.get(),
                           std::vector<Job>(synd_jobs.begin() + off,
                                            synd_jobs.begin() + off + kDirectBatch),
                           synd_ref.data() + off});
        batches.push_back({ea.get(),
                           std::vector<Job>(aes_jobs.begin() + off,
                                            aes_jobs.begin() + off + kDirectBatch),
                           aes_ref.data() + off});
    }

    auto runBatch = [&](Batch &b, bool in_window, DirectPhase &p, Spans *sp) {
        SpanScope whole(sp, "engine.batch", 1);
        BatchEngine::Ticket ticket;
        const auto s0 = Clock::now();
        {
            SpanScope s(sp, "engine.submit", 1, whole.index());
            ticket = b.eng->submitBatch(b.jobs);
        }
        const double submit_s = secondsSince(s0);
        std::vector<JobResult> res;
        {
            SpanScope s(sp, "engine.wait", 1, whole.index());
            res = b.eng->wait(ticket);
        }
        o.attempted += res.size();
        for (size_t j = 0; j < res.size(); ++j) {
            if (!sameResult(res[j], b.ref[j])) {
                ++o.failed;
                continue;
            }
            if (in_window) {
                ++p.jobs_ok;
                p.instrs += static_cast<double>(res[j].stats.instrs);
                p.queue_wait_s += res[j].start_seconds;
                p.job_host_s += res[j].host_seconds;
                ++p.jobs;
            }
        }
        if (in_window) {
            p.submit_s += submit_s;
            p.busy_wall_s += secondsSince(s0);
            ++p.batches;
        }
    };

    auto phase = [&](double warmup_s, double seconds, Spans *sp) {
        DirectPhase p;
        const auto epoch = Clock::now();
        double prev_start = -1, last_end = -1;
        for (size_t k = 0;; k += 2) {
            const double t0 = secondsSince(epoch);
            const bool in_window = t0 >= warmup_s;
            if (in_window && prev_start >= warmup_s)
                p.period_s.push_back(t0 - prev_start);
            if (t0 >= warmup_s + seconds)
                break;
            if (in_window && last_end >= 0)
                p.gap_us.push_back((t0 - last_end) * 1e6);
            prev_start = t0;
            runBatch(batches[k % batches.size()], in_window, p, sp);
            runBatch(batches[(k + 1) % batches.size()], in_window, p, sp);
            last_end = secondsSince(epoch);
            if (in_window)
                p.cycle_us.push_back((last_end - t0) * 1e6);
        }
        return p;
    };

    std::vector<GuestCost> cost;
    const EnergyModel energy = EnergyModel::nominal();
    for (const auto *ref : {&synd_ref, &aes_ref})
        for (const JobResult &r : *ref)
            cost.push_back({r.stats.instrs, r.stats.cycles,
                            energy.runEnergyPj(r.stats)});

    if (!cli.trace) {
        DirectPhase p = phase(kWarmupS, cli.seconds, nullptr);
        o.metrics["ops_per_s"] = p.opsPerS();
        o.metrics["latency_p50_us"] = quantile(p.cycle_us, 0.5);
        o.metrics["latency_p90_us"] = quantile(p.cycle_us, 0.9);
        o.metrics["setup_s"] = quantile(setups, 0.5);
        o.metrics["peak_rss_mb"] = peakRssMb(0);
        o.metrics["guest_mips"] =
            p.opsPerS() * p.instrs / static_cast<double>(p.jobs_ok) / 1e6;
        guestCostMetrics(cost, o);
        return o;
    }

    const double half = cli.seconds / 2;
    DirectPhase plain = phase(kWarmupS, half, nullptr);
    DirectPhase traced = phase(0.2, half, spans);
    const double cores = std::max(1u, std::thread::hardware_concurrency());

    // engine_direct bypasses the service; its service-layer numbers
    // come from a short served decode probe on the same seed.
    ServerProcess server;
    double setup_s = 0;
    if (!startServers(cli, dpool[0], server, 1, &setup_s, o))
        return invalid("gfp-serve did not start");
    const LoadResult served = servedLoad(true, server.socket(), dpool, 0.3,
                                         kServiceProbeS, cli.seed, nullptr);
    addLoad(o, served);
    double rss = 0;
    const ServerStats st = finishServer(server, RequestClass::kRsDecode, o, &rss);

    const double steals =
        es->metrics().gauge("steals") + ea->metrics().gauge("steals");
    es.reset();
    ea.reset();
    EngineSet engines{BatchEngine::Options{}};
    o.metrics = probeLayers(engines, dpool, simJobs(engines, cli.seed), spans,
                            &o.failed);
    serviceLayerMetrics(st, served, served.ops_per_s, o.metrics["direct.ops_per_s"],
                        o);
    o.metrics["engine.submit_us"] =
        1e6 * traced.submit_s / static_cast<double>(traced.batches);
    o.metrics["engine.queue_wait_us"] =
        1e6 * traced.queue_wait_s / static_cast<double>(traced.jobs);
    o.metrics["engine.job_host_us"] =
        1e6 * traced.job_host_s / static_cast<double>(traced.jobs);
    o.metrics["engine.utilization"] = traced.job_host_s / (traced.busy_wall_s * cores);
    o.metrics["engine.steals"] = steals;
    o.metrics["harness.send_lag_p90_us"] = quantile(traced.gap_us, 0.9);
    o.metrics["harness.trace_overhead_frac"] = 1 - traced.opsPerS() / plain.opsPerS();
    o.metrics["sim.guest_instrs_per_op"] = meanInstrs(cost);
    return o;
}

// ------------------------------------------------------------ output

std::string
fmt(double v)
{
    return strprintf("%.17g", v);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: gfp-perfbench --workload serve_decode|serve_aes_open|"
                 "engine_direct\n"
                 "       --seed N --seconds S --trace 0|1 --serve-bin PATH\n"
                 "       --work-dir DIR [--trace-out FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (arg == "--workload")
            cli.workload = v;
        else if (arg == "--seed")
            cli.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            cli.seconds = std::atof(v);
        else if (arg == "--trace")
            cli.trace = std::atoi(v) != 0;
        else if (arg == "--serve-bin")
            cli.serve_bin = v;
        else if (arg == "--work-dir")
            cli.work_dir = v;
        else if (arg == "--trace-out")
            cli.trace_out = v;
        else
            return usage();
    }
    if (cli.serve_bin.empty() || cli.work_dir.empty() || cli.seconds <= 0)
        return usage();
    const bool decode = cli.workload == "serve_decode";
    if (!decode && cli.workload != "serve_aes_open" &&
        cli.workload != "engine_direct")
        return usage();

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGHUP, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("{\"host\": %s}\n", hostBlockJson().c_str());
    std::fflush(stdout);

    Spans spans;
    Spans *sp = cli.trace ? &spans : nullptr;
    Outcome o = cli.workload == "engine_direct" ? runDirect(cli, sp)
                                                 : runServed(cli, decode, sp);
    killActiveServer();
    if (!o.valid)
        return 2;
    bool correct = o.failed == 0;
    if (!cli.trace)
        o.metrics["ok_frac"] =
            static_cast<double>(o.attempted - o.failed) /
            static_cast<double>(std::max<uint64_t>(o.attempted, 1));

    if (cli.trace) {
        const std::string doc = spans.toJson();
        std::string err;
        if (!validateTraceEventJson(doc, &err)) {
            std::fprintf(stderr, "perfbench: trace invalid: %s\n", err.c_str());
            correct = false;
        }
        if (!cli.trace_out.empty()) {
            std::ofstream f(cli.trace_out, std::ios::binary);
            f << doc;
        }
    }

    std::string metrics;
    bool complete = true;
    for (const MetricDef &d : cli.trace ? std::vector<MetricDef>(std::begin(kPerLayer),
                                                                 std::end(kPerLayer))
                                        : std::vector<MetricDef>(std::begin(kEndToEnd),
                                                                 std::end(kEndToEnd))) {
        auto it = o.metrics.find(d.name);
        if (it == o.metrics.end()) {
            std::fprintf(stderr, "perfbench: metric %s not measured\n", d.name);
            complete = false;
            continue;
        }
        metrics += strprintf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                             metrics.empty() ? "" : ", ", d.name,
                             fmt(it->second).c_str(), d.unit);
    }
    if (!complete)
        return 2;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
