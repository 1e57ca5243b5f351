/**
 * @file
 * Shared pieces of the repository benchmark (perfbench/README.md):
 * seeded request pools, the in-process replay of a pool through
 * EngineSet + advance(), the gfp-serve child process and its load
 * generators, the per-layer probes, and an in-memory span recorder.
 *
 * Everything here calls the repository's public APIs; nothing inside
 * src/ knows the benchmark exists.
 */

#ifndef GFP_PERFBENCH_BENCH_H
#define GFP_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/trace_event.h"
#include "engine/batch_engine.h"
#include "service/request_classes.h"
#include "service/wire.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

/** q-quantile (0..1) of @p v by nearest rank; 0 when empty. */
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double> &v);

// ---------------------------------------------------------------- pools

/** One wire request with the response body a correct server returns. */
struct Request
{
    gfp::service::RequestClass cls = gfp::service::RequestClass::kPing;
    std::vector<uint8_t> body;
    std::vector<uint8_t> frame;    ///< full frame; the id is patched per send
    std::vector<uint8_t> expected; ///< host-reference OK response body
};

/** Guest cost of one request, summed over its engine hops. */
struct GuestCost
{
    uint64_t instrs = 0;
    uint64_t cycles = 0;
    double energy_pj = 0;
};

/** rs_decode requests: RS(255,239) words with 0..8 symbol errors,
 *  drawn uniformly, over distinct information words. */
std::vector<Request> decodePool(uint64_t seed, unsigned count);

/** aes_ctr_block requests with distinct keys and counters. */
std::vector<Request> aesPool(uint64_t seed, unsigned count);

/** The first engine job each request of @p pool becomes, built by
 *  advance() exactly as the server builds it. */
std::vector<gfp::Job> firstHopJobs(const gfp::service::EngineSet &engines,
                                   const std::vector<Request> &pool);

/** Write @p id into the id field of a pre-encoded request frame. */
void patchId(std::vector<uint8_t> &frame, uint64_t id);

// ------------------------------------------------------------- spans

/**
 * Spans kept in memory and written out at the end.  A span's self
 * time is its duration minus the part of it its child spans cover.
 * Thread-safe.
 */
class Spans
{
  public:
    Spans();
    Spans(const Spans &) = delete;
    Spans &operator=(const Spans &) = delete;

    /** Open a span on track @p tid; returns its index.  @p parent is
     *  the index of the enclosing span, or -1. */
    int begin(const char *name, int tid, int parent = -1);
    void end(int span);

    /** Mean self time (us) of the spans named @p name; 0 if none. */
    double meanSelfUs(const std::string &name) const;

    /** Chrome trace_event document of every closed span. */
    std::string toJson() const;

  private:
    struct Span
    {
        const char *name;
        int tid;
        int parent;
        double ts_us;
        double dur_us; ///< negative while open
    };
    Clock::time_point epoch_;
    mutable std::mutex mu_; ///< closed-loop threads record concurrently
    std::vector<Span> spans_;
};

/** Spans a scope when @p spans is non-null. */
class SpanScope
{
  public:
    SpanScope(Spans *spans, const char *name, int tid, int parent = -1)
        : spans_(spans),
          index_(spans ? spans->begin(name, tid, parent) : -1)
    {
    }
    ~SpanScope()
    {
        if (spans_)
            spans_->end(index_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;
    int index() const { return index_; }

  private:
    Spans *spans_;
    int index_;
};

// ------------------------------------------------------------ replay

/** What one pass of a pool through EngineSet + advance() measured. */
struct ReplayStats
{
    size_t requests = 0;
    size_t failures = 0; ///< non-OK or wrong response bodies
    double seconds = 0;
    size_t hops = 0;
    double advance_s = 0; ///< summed over every advance() call
    size_t advance_calls = 0;
    double submit_s = 0; ///< summed over every submitBatch() call
    size_t batches = 0;
    double queue_wait_s = 0; ///< summed JobResult.start_seconds
    double job_host_s = 0;   ///< summed JobResult.host_seconds
    size_t jobs = 0;
    std::vector<GuestCost> cost; ///< per pool request
};

/**
 * Drive every request of @p pool through @p engines exactly as the
 * server does (advance() per hop, one submitBatch() per engine per
 * round), checking each final body against the host reference.
 */
ReplayStats replayPool(gfp::service::EngineSet &engines,
                       const std::vector<Request> &pool, Spans *spans);

// ------------------------------------------------------------ served

/** A gfp-serve child listening on a unix socket in a fresh directory
 *  under the work directory; killed, reaped and its directory removed
 *  on every exit path. */
class ServerProcess
{
  public:
    /** Spawn @p binary with only the listener flag; false (with a
     *  message on stderr) if it is not ready within @p timeout_s. */
    bool start(const std::string &binary, const std::string &work_dir,
               double timeout_s);

    /** Socket path, relative to the working directory. */
    const std::string &socket() const { return socket_; }

    int pid() const { return pid_; }

    /** SIGTERM, wait for the drain, reap.  True iff it exited 0. */
    bool stop(double timeout_s);

    ServerProcess() = default;
    ~ServerProcess();
    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

  private:
    void removeDir();

    int pid_ = -1;
    int out_fd_ = -1;
    std::string dir_;
    std::string socket_;
};

/** Peak resident set (VmHWM) of process @p pid, MiB; 0 = this one. */
double peakRssMb(int pid);

/** Kill any running server child (signal handlers, fatal paths). */
void killActiveServer();

/** The counters and histograms the benchmark reads from `stats`. */
struct ServerStats
{
    bool fetched = false;
    double protocol_errors = 0;
    double rejected_busy = 0;
    double batch_jobs_mean = 0;
    double latency_p50_us = 0; ///< class histogram, Metrics::quantile
    double steals = 0;         ///< summed over engines
};

ServerStats fetchServerStats(const std::string &socket,
                             gfp::service::RequestClass cls);

/** One OK response inside a measurement window. */
struct Sample
{
    double at_s;       ///< receipt (closed loop) or due time (open loop)
    double latency_us; ///< from send (closed loop) or due time (open)
};

/** Tallies of one load phase. */
struct LoadResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0; ///< rejected, trapped, mismatched, unanswered
    double begin_s = 0;  ///< the window, on the phase's own clock
    double window_s = 0;
    double ops_per_s = 0;
    std::vector<Sample> ok;
    std::vector<double> gap_us;      ///< latency minus server aux_us
    std::vector<double> lag_us;      ///< generator lateness
    std::vector<uint64_t> pool_hits; ///< per pool index, in the window
};

/** Median over the window's one-second slices of each slice's
 *  @p q-quantile latency, so one noisy second does not move it. */
double sliceLatency(const LoadResult &load, double q);

/** Median over the window's one-second slices of OKs per second. */
double sliceRate(const LoadResult &load);

/** Closed loop: @p conns connections, @p window requests outstanding
 *  on each, requests drawn uniformly from @p pool. */
LoadResult closedLoop(const std::string &socket, const std::vector<Request> &pool,
                      unsigned conns, unsigned window, double warmup_s,
                      double seconds, uint64_t seed, Spans *spans);

/** Open loop on one connection at @p rate_hz; each request is timed
 *  from when it was due.  Cycles through @p pool in order. */
LoadResult openLoop(const std::string &socket, const std::vector<Request> &pool,
                    double rate_hz, double warmup_s, double seconds,
                    Spans *spans);

/** Spawn a server and measure spawn -> first verified response. */
bool timedServerStart(ServerProcess &server, const std::string &binary,
                      const std::string &work_dir, const Request &probe,
                      double *setup_s);

// ------------------------------------------------------------ layers

/**
 * Per-layer numbers measured in-process (traced runs only): wire,
 * request_classes, the engine (through a replay of @p pool), sim on
 * @p sim_jobs (rs_synd and aes_block jobs), jit and analysis.  Adds 1
 * to @p failures for every probe whose output was wrong.
 */
std::map<std::string, double>
probeLayers(gfp::service::EngineSet &engines,
            const std::vector<Request> &pool,
            const std::map<gfp::service::EngineId, std::vector<gfp::Job>>
                &sim_jobs,
            Spans *spans, uint64_t *failures);

/** Configure @p machine as a default-options BatchEngine worker. */
void configureLikeEngine(gfp::Machine &machine, const gfp::Program &prog,
                         gfp::CoreKind kind);

// -------------------------------------------------------------- host

/** One-line JSON object describing the host and build. */
std::string hostBlockJson();

} // namespace perfbench

#endif // GFP_PERFBENCH_BENCH_H
