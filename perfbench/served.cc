// The gfp-serve child process, the stats document reader, and the
// closed- and open-loop load generators.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "common/random.h"
#include "engine/metrics.h"
#include "service/client.h"

using namespace gfp;
using namespace gfp::service;

namespace perfbench {

namespace {

std::atomic<int> g_active_pid{-1};
/** The running server's socket and directory, for killActiveServer(),
 *  which may run in a signal handler (so: fixed buffers, no locks). */
char g_active_socket[256];
char g_active_dir[256];

/** Drain timeout for responses still outstanding after a phase. */
constexpr int kDrainTimeoutMs = 10'000;

} // namespace

void
killActiveServer()
{
    const int pid = g_active_pid.exchange(-1);
    if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        ::unlink(g_active_socket);
        ::rmdir(g_active_dir);
    }
}

bool
ServerProcess::start(const std::string &binary, const std::string &work_dir,
                     double timeout_s)
{
    // A relative path keeps the socket name short wherever the
    // checkout lives; the child inherits our working directory.
    std::string tmpl = work_dir + "/srvXXXXXX";
    if (!::mkdtemp(tmpl.data())) {
        std::perror("perfbench: mkdtemp");
        return false;
    }
    dir_ = tmpl;
    socket_ = dir_ + "/s";
    if (socket_.size() >= sizeof(g_active_socket)) {
        std::fprintf(stderr, "perfbench: work directory path too long\n");
        ::rmdir(dir_.c_str());
        dir_.clear();
        return false;
    }
    std::strcpy(g_active_socket, socket_.c_str());
    std::strcpy(g_active_dir, dir_.c_str());
    int fds[2];
    if (::pipe(fds) != 0) {
        std::perror("perfbench: pipe");
        return false;
    }
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("perfbench: fork");
        ::close(fds[0]);
        ::close(fds[1]);
        return false;
    }
    if (pid == 0) {
        // The server must not outlive the benchmark, whatever kills it.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        const char *argv[] = {binary.c_str(), "--unix", socket_.c_str(),
                              nullptr};
        ::execv(binary.c_str(), const_cast<char *const *>(argv));
        ::_exit(127);
    }
    ::close(fds[1]);
    pid_ = pid;
    out_fd_ = fds[0];
    g_active_pid.store(pid);

    // Wait for "gfp-serve ready".
    std::string line;
    const auto t0 = Clock::now();
    while (line.find('\n') == std::string::npos) {
        const double left = timeout_s - secondsSince(t0);
        pollfd pfd{out_fd_, POLLIN, 0};
        if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) {
            std::fprintf(stderr, "perfbench: gfp-serve not ready in %.0f s\n",
                         timeout_s);
            return false;
        }
        char buf[256];
        const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
        if (n <= 0) {
            std::fprintf(stderr, "perfbench: gfp-serve exited at start\n");
            return false;
        }
        line.append(buf, static_cast<size_t>(n));
    }
    if (line.rfind("gfp-serve ready", 0) != 0) {
        std::fprintf(stderr, "perfbench: unexpected gfp-serve banner: %s",
                     line.c_str());
        return false;
    }
    return true;
}

void
ServerProcess::removeDir()
{
    if (dir_.empty())
        return;
    ::unlink(socket_.c_str()); // already gone after a clean drain
    ::rmdir(dir_.c_str());
    dir_.clear();
}

double
peakRssMb(int pid)
{
    std::ifstream f(pid ? "/proc/" + std::to_string(pid) + "/status"
                        : std::string("/proc/self/status"));
    std::string key;
    while (f >> key) {
        if (key == "VmHWM:") {
            double kb = 0;
            f >> kb;
            return kb / 1024.0;
        }
        f.ignore(1 << 12, '\n');
    }
    return 0;
}

bool
ServerProcess::stop(double timeout_s)
{
    if (pid_ <= 0)
        return false;
    ::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    bool reaped = false;
    while (secondsSince(t0) < timeout_s) {
        const pid_t r = ::waitpid(pid_, &status, WNOHANG);
        if (r == pid_) {
            reaped = true;
            break;
        }
        ::usleep(10'000);
    }
    if (!reaped) {
        std::fprintf(stderr, "perfbench: gfp-serve did not drain in %.0f s\n",
                     timeout_s);
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
    }
    g_active_pid.store(-1);
    pid_ = -1;
    ::close(out_fd_);
    out_fd_ = -1;
    removeDir();
    if (reaped && !(WIFEXITED(status) && WEXITSTATUS(status) == 0))
        std::fprintf(stderr, "perfbench: gfp-serve exited with status %d\n",
                     status);
    return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

ServerProcess::~ServerProcess()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        g_active_pid.store(-1);
    }
    if (out_fd_ >= 0)
        ::close(out_fd_);
    removeDir();
}

// ------------------------------------------------------------- stats

namespace {

/** Value after the first `"name": ` at or after @p from; 0 if absent
 *  (the registry creates a counter only when it is first touched). */
double
numberAfter(const std::string &doc, const std::string &name, size_t from = 0)
{
    const std::string needle = "\"" + name + "\": ";
    const size_t at = doc.find(needle, from);
    return at == std::string::npos
               ? 0
               : std::strtod(doc.c_str() + at + needle.size(), nullptr);
}

/** Rebuild a Metrics histogram from its toJson() rendering. */
Metrics::Histogram
histogramAt(const std::string &doc, const std::string &name)
{
    Metrics::Histogram h;
    const size_t at = doc.find("\"" + name + "\": {\"count\"");
    if (at == std::string::npos)
        return h;
    h.count = static_cast<uint64_t>(numberAfter(doc, "count", at));
    h.sum = numberAfter(doc, "sum", at);
    h.min = numberAfter(doc, "min", at);
    h.max = numberAfter(doc, "max", at);
    size_t pos = doc.find("\"buckets\": {", at);
    const size_t close = doc.find('}', pos);
    pos += 12;
    while (pos < close) {
        const size_t q0 = doc.find('"', pos);
        if (q0 == std::string::npos || q0 > close)
            break;
        const size_t q1 = doc.find('"', q0 + 1);
        const std::string le = doc.substr(q0 + 1, q1 - q0 - 1);
        const double n = std::strtod(doc.c_str() + q1 + 2, nullptr);
        unsigned b = Metrics::kHistBuckets - 1;
        if (le != "+inf") {
            const double v = std::strtod(le.c_str(), nullptr);
            b = 0;
            while ((1ull << b) < static_cast<uint64_t>(v))
                ++b;
        }
        h.buckets[b] = static_cast<uint64_t>(n);
        pos = q1 + 1;
    }
    return h;
}

} // namespace

ServerStats
fetchServerStats(const std::string &socket, RequestClass cls)
{
    ServerStats st;
    Client c;
    if (!c.connectUnix(socket))
        return st;
    RequestHeader h;
    h.cls = RequestClass::kStats;
    h.id = 1;
    Response r;
    if (!c.call(h, {}, &r) || r.header.status != Status::kOk)
        return st;
    const std::string doc(r.body.begin(), r.body.end());
    st.fetched = true;
    st.protocol_errors = numberAfter(doc, "protocol_errors_total");
    st.rejected_busy = numberAfter(doc, "responses_rejected_busy_total");
    // The service registry is rendered first, so the first match of a
    // name shared with the engine registries is the service's own.
    const Metrics::Histogram batch = histogramAt(doc, "submit_batch_jobs");
    st.batch_jobs_mean =
        batch.count ? batch.sum / static_cast<double>(batch.count) : 0;
    st.latency_p50_us = Metrics::quantile(
        histogramAt(doc, std::string("class_") + requestClassName(cls) +
                             "_latency_us"),
        0.5);
    for (size_t at = doc.find("\"steals\": "); at != std::string::npos;
         at = doc.find("\"steals\": ", at + 1))
        st.steals += numberAfter(doc, "steals", at);
    return st;
}

// -------------------------------------------------------------- load

namespace {

struct Sent
{
    uint32_t pool_index = 0;
    double due_s = 0; ///< schedule time (open loop) or send time
    int span = -1;
};

/** Name the first few failed responses on stderr. */
void
reportMismatch(const Response &r, uint32_t pool_index)
{
    static std::atomic<int> reported{0};
    if (reported.fetch_add(1) < 5)
        std::fprintf(stderr, "perfbench: %s response for pool request %u\n",
                     r.header.status == Status::kOk ? "wrong OK"
                                                    : statusName(r.header.status),
                     pool_index);
}

/** Classify one response; true when it is OK and bit-identical. */
bool
responseOk(const Response &r, const Request &req)
{
    return r.header.status == Status::kOk && r.body == req.expected;
}

} // namespace

LoadResult
closedLoop(const std::string &socket, const std::vector<Request> &pool, unsigned conns,
           unsigned window, double warmup_s, double seconds, uint64_t seed,
           Spans *spans)
{
    std::vector<LoadResult> parts(conns);
    const auto epoch = Clock::now();
    const double t_begin = warmup_s, t_end = warmup_s + seconds;
    auto now_s = [&] { return secondsSince(epoch); };

    auto worker = [&](unsigned ci) {
        LoadResult &out = parts[ci];
        out.pool_hits.assign(pool.size(), 0);
        Client c;
        if (!c.connectUnix(socket)) {
            std::fprintf(stderr, "perfbench: connect failed: %s\n",
                         std::strerror(errno));
            out.failed = out.attempted = 1;
            return;
        }
        Rng rng(seed * 0x2545f4914f6cdd1dull + ci + 1);
        std::vector<Sent> sent;
        std::vector<uint8_t> frame;
        double last_recv_s = 0;
        auto send = [&] {
            const uint64_t id = sent.size();
            const auto idx = static_cast<uint32_t>(rng.below(pool.size()));
            frame = pool[idx].frame;
            patchId(frame, id);
            const double t = now_s();
            const int span =
                spans ? spans->begin("service.request", 100 + static_cast<int>(ci))
                      : -1;
            sent.push_back(Sent{idx, t, span});
            c.queueRaw(frame.data(), frame.size());
            ++out.attempted;
            if (last_recv_s > 0 && t >= t_begin && t < t_end)
                out.lag_us.push_back((t - last_recv_s) * 1e6);
        };
        for (unsigned i = 0; i < window; ++i)
            send();
        uint64_t answered = 0;
        bool io_ok = c.flush();
        Response r;
        auto handle = [&] {
            const double t = now_s();
            last_recv_s = t;
            ++answered;
            if (r.header.id >= sent.size()) {
                ++out.failed;
                return;
            }
            const Sent &s = sent[r.header.id];
            if (spans)
                spans->end(s.span);
            if (!responseOk(r, pool[s.pool_index])) {
                ++out.failed;
                reportMismatch(r, s.pool_index);
            }
            else if (t >= t_begin && t < t_end) {
                ++out.pool_hits[s.pool_index];
                out.ok.push_back({t, (t - s.due_s) * 1e6});
                out.gap_us.push_back((t - s.due_s) * 1e6 - r.header.aux_us);
            }
        };
        while (io_ok && answered < sent.size()) {
            // Block for one response, take every other one already here,
            // then replace them all with one write.
            if (!c.recvResponse(&r, kDrainTimeoutMs))
                break;
            handle();
            unsigned freed = 1;
            while (c.recvResponse(&r, 0)) {
                handle();
                ++freed;
            }
            if (now_s() < t_end) {
                for (unsigned i = 0; i < freed; ++i)
                    send();
                io_ok = c.flush();
            }
        }
        out.failed += sent.size() - answered; // unanswered
    };

    std::vector<std::thread> threads;
    for (unsigned ci = 0; ci < conns; ++ci)
        threads.emplace_back(worker, ci);
    for (auto &t : threads)
        t.join();

    LoadResult all;
    all.begin_s = t_begin;
    all.window_s = seconds;
    all.pool_hits.assign(pool.size(), 0);
    for (const LoadResult &p : parts) {
        all.attempted += p.attempted;
        all.failed += p.failed;
        all.ok.insert(all.ok.end(), p.ok.begin(), p.ok.end());
        all.gap_us.insert(all.gap_us.end(), p.gap_us.begin(), p.gap_us.end());
        all.lag_us.insert(all.lag_us.end(), p.lag_us.begin(), p.lag_us.end());
        for (size_t i = 0; i < p.pool_hits.size(); ++i)
            all.pool_hits[i] += p.pool_hits[i];
    }
    all.ops_per_s = sliceRate(all);
    return all;
}

LoadResult
openLoop(const std::string &socket, const std::vector<Request> &pool, double rate_hz,
         double warmup_s, double seconds, Spans *spans)
{
    LoadResult out;
    out.begin_s = warmup_s;
    out.window_s = seconds;
    out.pool_hits.assign(pool.size(), 0);
    Client c;
    if (!c.connectUnix(socket)) {
        std::fprintf(stderr, "perfbench: connect failed: %s\n",
                     std::strerror(errno));
        out.failed = out.attempted = 1;
        return out;
    }
    // The default 50 us timer slack would make every wake-up late.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    const double t_begin = warmup_s, t_end = warmup_s + seconds;
    const auto total = static_cast<uint64_t>(t_end * rate_hz);
    double first_s = -1, last_s = -1;
    uint64_t ok_due = 0;
    std::vector<Sent> sent;
    sent.reserve(total);
    std::vector<uint8_t> frame;
    const auto epoch = Clock::now();
    auto now_s = [&] { return secondsSince(epoch); };
    auto due = [&](uint64_t i) { return static_cast<double>(i) / rate_hz; };

    uint64_t answered = 0;
    Response r;
    auto process = [&] {
        const double t = now_s();
        ++answered;
        if (r.header.id >= sent.size()) {
            ++out.failed;
            return;
        }
        const Sent &s = sent[r.header.id];
        if (spans)
            spans->end(s.span);
        if (!responseOk(r, pool[s.pool_index])) {
            ++out.failed;
            reportMismatch(r, s.pool_index);
        }
        else {
            if (s.due_s >= t_begin)
                ++out.pool_hits[s.pool_index];
            if (s.due_s >= t_begin) {
                if (first_s < 0)
                    first_s = t;
                last_s = t;
                ++ok_due;
                out.ok.push_back({s.due_s, (t - s.due_s) * 1e6});
                out.gap_us.push_back((t - s.due_s) * 1e6 - r.header.aux_us);
            }
        }
    };

    bool io_ok = true;
    while (io_ok && sent.size() < total) {
        const double now = now_s();
        bool queued = false;
        while (sent.size() < total && due(sent.size()) <= now) {
            const uint64_t id = sent.size();
            const auto idx = static_cast<uint32_t>(id % pool.size());
            frame = pool[idx].frame;
            patchId(frame, id);
            const int span = spans ? spans->begin("service.request", 100) : -1;
            sent.push_back(Sent{idx, due(id), span});
            c.queueRaw(frame.data(), frame.size());
            ++out.attempted;
            if (due(id) >= t_begin)
                out.lag_us.push_back((now_s() - due(id)) * 1e6);
            queued = true;
        }
        if (queued)
            io_ok = c.flush();
        while (io_ok && c.recvResponse(&r, 0))
            process();
        if (c.lastError() == Client::Error::kClosed ||
            c.lastError() == Client::Error::kProtocol)
            break;
        if (sent.size() < total) {
            // Sleep until the next request is due or a response lands.
            const double wait_s = due(sent.size()) - now_s();
            if (wait_s > 0) {
                timespec ts{static_cast<time_t>(wait_s),
                            static_cast<long>((wait_s - static_cast<double>(
                                                   static_cast<time_t>(wait_s))) *
                                              1e9)};
                pollfd pfd{c.fd(), POLLIN, 0};
                ::ppoll(&pfd, 1, &ts, nullptr);
            }
        }
    }
    while (answered < sent.size() && c.recvResponse(&r, kDrainTimeoutMs))
        process();
    out.failed += sent.size() - answered; // unanswered
    // Completion rate over the requests due in the window: the offered
    // rate while the service keeps up, lower once a backlog grows.
    if (ok_due > 1)
        out.ops_per_s = static_cast<double>(ok_due - 1) / (last_s - first_s);
    return out;
}

bool
timedServerStart(ServerProcess &server, const std::string &binary,
                 const std::string &work_dir, const Request &probe,
                 double *setup_s)
{
    const auto t0 = Clock::now();
    if (!server.start(binary, work_dir, 30.0))
        return false;
    Client c;
    if (!c.connectUnix(server.socket())) {
        std::fprintf(stderr, "perfbench: connect failed: %s\n",
                     std::strerror(errno));
        return false;
    }
    RequestHeader h;
    h.cls = probe.cls;
    h.id = 1;
    Response r;
    if (!c.call(h, probe.body, &r) || !responseOk(r, probe)) {
        std::fprintf(stderr, "perfbench: first request failed\n");
        return false;
    }
    *setup_s = secondsSince(t0);
    return true;
}

} // namespace perfbench
