#include "serve/server.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/epoll.h>

#include "common/json.hh"
#include "common/log.hh"
#include "serve/net_util.hh"
#include "workloads/profile.hh"

namespace chameleon::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

std::vector<std::uint8_t>
errorFrame(ErrCode code, std::string message,
           std::uint32_t retry_after_ms = 0)
{
    ErrorReply err;
    err.code = code;
    err.message = std::move(message);
    err.retryAfterMs = retry_after_ms;
    return encodeFrame(MsgType::Error, encodeError(err));
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** Terminal jobs older than this many newer jobs are evicted. */
constexpr std::size_t kMaxRetainedJobs = 8192;

} // namespace

Server::Server(ServerConfig config)
    : cfg(std::move(config)), cache(cfg.cacheBytes)
{
    if (cfg.workers == 0)
        cfg.workers = 1;
    if (cfg.queueCapacity == 0)
        cfg.queueCapacity = 1;
    if (cfg.connBacklogBytes == 0)
        cfg.connBacklogBytes = 1u << 16;
    registerMetrics();
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    if (listenFd >= 0)
        throw std::runtime_error("serve: server already started");

    listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd < 0)
        throw std::runtime_error("serve: socket() failed");
    int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg.port);
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        ::close(listenFd);
        listenFd = -1;
        throw std::runtime_error(
            strFormat("serve: cannot bind 127.0.0.1:%u: %s",
                      static_cast<unsigned>(cfg.port),
                      std::strerror(errno)));
    }
    if (::listen(listenFd, 1024) != 0) {
        ::close(listenFd);
        listenFd = -1;
        throw std::runtime_error("serve: listen() failed");
    }
    setNonBlocking(listenFd);

    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0) {
        ::close(listenFd);
        listenFd = -1;
        throw std::runtime_error("serve: getsockname() failed");
    }
    boundPort = ntohs(addr.sin_port);

    // One span sink per daemon, labelled with the bound port so
    // trace_merge tells shards apart; srvId travels in every
    // SubmitReply so clients key clock offsets to this process even
    // through a proxy.
    if (!spans) {
        SpanSinkConfig sc;
        sc.ringSpans = cfg.spanRingSpans;
        sc.process = strFormat("chameleond:%u",
                               static_cast<unsigned>(boundPort));
        spans = std::make_unique<SpanSink>(sc);
        srvId = newSpanId();
        spans->setServerId(srvId);
    }

    if (::pipe(wakePipe) != 0) {
        ::close(listenFd);
        listenFd = -1;
        throw std::runtime_error("serve: pipe() failed");
    }
    setNonBlocking(wakePipe[0]);
    setNonBlocking(wakePipe[1]);

    epollFd = ::epoll_create1(0);
    if (epollFd < 0) {
        ::close(listenFd);
        listenFd = -1;
        throw std::runtime_error("serve: epoll_create1() failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd;
    ::epoll_ctl(epollFd, EPOLL_CTL_ADD, listenFd, &ev);
    ev.data.fd = wakePipe[0];
    ::epoll_ctl(epollFd, EPOLL_CTL_ADD, wakePipe[0], &ev);

    startedAt = Clock::now();
    stopFlag.store(false, std::memory_order_release);
    stateFlag.store(ServerStateKind::Serving,
                    std::memory_order_release);
    // Workers first: the I/O thread's reap tick may append
    // replacement workers to the same vector once jobs are running.
    for (unsigned i = 0; i < cfg.workers; ++i)
        workers.emplace_back([this] { workerLoop(); });
    ioThread = std::thread([this] { ioLoop(); });
}

void
Server::requestDrain()
{
    ServerStateKind expect = ServerStateKind::Serving;
    stateFlag.compare_exchange_strong(expect,
                                      ServerStateKind::Draining);
    cvJobs.notify_all();
}

bool
Server::drained() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return counters.lostJobs() == 0;
}

void
Server::awaitDrained()
{
    std::unique_lock<std::mutex> lock(mtx);
    cvJobs.wait(lock, [this] {
        return counters.lostJobs() == 0 ||
               stopFlag.load(std::memory_order_acquire);
    });
}

void
Server::stop()
{
    if (listenFd < 0 && workers.empty())
        return;
    stopFlag.store(true, std::memory_order_release);
    stateFlag.store(ServerStateKind::Stopped,
                    std::memory_order_release);
    wakeIo();
    cvWork.notify_all();
    cvJobs.notify_all();

    if (ioThread.joinable())
        ioThread.join();
    for (std::thread &t : workers)
        if (t.joinable())
            t.join();
    workers.clear();

    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }
    if (epollFd >= 0) {
        ::close(epollFd);
        epollFd = -1;
    }
    for (int &fd : wakePipe) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return counters;
}

// -------------------------------------------------------------------
// I/O thread: epoll event loop
// -------------------------------------------------------------------

void
Server::wakeIo()
{
    if (wakePipe[1] < 0)
        return;
    const char byte = 'x';
    // Nonblocking: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] ssize_t n = ::write(wakePipe[1], &byte, 1);
}

void
Server::ioLoop()
{
    epoll_event events[128];
    while (!stopFlag.load(std::memory_order_acquire)) {
        const int n = ::epoll_wait(epollFd, events, 128, 100);
        if (n < 0 && errno != EINTR)
            break;
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            const std::uint32_t ev = events[i].events;
            if (fd == listenFd) {
                acceptReady();
                continue;
            }
            if (fd == wakePipe[0]) {
                std::uint8_t buf[256];
                while (::read(wakePipe[0], buf, sizeof(buf)) > 0) {
                }
                continue;
            }
            const auto it = conns.find(fd);
            if (it == conns.end())
                continue;
            if (ev & (EPOLLERR | EPOLLHUP)) {
                closeConn(fd);
                continue;
            }
            bool alive = true;
            if (ev & EPOLLIN)
                alive = readConn(it->second);
            if (alive && (ev & EPOLLOUT)) {
                // Re-find: readConn may have closed and a completion
                // pump does not run between, but stay defensive.
                const auto jt = conns.find(fd);
                if (jt != conns.end())
                    flushConn(jt->second);
            }
        }
        pumpCompletions();
        reapOverdueJobs();
    }
    for (auto &[fd, conn] : conns)
        ::close(fd);
    conns.clear();
}

void
Server::acceptReady()
{
    for (;;) {
        const int fd =
            ::accept4(listenFd, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // EAGAIN, or a transient per-connection error
        }
        setNoDelay(fd);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            continue;
        }
        Conn conn;
        conn.fd = fd;
        conns.emplace(fd, std::move(conn));
        std::lock_guard<std::mutex> lock(mtx);
        ++counters.connections;
    }
}

void
Server::closeConn(int fd)
{
    const auto it = conns.find(fd);
    if (it == conns.end())
        return;
    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns.erase(it);
    {
        // Parked waits die with their connection.
        std::lock_guard<std::mutex> lock(mtx);
        waiters.erase(std::remove_if(waiters.begin(), waiters.end(),
                                     [fd](const Waiter &w) {
                                         return w.fd == fd;
                                     }),
                      waiters.end());
    }
    {
        // Drop undelivered completions so a recycled fd can never
        // receive a previous connection's reply.
        std::lock_guard<std::mutex> lock(ioMtx);
        for (auto &entry : ioQueue)
            if (entry.first == fd)
                entry.first = -1;
    }
}

void
Server::armWrite(Conn &conn, bool enable)
{
    epoll_event ev{};
    ev.events = EPOLLIN | (enable ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    ::epoll_ctl(epollFd, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.wantWrite = enable;
}

bool
Server::flushConn(Conn &conn)
{
    while (!conn.tx.empty()) {
        const std::vector<std::uint8_t> &front = conn.tx.front();
        const ssize_t n = ::send(conn.fd,
                                 front.data() + conn.txOffset,
                                 front.size() - conn.txOffset,
#ifdef MSG_NOSIGNAL
                                 MSG_NOSIGNAL
#else
                                 0
#endif
        );
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            closeConn(conn.fd);
            return false;
        }
        conn.txOffset += static_cast<std::size_t>(n);
        conn.txBytes -= static_cast<std::size_t>(n);
        if (conn.txOffset == front.size()) {
            conn.tx.pop_front();
            conn.txOffset = 0;
        }
    }
    if (conn.tx.empty()) {
        if (conn.wantWrite)
            armWrite(conn, false);
        if (conn.closing) {
            closeConn(conn.fd);
            return false;
        }
    } else if (!conn.wantWrite) {
        armWrite(conn, true);
    }
    return true;
}

bool
Server::queueSend(Conn &conn, std::vector<std::uint8_t> bytes)
{
    conn.txBytes += bytes.size();
    conn.tx.push_back(std::move(bytes));
    if (!flushConn(conn))
        return false;
    if (conn.txBytes > cfg.connBacklogBytes) {
        // The peer stopped reading; dropping it keeps the loop and
        // every other connection unaffected.
        {
            std::lock_guard<std::mutex> lock(mtx);
            ++counters.droppedSlowConns;
        }
        closeConn(conn.fd);
        return false;
    }
    return true;
}

bool
Server::readConn(Conn &conn)
{
    std::uint8_t chunk[16384];
    for (;;) {
        const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            closeConn(conn.fd);
            return false;
        }
        if (n == 0) {
            if (conn.closing && conn.txBytes > 0)
                return true; // error reply still flushing
            closeConn(conn.fd);
            return false;
        }
        if (conn.closing)
            continue; // discard input after a protocol-fatal error
        conn.rx.insert(conn.rx.end(), chunk, chunk + n);

        // Drain every complete frame in the buffer; a malformed
        // stream gets one typed error reply, never a crash and never
        // a silently dropped connection.
        std::size_t off = 0;
        while (true) {
            Frame frame;
            std::size_t consumed = 0;
            const FrameStatus st =
                decodeFrame(conn.rx.data() + off,
                            conn.rx.size() - off, frame, consumed);
            if (st == FrameStatus::NeedMore)
                break;
            if (st != FrameStatus::Ok) {
                {
                    std::lock_guard<std::mutex> lock(mtx);
                    ++counters.badFrames;
                }
                ErrCode code = ErrCode::Malformed;
                std::string msg =
                    "bad frame magic; not a chameleond stream";
                if (st == FrameStatus::BadVersion) {
                    code = ErrCode::BadVersion;
                    msg = strFormat("unsupported protocol version; "
                                    "server speaks v%u",
                                    kProtocolVersion);
                } else if (st == FrameStatus::Oversized) {
                    code = ErrCode::Oversized;
                    msg = strFormat("payload exceeds %u bytes",
                                    kMaxPayloadBytes);
                }
                conn.closing = true;
                // conn may be destroyed inside queueSend once the
                // error reply flushes; do not touch it afterwards.
                return queueSend(conn, errorFrame(code, msg));
            }
            off += consumed;
            {
                std::lock_guard<std::mutex> lock(mtx);
                ++counters.framesRx;
            }
            if (!dispatchFrame(conn, frame))
                return false;
        }
        if (off > 0)
            conn.rx.erase(conn.rx.begin(),
                          conn.rx.begin() +
                              static_cast<std::ptrdiff_t>(off));
    }
}

void
Server::pumpCompletions()
{
    std::deque<std::pair<int, std::vector<std::uint8_t>>> queue;
    {
        std::lock_guard<std::mutex> lock(ioMtx);
        queue.swap(ioQueue);
    }
    for (auto &[fd, bytes] : queue) {
        if (fd < 0)
            continue; // connection closed before delivery
        const auto it = conns.find(fd);
        if (it == conns.end())
            continue;
        queueSend(it->second, std::move(bytes));
    }
}

// -------------------------------------------------------------------
// Frame dispatch (I/O thread)
// -------------------------------------------------------------------

bool
Server::dispatchFrame(Conn &conn, const Frame &frame)
{
    std::vector<std::uint8_t> reply;
    switch (frame.type) {
      case MsgType::SubmitRun:
        reply = handleSubmit(frame);
        break;
      case MsgType::JobStatus:
        reply = handleStatus(frame);
        break;
      case MsgType::JobResult:
        reply = handleResult(conn, frame);
        break;
      case MsgType::MetricsSnapshot:
        reply = handleMetrics();
        break;
      case MsgType::Stats:
        reply = handleStats();
        break;
      case MsgType::Health:
        reply = handleHealth();
        break;
      case MsgType::Drain:
        reply = handleDrain();
        break;
      case MsgType::Shutdown:
        reply = handleShutdown();
        break;
      default: {
        {
            std::lock_guard<std::mutex> lock(mtx);
            ++counters.badFrames;
        }
        reply = errorFrame(
            ErrCode::UnknownType,
            strFormat("unknown message type %u",
                      static_cast<unsigned>(frame.type)));
        break;
      }
    }
    if (reply.empty())
        return true; // parked as a waiter; the reply comes later
    return queueSend(conn, std::move(reply));
}

std::string
Server::validateRequest(const SubmitRunRequest &req) const
{
    if (!designFromLabel(req.design))
        return strFormat("unknown design '%s'", req.design.c_str());
    bool app_known = false;
    for (const AppProfile &p : tableTwoSuite(1))
        if (p.name == req.app) {
            app_known = true;
            break;
        }
    if (!app_known)
        return strFormat("unknown app profile '%s'",
                         req.app.c_str());
    if (req.scale == 0 || req.scale > (1u << 20))
        return "scale must lie in [1, 2^20]";
    if (req.instrPerCore == 0 && req.minRefsPerCore == 0)
        return "instr 0 with refs 0 leaves nothing to run";
    if (req.instrPerCore > 1'000'000'000'000ull ||
        req.minRefsPerCore > 1'000'000'000'000ull)
        return "instruction/reference budget is not plausible";
    for (double rate : {req.faultRate, req.faultStuck,
                        req.faultSpikes})
        if (!(rate >= 0.0 && rate <= 1.0))
            return "fault rates must lie in [0, 1]";
    if (req.deadlineMs > 3'600'000)
        return "deadline exceeds one hour";
    return "";
}

std::vector<std::uint8_t>
Server::handleSubmit(const Frame &frame)
{
    const std::uint64_t tRecv = monotonicNowUs();
    SubmitRunRequest req;
    if (!decodeSubmitRun(frame.payload, req)) {
        std::lock_guard<std::mutex> lock(mtx);
        ++counters.badFrames;
        return errorFrame(ErrCode::Malformed,
                          "SubmitRun payload failed to decode");
    }
    if (state() != ServerStateKind::Serving) {
        std::lock_guard<std::mutex> lock(mtx);
        ++counters.rejectedDraining;
        return errorFrame(ErrCode::Draining,
                          "daemon is draining; not accepting jobs");
    }
    const std::string problem = validateRequest(req);
    if (!problem.empty()) {
        std::lock_guard<std::mutex> lock(mtx);
        ++counters.rejectedInvalid;
        return errorFrame(ErrCode::BadRequest, problem);
    }
    const std::uint64_t tDecoded = monotonicNowUs();

    // Trace context: adopt the requester's, or mint one so the job
    // stays addressable in exemplars even when the caller predates
    // v4. Sampling is the requester's call when the context came over
    // the wire, ours (traceSamplePct) when minted; errors flush
    // regardless (see recordJobObservability).
    bool sampled = false;
    if (req.traceIdHi == 0 && req.traceIdLo == 0) {
        newTraceId(req.traceIdHi, req.traceIdLo);
        req.parentSpanId = 0;
        sampled = cfg.traceSamplePct > 0.0 &&
                  static_cast<double>(req.traceIdLo % 10'000) <
                      cfg.traceSamplePct * 100.0;
    } else {
        sampled = (req.traceFlags & kTraceSampled) != 0;
    }

    const bool cache_on = cache.enabled() && !req.noCache;
    const std::uint64_t key = cache_on ? cacheKey(req) : 0;
    CachedResult hit;
    const std::uint64_t tCache0 = monotonicNowUs();
    const bool have_hit = cache_on && cache.lookup(key, hit);
    const std::uint64_t tCache1 = monotonicNowUs();

    SubmitRunReply reply;
    bool queued = false;
    bool finalized = false;
    {
        std::lock_guard<std::mutex> lock(mtx);
        // Keep the job table bounded: evict the oldest terminal
        // jobs once the retention cap is reached (their results
        // have had ample time to be collected).
        if (jobs.size() >= kMaxRetainedJobs) {
            for (auto it = jobs.begin();
                 it != jobs.end() &&
                 jobs.size() >= kMaxRetainedJobs;) {
                if (jobStateTerminal(it->second.state))
                    it = jobs.erase(it);
                else
                    ++it;
            }
        }

        Job job;
        job.req = req;
        job.deadlineMs = req.deadlineMs ? req.deadlineMs
                                        : cfg.defaultDeadlineMs;
        job.acceptedAt = Clock::now();
        job.cacheKey = key;
        job.traceHi = req.traceIdHi;
        job.traceLo = req.traceIdLo;
        job.parentSpan = req.parentSpanId;
        job.sampled = sampled;
        job.srvSpanId = newSpanId();
        job.recvUs = tRecv;
        // Stage spans are buffered on the job (plain POD stores) and
        // reach the sink only if recordJobObservability decides to
        // flush — the unsampled hot path never touches the rings.
        const auto stage = [&job](SpanKind kind, std::uint64_t t0,
                                  std::uint64_t t1, std::uint64_t a0) {
            SpanRecord sp;
            sp.traceHi = job.traceHi;
            sp.traceLo = job.traceLo;
            sp.spanId = newSpanId();
            sp.parentId = job.srvSpanId;
            sp.startUs = t0;
            sp.endUs = t1;
            sp.arg0 = a0;
            sp.kind = kind;
            job.spanBuf.push_back(sp);
        };
        job.spanBuf.reserve(3);
        stage(SpanKind::SrvDecode, tRecv, tDecoded,
              frame.payload.size());
        if (cache_on)
            stage(SpanKind::SrvCache, tCache0, tCache1,
                  have_hit ? 1 : 0);

        if (have_hit) {
            // Cache hit: the job is born terminal — no queue slot,
            // no worker dispatch, an answer in microseconds.
            job.id = nextJobId++;
            job.cacheFlags = kResultFromCache;
            reply.jobId = job.id;
            reply.queueDepth = 0;
            auto [it, ok] = jobs.emplace(job.id, std::move(job));
            (void)ok;
            ++counters.accepted;
            finalizeJob(it->second, hit.state, hit.result, "", 0.0);
            finalized = true;
        } else if (cache_on && inflight.count(key) != 0) {
            // Single-flight: an identical job is already queued or
            // running; ride it instead of simulating twice.
            const std::uint64_t leader_id = inflight[key];
            const auto lt = jobs.find(leader_id);
            if (lt != jobs.end() &&
                !jobStateTerminal(lt->second.state)) {
                job.id = nextJobId++;
                job.cacheFlags = kResultCoalesced;
                reply.jobId = job.id;
                reply.queueDepth =
                    static_cast<std::uint32_t>(pending.size());
                lt->second.followers.push_back(job.id);
                jobs.emplace(job.id, std::move(job));
                ++counters.accepted;
                cache.noteCoalesced();
            } else {
                // Stale inflight entry (should not happen; belt and
                // braces): fall through to a fresh leader below.
                inflight.erase(key);
            }
        }

        if (!finalized && reply.jobId == 0) {
            // Deadline-aware admission: if the queue-wait estimate
            // already exceeds this job's deadline, queueing it only
            // guarantees a TimedOut — reject now with a hint for
            // when a retry could actually be served.
            const std::uint64_t tAdm0 = monotonicNowUs();
            const double ewma_ms = ewmaServiceSec * 1000.0;
            const double wait_est_ms =
                ewma_ms * static_cast<double>(pending.size()) /
                static_cast<double>(cfg.workers);
            const std::uint32_t deadline_ms =
                req.deadlineMs ? req.deadlineMs
                               : cfg.defaultDeadlineMs;
            if (deadline_ms > 0 &&
                wait_est_ms > static_cast<double>(deadline_ms)) {
                ++counters.admissionRejected;
                const auto hint = static_cast<std::uint32_t>(
                    wait_est_ms - static_cast<double>(deadline_ms));
                return errorFrame(
                    ErrCode::Busy,
                    strFormat("queue wait estimate %.0f ms exceeds "
                              "the %u ms deadline",
                              wait_est_ms, deadline_ms),
                    hint > 0 ? hint : 1);
            }
            if (pending.size() >= cfg.queueCapacity) {
                ++counters.rejectedBusy;
                // Hint: expected time until one queue slot frees.
                const auto hint = static_cast<std::uint32_t>(
                    ewma_ms / static_cast<double>(cfg.workers));
                return errorFrame(
                    ErrCode::Busy,
                    strFormat("job queue full (%zu pending); retry",
                              pending.size()),
                    hint > 0 ? hint : 1);
            }
            stage(SpanKind::SrvAdmission, tAdm0, monotonicNowUs(),
                  pending.size());
            job.id = nextJobId++;
            job.cacheLeader = cache_on;
            job.cacheable = cache_on;
            if (cache_on)
                inflight[key] = job.id;
            reply.jobId = job.id;
            reply.queueDepth =
                static_cast<std::uint32_t>(pending.size());
            pending.push_back(job.id);
            jobs.emplace(job.id, std::move(job));
            ++counters.accepted;
            queued = true;
        }
    }
    if (queued)
        cvWork.notify_one();
    if (finalized)
        cvJobs.notify_all();
    // Clock handshake: the client brackets its round trip and treats
    // this stamp as taken at the midpoint, yielding an offset
    // estimate bounded by rtt/2 that trace_merge uses to align
    // per-process timelines.
    reply.serverNowUs = monotonicNowUs();
    reply.serverId = srvId;
    return encodeFrame(MsgType::SubmitReply,
                       encodeSubmitReply(reply));
}

std::vector<std::uint8_t>
Server::handleStatus(const Frame &frame)
{
    JobStatusRequest req;
    if (!decodeJobStatus(frame.payload, req)) {
        std::lock_guard<std::mutex> lock(mtx);
        ++counters.badFrames;
        return errorFrame(ErrCode::Malformed,
                          "JobStatus payload failed to decode");
    }
    std::lock_guard<std::mutex> lock(mtx);
    const auto it = jobs.find(req.jobId);
    if (it == jobs.end())
        return errorFrame(ErrCode::UnknownJob,
                          strFormat("no job %llu",
                                    static_cast<unsigned long long>(
                                        req.jobId)));
    const Job &job = it->second;
    JobStatusReply reply;
    reply.jobId = job.id;
    reply.state = job.state;
    reply.wallSeconds =
        jobStateTerminal(job.state)
            ? job.wallSeconds
            : secondsSince(job.acceptedAt, Clock::now());
    return encodeFrame(MsgType::JobStatusReply,
                       encodeJobStatusReply(reply));
}

JobResultReply
Server::buildResultReply(const Job &job) const
{
    JobResultReply reply;
    reply.jobId = job.id;
    reply.state = job.state;
    reply.error = job.error;
    reply.wallSeconds =
        jobStateTerminal(job.state)
            ? job.wallSeconds
            : secondsSince(job.acceptedAt, Clock::now());
    reply.cacheFlags = job.cacheFlags;
    reply.traceIdHi = job.traceHi;
    reply.traceIdLo = job.traceLo;
    fillResultReply(reply, job.result);
    return reply;
}

std::vector<std::uint8_t>
Server::handleResult(Conn &conn, const Frame &frame)
{
    JobResultRequest req;
    if (!decodeJobResult(frame.payload, req)) {
        std::lock_guard<std::mutex> lock(mtx);
        ++counters.badFrames;
        return errorFrame(ErrCode::Malformed,
                          "JobResult payload failed to decode");
    }
    std::lock_guard<std::mutex> lock(mtx);
    const auto it = jobs.find(req.jobId);
    if (it == jobs.end())
        return errorFrame(ErrCode::UnknownJob,
                          strFormat("no job %llu",
                                    static_cast<unsigned long long>(
                                        req.jobId)));
    const std::uint32_t wait_ms =
        std::min(req.waitMs, cfg.maxResultWaitMs);
    if (wait_ms > 0 && !jobStateTerminal(it->second.state)) {
        // Park the wait; the finalizing thread (or the reap tick,
        // when the wait expires first) queues the reply. No thread
        // blocks on behalf of this client.
        waiters.push_back(
            {conn.fd, req.jobId,
             Clock::now() + std::chrono::milliseconds(wait_ms)});
        return {};
    }
    const JobResultReply reply = buildResultReply(it->second);
    const std::uint64_t t0 = monotonicNowUs();
    auto bytes = encodeFrame(MsgType::JobResultReply,
                             encodeJobResultReply(reply));
    recordEncodeSpan(it->second, t0, monotonicNowUs());
    return bytes;
}

std::vector<std::uint8_t>
Server::handleMetrics()
{
    MetricsReply reply;
    reply.json = metricsJson();
    return encodeFrame(MsgType::MetricsReply,
                       encodeMetricsReply(reply));
}

std::vector<std::uint8_t>
Server::handleStats()
{
    StatsReply reply;
    reply.text = statsText();
    return encodeFrame(MsgType::StatsReply, encodeStatsReply(reply));
}

std::vector<std::uint8_t>
Server::handleHealth()
{
    HealthReply reply;
    reply.state = static_cast<std::uint8_t>(state());
    reply.uptimeMs = static_cast<std::uint64_t>(
        secondsSince(startedAt, Clock::now()) * 1000.0);
    std::lock_guard<std::mutex> lock(mtx);
    reply.queuedJobs = static_cast<std::uint32_t>(pending.size());
    reply.runningJobs = runningJobs;
    reply.acceptedJobs = counters.accepted;
    reply.completedJobs = counters.terminal();
    return encodeFrame(MsgType::HealthReply,
                       encodeHealthReply(reply));
}

std::vector<std::uint8_t>
Server::handleDrain()
{
    requestDrain();
    DrainReply reply;
    std::lock_guard<std::mutex> lock(mtx);
    reply.remainingJobs = static_cast<std::uint32_t>(
        pending.size() + runningJobs);
    return encodeFrame(MsgType::DrainReply, encodeDrainReply(reply));
}

std::vector<std::uint8_t>
Server::handleShutdown()
{
    requestDrain();
    shutdownFlag.store(true, std::memory_order_release);
    cvJobs.notify_all();
    return encodeFrame(MsgType::ShutdownReply, {});
}

// -------------------------------------------------------------------
// Job machinery
// -------------------------------------------------------------------

RunResult
Server::executeJob(const SubmitRunRequest &req)
{
    BenchOptions opts = cfg.bench;
    opts.seed = req.seed;
    opts.scale = req.scale;
    opts.instrPerCore = req.instrPerCore;
    opts.minRefsPerCore = req.minRefsPerCore;
    opts.faultRate = req.faultRate;
    opts.faultStuck = req.faultStuck;
    opts.faultSpikes = req.faultSpikes;
    opts.oracle = req.oracle;
    // Each job is one cell on one worker thread; batch-only outputs
    // stay off in the daemon.
    opts.jobs = 1;
    opts.jsonPath.clear();
    opts.checkpointPath.clear();
    opts.tracePath.clear();
    opts.metricsPath.clear();

    const std::optional<Design> design = designFromLabel(req.design);
    if (!design) // validated at admission; belt and braces
        throw std::runtime_error("unknown design " + req.design);
    const std::vector<AppProfile> suite = tableTwoSuite(opts.scale);
    const AppProfile *profile = nullptr;
    for (const AppProfile &p : suite)
        if (p.name == req.app) {
            profile = &p;
            break;
        }
    if (!profile)
        throw std::runtime_error("unknown app " + req.app);
    return runRateWorkload(*design, *profile, opts);
}

void
Server::answerWaiters(const Job &job)
{
    // Caller holds mtx. Encode once, fan the bytes out to every
    // parked wait on this job through the completion queue.
    std::vector<std::uint8_t> bytes;
    bool pushed = false;
    for (auto it = waiters.begin(); it != waiters.end();) {
        if (it->jobId != job.id) {
            ++it;
            continue;
        }
        if (bytes.empty()) {
            const std::uint64_t t0 = monotonicNowUs();
            bytes = encodeFrame(MsgType::JobResultReply,
                                encodeJobResultReply(
                                    buildResultReply(job)));
            recordEncodeSpan(job, t0, monotonicNowUs());
        }
        {
            std::lock_guard<std::mutex> lock(ioMtx);
            ioQueue.emplace_back(it->fd, bytes);
        }
        pushed = true;
        it = waiters.erase(it);
    }
    if (pushed)
        wakeIo();
}

void
Server::finalizeJob(Job &job, JobState state, RunResult result,
                    std::string error, double wall_seconds)
{
    // Caller holds mtx. Fault-degraded completions are a first-class
    // terminal state: the run finished and its statistics are valid,
    // but capacity was retired or uncorrectable ECC fired.
    if (state == JobState::Ok &&
        (result.eccUncorrectable > 0 || result.retiredSegments > 0 ||
         result.degradedCycles > 0))
        state = JobState::Degraded;
    job.state = state;
    job.result = std::move(result);
    job.error = std::move(error);
    job.wallSeconds = wall_seconds;
    // Feed the admission estimator from real executions only: cache
    // hits (wall 0) and coalesced twins would drag the mean toward
    // zero and break the queue-wait estimate.
    if (wall_seconds > 0.0 && job.cacheFlags == 0 &&
        (state == JobState::Ok || state == JobState::Degraded ||
         state == JobState::Failed))
        ewmaServiceSec = ewmaServiceSec == 0.0
                             ? wall_seconds
                             : 0.8 * ewmaServiceSec +
                                   0.2 * wall_seconds;
    switch (state) {
      case JobState::Ok:
        ++counters.completedOk;
        break;
      case JobState::Degraded:
        ++counters.completedDegraded;
        break;
      case JobState::Failed:
        ++counters.failed;
        break;
      case JobState::TimedOut:
        ++counters.timedOut;
        break;
      default:
        panic("serve: finalizeJob with non-terminal state");
    }

    // Feed histograms/exemplars and flush spans BEFORE answering
    // waiters, so the encode stage can tell whether this job's trace
    // went to the sink (traceFlushed) and nest its span under it.
    recordJobObservability(job);

    answerWaiters(job);

    if (job.cacheLeader) {
        // Release the single-flight slot; a later identical job is a
        // cache hit (Ok/Degraded) or a fresh leader (Failed/TimedOut).
        const auto it = inflight.find(job.cacheKey);
        if (it != inflight.end() && it->second == job.id)
            inflight.erase(it);
        job.cacheLeader = false;
        if (job.cacheable && (state == JobState::Ok ||
                              state == JobState::Degraded)) {
            CachedResult entry;
            entry.state = state;
            entry.result = job.result;
            entry.wallSeconds = wall_seconds;
            cache.insert(job.cacheKey, std::move(entry));
        }
    }

    if (!job.followers.empty()) {
        // Coalesced twins share the leader's fate — including
        // TimedOut, so a wedged leader can never strand them.
        const std::vector<std::uint64_t> fids =
            std::move(job.followers);
        job.followers.clear();
        for (const std::uint64_t fid : fids) {
            const auto jt = jobs.find(fid);
            if (jt == jobs.end() ||
                jobStateTerminal(jt->second.state))
                continue;
            finalizeJob(jt->second, state, job.result, job.error,
                        wall_seconds);
        }
    }
}

void
Server::recordJobObservability(Job &job)
{
    // Caller holds mtx. steady_clock and monotonicNowUs share an
    // epoch, so time_points and raw µs stamps mix freely.
    const auto toUs = [](Clock::time_point tp) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                tp.time_since_epoch())
                .count());
    };
    const std::uint64_t endUs = monotonicNowUs();
    const std::uint64_t accepted =
        job.recvUs ? job.recvUs : toUs(job.acceptedAt);
    const std::uint64_t started =
        job.startedAt.time_since_epoch().count() ? toUs(job.startedAt)
                                                 : 0;
    const double e2e_ms =
        static_cast<double>(endUs - accepted) / 1000.0;
    const double service_ms = job.wallSeconds * 1000.0;
    double queue_ms = 0.0;
    if (started)
        queue_ms = static_cast<double>(started - accepted) / 1000.0;
    else if (!(job.cacheFlags & kResultFromCache))
        queue_ms = e2e_ms; // never ran: coalesced, or reaped queued

    e2eHist.sample(e2e_ms);
    if (!(job.cacheFlags & kResultFromCache))
        queueWaitHist.sample(queue_ms);
    // Service time mirrors the EWMA feeding rule: real executions
    // only, or cache hits would drag the distribution to zero.
    if (job.wallSeconds > 0.0 && job.cacheFlags == 0)
        serviceHist.sample(service_ms);

    // Top-K slow-request exemplars, e2e descending.
    if (exemplars.size() < kMaxExemplars ||
        e2e_ms > exemplars.back().e2eMs) {
        Exemplar ex;
        ex.e2eMs = e2e_ms;
        ex.queueMs = queue_ms;
        ex.serviceMs = service_ms;
        ex.traceHi = job.traceHi;
        ex.traceLo = job.traceLo;
        ex.jobId = job.id;
        ex.design = job.req.design;
        ex.state = job.state;
        const auto pos = std::upper_bound(
            exemplars.begin(), exemplars.end(), ex,
            [](const Exemplar &a, const Exemplar &b) {
                return a.e2eMs > b.e2eMs;
            });
        exemplars.insert(pos, std::move(ex));
        if (exemplars.size() > kMaxExemplars)
            exemplars.pop_back();
    }

    // Span flush: sampled requests always; errors and deadline
    // misses always (tail sampling keeps failures visible even at
    // --trace-sample-pct 0).
    const bool is_err = job.state == JobState::Failed ||
                        job.state == JobState::TimedOut;
    job.traceFlushed = (job.sampled || is_err) && spans != nullptr;
    if (!job.traceFlushed) {
        job.spanBuf.clear();
        job.spanBuf.shrink_to_fit();
        return;
    }

    const std::uint8_t base = job.sampled ? kSpanSampled : 0;
    for (SpanRecord sp : job.spanBuf) {
        sp.flags |= base;
        spans->record(sp);
    }
    job.spanBuf.clear();
    job.spanBuf.shrink_to_fit();

    const auto synth = [&](SpanKind kind, std::uint64_t t0,
                           std::uint64_t t1, std::uint64_t span_id,
                           std::uint64_t parent, std::uint64_t a0,
                           bool err) {
        SpanRecord sp;
        sp.traceHi = job.traceHi;
        sp.traceLo = job.traceLo;
        sp.spanId = span_id;
        sp.parentId = parent;
        sp.startUs = t0;
        sp.endUs = t1;
        sp.arg0 = a0;
        sp.kind = kind;
        sp.flags =
            static_cast<std::uint8_t>(base | (err ? kSpanError : 0));
        spans->record(sp);
    };
    if (!(job.cacheFlags & kResultFromCache))
        synth(SpanKind::SrvQueueWait, accepted,
              started ? started : endUs, newSpanId(), job.srvSpanId,
              job.id, false);
    if (started)
        synth(SpanKind::SrvSimulate, started, endUs, newSpanId(),
              job.srvSpanId, job.id,
              job.state == JobState::Failed);
    // The umbrella last: accept-to-finalize, nested under whatever
    // span the requester put on the wire (0 = a root).
    synth(SpanKind::SrvJob, accepted, endUs, job.srvSpanId,
          job.parentSpan, job.id, is_err);
}

void
Server::recordEncodeSpan(const Job &job, std::uint64_t t0_us,
                         std::uint64_t t1_us)
{
    if (!job.traceFlushed || !spans)
        return;
    SpanRecord sp;
    sp.traceHi = job.traceHi;
    sp.traceLo = job.traceLo;
    sp.spanId = newSpanId();
    sp.parentId = job.srvSpanId;
    sp.startUs = t0_us;
    sp.endUs = t1_us;
    sp.arg0 = job.id;
    sp.kind = SpanKind::SrvEncode;
    sp.flags = job.sampled ? kSpanSampled : 0;
    spans->record(sp);
}

void
Server::workerLoop()
{
    while (true) {
        std::uint64_t id = 0;
        SubmitRunRequest req;
        {
            std::unique_lock<std::mutex> lock(mtx);
            cvWork.wait(lock, [this] {
                return stopFlag.load(std::memory_order_acquire) ||
                       !pending.empty();
            });
            if (pending.empty()) {
                if (stopFlag.load(std::memory_order_acquire))
                    return;
                continue;
            }
            id = pending.front();
            pending.pop_front();
            const auto it = jobs.find(id);
            if (it == jobs.end() ||
                it->second.state != JobState::Queued)
                continue; // reaped while queued
            it->second.state = JobState::Running;
            it->second.startedAt = Clock::now();
            ++runningJobs;
            req = it->second.req;
        }

        RunResult result;
        std::string error;
        const auto t0 = Clock::now();
        try {
            result = cfg.runner ? cfg.runner(req) : executeJob(req);
        } catch (const std::exception &e) {
            error = e.what();
        } catch (...) {
            error = "unknown exception";
        }
        const double wall = secondsSince(t0, Clock::now());

        {
            std::lock_guard<std::mutex> lock(mtx);
            --runningJobs;
            const auto it = jobs.find(id);
            // Decide the state before the call: std::move(error)
            // empties the string when the parameter is constructed,
            // and argument evaluation order is unspecified.
            const JobState outcome =
                error.empty() ? JobState::Ok : JobState::Failed;
            if (it != jobs.end() &&
                it->second.state == JobState::Running) {
                finalizeJob(it->second, outcome, std::move(result),
                            std::move(error), wall);
            }
            // else: the reaper already finalized this job as
            // TimedOut; the late result is discarded (PR 3
            // abandonment discipline).
        }
        cvJobs.notify_all();
    }
}

void
Server::reapOverdueJobs()
{
    bool changed = false;
    std::vector<std::pair<int, std::vector<std::uint8_t>>> expired;
    {
        std::lock_guard<std::mutex> lock(mtx);
        const auto now = Clock::now();
        for (auto &[id, job] : jobs) {
            if (jobStateTerminal(job.state) || job.deadlineMs == 0)
                continue;
            const double elapsed_ms =
                secondsSince(job.acceptedAt, now) * 1000.0;
            if (elapsed_ms <= static_cast<double>(job.deadlineMs))
                continue;
            const bool was_running = job.state == JobState::Running;
            finalizeJob(job, JobState::TimedOut, RunResult{},
                        strFormat("deadline %u ms exceeded",
                                  job.deadlineMs),
                        elapsed_ms / 1000.0);
            changed = true;
            if (was_running) {
                // The stuck worker cannot be killed; a replacement
                // keeps the pool at full strength and the eventual
                // late result is discarded on arrival.
                workers.emplace_back([this] { workerLoop(); });
                warn("serve: job %llu exceeded its %u ms deadline; "
                     "abandoned (replacement worker started)",
                     static_cast<unsigned long long>(id),
                     job.deadlineMs);
            }
        }

        // Expired waits answer with the job's interim state (still
        // Queued/Running), exactly like the old blocking path did.
        for (auto it = waiters.begin(); it != waiters.end();) {
            if (now < it->deadline) {
                ++it;
                continue;
            }
            const auto jt = jobs.find(it->jobId);
            std::vector<std::uint8_t> bytes =
                jt == jobs.end()
                    ? errorFrame(
                          ErrCode::UnknownJob,
                          strFormat("no job %llu",
                                    static_cast<unsigned long long>(
                                        it->jobId)))
                    : encodeFrame(MsgType::JobResultReply,
                                  encodeJobResultReply(
                                      buildResultReply(jt->second)));
            expired.emplace_back(it->fd, std::move(bytes));
            it = waiters.erase(it);
        }
    }
    if (changed)
        cvJobs.notify_all();
    for (auto &[fd, bytes] : expired) {
        const auto it = conns.find(fd);
        if (it == conns.end() || it->second.closing)
            continue;
        queueSend(it->second, std::move(bytes));
    }
}

// -------------------------------------------------------------------
// Metrics
// -------------------------------------------------------------------

namespace
{

struct MetricDef
{
    const char *name;
    MetricKind kind;
};

constexpr MetricDef kServeMetrics[] = {
    {"serve_jobs_accepted", MetricKind::Counter},
    {"serve_jobs_rejected_busy", MetricKind::Counter},
    {"serve_admission_rejected", MetricKind::Counter},
    {"serve_jobs_rejected_drain", MetricKind::Counter},
    {"serve_jobs_rejected_invalid", MetricKind::Counter},
    {"serve_jobs_ok", MetricKind::Counter},
    {"serve_jobs_degraded", MetricKind::Counter},
    {"serve_jobs_failed", MetricKind::Counter},
    {"serve_jobs_timeout", MetricKind::Counter},
    {"serve_connections", MetricKind::Counter},
    {"serve_frames_rx", MetricKind::Counter},
    {"serve_frames_bad", MetricKind::Counter},
    {"serve_conns_dropped_slow", MetricKind::Counter},
    {"serve_cache_hits", MetricKind::Counter},
    {"serve_cache_misses", MetricKind::Counter},
    {"serve_cache_coalesced", MetricKind::Counter},
    {"serve_cache_insertions", MetricKind::Counter},
    {"serve_cache_evictions", MetricKind::Counter},
    {"serve_queue_depth", MetricKind::Gauge},
    {"serve_running_jobs", MetricKind::Gauge},
    {"serve_waiters", MetricKind::Gauge},
    {"serve_cache_entries", MetricKind::Gauge},
    {"serve_cache_bytes", MetricKind::Gauge},
    {"serve_draining", MetricKind::Gauge},
    {"serve_spans_recorded", MetricKind::Counter},
    {"serve_spans_dropped", MetricKind::Counter},
};

} // namespace

void
Server::registerMetrics()
{
    // The registry reads whatever the shadow copy held at the last
    // metricsJson() refresh; getters stay trivially thread-safe.
    metricShadow.assign(std::size(kServeMetrics), 0.0);
    for (std::size_t i = 0; i < std::size(kServeMetrics); ++i) {
        const double *cell = &metricShadow[i];
        registry.registerMetric(kServeMetrics[i].name,
                                kServeMetrics[i].kind,
                                [cell] { return *cell; });
    }
}

std::uint64_t
Server::refreshMetricShadow()
{
    ServerStats s;
    std::size_t queue_depth;
    std::size_t waiter_count;
    unsigned running;
    {
        std::lock_guard<std::mutex> lock(mtx);
        s = counters;
        queue_depth = pending.size();
        waiter_count = waiters.size();
        running = runningJobs;
    }
    const ResultCache::Stats cs = cache.stats();
    const RingStats ss = spans ? spans->stats() : RingStats{};
    const auto uptime_ms = static_cast<std::uint64_t>(
        secondsSince(startedAt, Clock::now()) * 1000.0);

    std::lock_guard<std::mutex> lock(metricsMtx);
    metricShadow = {
        static_cast<double>(s.accepted),
        static_cast<double>(s.rejectedBusy),
        static_cast<double>(s.admissionRejected),
        static_cast<double>(s.rejectedDraining),
        static_cast<double>(s.rejectedInvalid),
        static_cast<double>(s.completedOk),
        static_cast<double>(s.completedDegraded),
        static_cast<double>(s.failed),
        static_cast<double>(s.timedOut),
        static_cast<double>(s.connections),
        static_cast<double>(s.framesRx),
        static_cast<double>(s.badFrames),
        static_cast<double>(s.droppedSlowConns),
        static_cast<double>(cs.hits),
        static_cast<double>(cs.misses),
        static_cast<double>(cs.coalesced),
        static_cast<double>(cs.insertions),
        static_cast<double>(cs.evictions),
        static_cast<double>(queue_depth),
        static_cast<double>(running),
        static_cast<double>(waiter_count),
        static_cast<double>(cs.entries),
        static_cast<double>(cs.bytes),
        state() == ServerStateKind::Draining ? 1.0 : 0.0,
        static_cast<double>(ss.recorded),
        static_cast<double>(ss.dropped),
    };
    // Each snapshot request extends the registry's time series, so a
    // scraping client builds the same Timeline history a --metrics
    // bench run would.
    registry.snapshot(static_cast<Cycle>(uptime_ms));
    return uptime_ms;
}

std::string
Server::metricsJson()
{
    const std::uint64_t uptime_ms = refreshMetricShadow();

    std::lock_guard<std::mutex> lock(metricsMtx);
    std::string out = "{\"state\":";
    out += jsonQuote(state() == ServerStateKind::Serving ? "serving"
                     : state() == ServerStateKind::Draining
                         ? "draining"
                         : "stopped");
    out += strFormat(",\"uptime_ms\":%llu,\"snapshots\":%zu,"
                     "\"metrics\":{",
                     static_cast<unsigned long long>(uptime_ms),
                     registry.snapshots());
    bool first = true;
    for (const Metric &m : registry.metrics()) {
        if (!first)
            out += ",";
        first = false;
        out += jsonQuote(m.name);
        out += ":";
        out += jsonNumber(m.getter());
    }
    out += "}}";
    return out;
}

std::string
Server::statsText()
{
    const std::uint64_t uptime_ms = refreshMetricShadow();

    std::unique_lock<std::mutex> lock(mtx);
    const Histogram qh = queueWaitHist;
    const Histogram sh = serviceHist;
    const Histogram eh = e2eHist;
    const std::vector<Exemplar> exs = exemplars;
    lock.unlock();

    std::string out = strFormat(
        "# chameleond 127.0.0.1:%u %s, uptime %llu ms\n",
        static_cast<unsigned>(boundPort),
        state() == ServerStateKind::Serving    ? "serving"
        : state() == ServerStateKind::Draining ? "draining"
                                               : "stopped",
        static_cast<unsigned long long>(uptime_ms));

    {
        std::lock_guard<std::mutex> mlock(metricsMtx);
        for (const Metric &m : registry.metrics()) {
            out += strFormat("# TYPE %s %s\n", m.name.c_str(),
                             m.kind == MetricKind::Counter
                                 ? "counter"
                                 : "gauge");
            out += strFormat("%s %s\n", m.name.c_str(),
                             jsonNumber(m.getter()).c_str());
        }
    }

    const auto hist = [&out](const char *name, const Histogram &h) {
        out += strFormat("# TYPE %s summary\n", name);
        for (const double q : {0.50, 0.95, 0.99})
            out += strFormat("%s{quantile=\"%.2f\"} %.3f\n", name, q,
                             h.percentile(q));
        out += strFormat(
            "%s_count %llu\n", name,
            static_cast<unsigned long long>(h.samples()));
    };
    hist("serve_queue_wait_ms", qh);
    hist("serve_service_ms", sh);
    hist("serve_e2e_ms", eh);

    // Span-sink drop accounting (satellite of the tracing tentpole):
    // retained is a gauge (ring occupancy), the others monotonic.
    const RingStats ss = spans ? spans->stats() : RingStats{};
    out += strFormat("# TYPE serve_spans_retained gauge\n"
                     "serve_spans_retained %llu\n",
                     static_cast<unsigned long long>(ss.retained));

    // Slow-request exemplars: the top-K e2e latencies with their
    // trace ids and stage breakdown, so `chameleonctl stats` hands
    // the investigator a trace id to grep in merged timelines.
    for (std::size_t i = 0; i < exs.size(); ++i) {
        const Exemplar &ex = exs[i];
        out += strFormat(
            "serve_slow_request_ms{rank=\"%zu\",trace_id=\"%s\","
            "job=\"%llu\",design=\"%s\",state=\"%s\","
            "queue_ms=\"%.3f\",service_ms=\"%.3f\"} %.3f\n",
            i, hexTraceId(ex.traceHi, ex.traceLo).c_str(),
            static_cast<unsigned long long>(ex.jobId),
            ex.design.c_str(), jobStateLabel(ex.state), ex.queueMs,
            ex.serviceMs, ex.e2eMs);
    }
    return out;
}

} // namespace chameleon::serve
