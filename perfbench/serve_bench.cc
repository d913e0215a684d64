#include "serve_bench.hh"

#include <algorithm>
#include <atomic>
#include <latch>
#include <map>
#include <thread>

#include "serve/client.hh"

using namespace chameleon;
using namespace chameleon::serve;

namespace perfbench
{

namespace
{

constexpr std::uint32_t kResultWaitMs = 60'000;

/** One client thread's share of a batch. */
struct ClientLog
{
    std::vector<double> latencyMs;
    std::vector<double> submitUs;
    std::vector<double> resultUs;
    std::vector<Served> served;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
};

ClientConfig
clientConfig(std::uint16_t port)
{
    ClientConfig cc;
    cc.port = port;
    cc.ioTimeoutMs = 30'000;
    return cc;
}

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Submit, wait for the result, and log the attempt. */
void
serveOne(Client &client, const SubmitRunRequest &req, bool time_calls,
         ClientLog &log)
{
    ++log.attempted;
    try {
        const auto t0 = Clock::now();
        const SubmitRunReply sub = client.submitRun(req);
        const auto t1 = Clock::now();
        JobResultReply res = client.result(sub.jobId, kResultWaitMs);
        const auto t2 = Clock::now();
        if (res.state != JobState::Ok) {
            ++log.failed;
            log.errors.push_back(
                "job " + req.design + "/" + req.app + " ended " +
                jobStateLabel(res.state) + " " + res.error);
            return;
        }
        log.latencyMs.push_back(usBetween(t0, t2) / 1000.0);
        if (time_calls) {
            log.submitUs.push_back(usBetween(t0, t1));
            log.resultUs.push_back(usBetween(t1, t2));
        }
        log.served.push_back({req, std::move(res)});
    } catch (const std::exception &e) {
        ++log.failed;
        log.errors.push_back(std::string("request failed: ") + e.what());
    }
}

} // namespace

ServeRound
runServeRound(const ServeSetup &setup, const ServeLoad &load,
              Outcome &outcome)
{
    ServeRound round;
    ServerConfig cfg;
    cfg.workers = setup.workers;
    cfg.traceSamplePct = setup.tracePct;

    const auto s0 = Clock::now();
    Server server(cfg);
    server.start();
    {
        // Warm-up: all submitted, then all awaited, on one client.
        Client client(clientConfig(server.port()));
        std::vector<std::uint64_t> ids;
        for (const SubmitRunRequest &req : load.warmup)
            ids.push_back(client.submitRun(req).jobId);
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const JobResultReply r = client.result(ids[i], kResultWaitMs);
            if (r.state != JobState::Ok)
                outcome.fail("warm-up job " + load.warmup[i].design +
                             "/" + load.warmup[i].app + " ended " +
                             jobStateLabel(r.state));
        }
    }
    round.setupS = secondsBetween(s0, Clock::now());

    const ResultCache::Stats cache0 = server.cacheStats();
    std::vector<ClientLog> logs(setup.clients);
    std::atomic<std::uint64_t> next{0};
    std::latch ready(setup.clients);
    std::latch go(1);
    std::vector<std::thread> threads;
    for (unsigned k = 0; k < setup.clients; ++k) {
        threads.emplace_back([&, k] {
            ClientLog &log = logs[k];
            Client client(clientConfig(server.port()));
            try {
                client.connect();
            } catch (const std::exception &e) {
                log.errors.push_back(std::string("connect: ") + e.what());
            }
            ready.count_down();
            go.wait();
            try {
                for (;;) {
                    const std::uint64_t i = next.fetch_add(1);
                    if (i >= load.batch)
                        break;
                    serveOne(client, load.request(i), setup.timeCalls, log);
                }
            } catch (const std::exception &e) {
                log.errors.push_back(std::string("client: ") + e.what());
            }
        });
    }
    ready.wait();
    const std::uint64_t batch_us = monotonicNowUs();
    const auto b0 = Clock::now();
    go.count_down();
    for (std::thread &t : threads)
        t.join();
    round.batchWallS = secondsBetween(b0, Clock::now());

    const ResultCache::Stats cache1 = server.cacheStats();
    round.cacheHits = cache1.hits - cache0.hits;
    round.cacheMisses = cache1.misses - cache0.misses;
    round.stats = server.stats();
    if (setup.tracePct > 0.0) {
        round.statsText = server.statsText();
        for (const SpanRecord &s : server.spanSink()->sortedSpans())
            if (s.startUs >= batch_us)
                round.spans.push_back(s);
    }
    server.requestDrain();
    server.awaitDrained();
    server.stop();

    for (ClientLog &log : logs) {
        outcome.attempted += log.attempted;
        outcome.failed += log.failed;
        for (std::string &e : log.errors)
            outcome.fail(std::move(e));
        round.latencyMs.insert(round.latencyMs.end(),
                               log.latencyMs.begin(), log.latencyMs.end());
        round.submitUs.insert(round.submitUs.end(), log.submitUs.begin(),
                              log.submitUs.end());
        round.resultUs.insert(round.resultUs.end(), log.resultUs.begin(),
                              log.resultUs.end());
        for (Served &s : log.served)
            round.served.push_back(std::move(s));
    }
    return round;
}

double
statsQuantile(const std::string &text, const std::string &name,
              const char *q)
{
    const std::string needle =
        name + "{quantile=\"" + std::string(q) + "\"} ";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos)
        return 0.0;
    return std::stod(text.substr(at + needle.size()));
}

Metrics
stageSelfTimes(const std::vector<SpanRecord> &spans)
{
    // Self time = duration minus the union of the children's spans.
    std::map<std::uint64_t, std::vector<std::pair<std::uint64_t,
                                                  std::uint64_t>>>
        children;
    for (const SpanRecord &s : spans)
        if (s.parentId != 0)
            children[s.parentId].push_back({s.startUs, s.endUs});

    const std::pair<SpanKind, const char *> stages[] = {
        {SpanKind::SrvDecode, "serve.stage.decode_us"},
        {SpanKind::SrvAdmission, "serve.stage.admission_us"},
        {SpanKind::SrvCache, "serve.stage.cache_us"},
        {SpanKind::SrvQueueWait, "serve.stage.queue_wait_us"},
        {SpanKind::SrvSimulate, "serve.stage.simulate_us"},
        {SpanKind::SrvEncode, "serve.stage.encode_us"},
    };
    std::map<SpanKind, std::vector<double>> self;
    for (const SpanRecord &s : spans) {
        std::uint64_t covered = 0;
        std::uint64_t reach = s.startUs;
        auto kids = children[s.spanId];
        std::sort(kids.begin(), kids.end());
        for (const auto &[b, e] : kids) {
            const std::uint64_t lo = std::max(b, reach);
            const std::uint64_t hi = std::min(e, s.endUs);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        const std::uint64_t dur = s.endUs - s.startUs;
        self[s.kind].push_back(static_cast<double>(dur - covered));
    }

    Metrics out;
    for (const auto &[kind, name] : stages)
        out[name] = {median(self[kind]), "us"};
    return out;
}

} // namespace perfbench
