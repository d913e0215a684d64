/**
 * @file
 * Closed-loop load against an in-process chameleond Server: each
 * client thread owns one Client and sends its next request only after
 * the previous reply arrived. A round is one fresh server (start plus
 * warm-up, the set-up cost) followed by one fixed-size batch.
 *
 * Nothing is retried: a Busy or admission refusal, an error frame, a
 * transport failure or a non-Ok result is one failed attempt.
 */

#ifndef PERFBENCH_SERVE_BENCH_HH
#define PERFBENCH_SERVE_BENCH_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/span.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"
#include "util.hh"

namespace perfbench
{

struct ServeSetup
{
    unsigned workers = 2;
    /** Closed-loop client threads. */
    unsigned clients = 4;
    /** Server span sampling, percent (100 = every job). */
    double tracePct = 0.0;
    /** Time Client::submitRun and Client::result separately. */
    bool timeCalls = false;
};

/** What one round asks the server for. */
struct ServeLoad
{
    /** Untimed requests run to completion before the batch. */
    std::vector<chameleon::serve::SubmitRunRequest> warmup;
    /** Batch request @p i; called from several client threads. */
    std::function<chameleon::serve::SubmitRunRequest(std::uint64_t)>
        request;
    std::uint64_t batch = 0;
};

/** A request and its Ok reply. */
struct Served
{
    chameleon::serve::SubmitRunRequest req;
    chameleon::serve::JobResultReply reply;
};

struct ServeRound
{
    /** Server construction and start plus the warm-up. */
    double setupS = 0.0;
    double batchWallS = 0.0;
    /** Submit through result, Ok requests only. */
    std::vector<double> latencyMs;
    std::vector<double> submitUs;
    std::vector<double> resultUs;
    std::vector<Served> served;
    chameleon::serve::ServerStats stats;
    /** Cache lookups during the batch. */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::string statsText;
    /** Spans that started during the batch. */
    std::vector<chameleon::SpanRecord> spans;
};

/** One round; failures are counted and described in @p outcome. */
ServeRound runServeRound(const ServeSetup &setup, const ServeLoad &load,
                         Outcome &outcome);

/** The value of `name{quantile="q"}` in a statsText() exposition. */
double statsQuantile(const std::string &stats_text,
                     const std::string &name, const char *q);

/** Median self time (µs) of each server stage span kind. */
Metrics stageSelfTimes(const std::vector<chameleon::SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_SERVE_BENCH_HH
