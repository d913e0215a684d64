#!/bin/sh
# Smoke-test the parallel experiment engine end-to-end: run a tiny
# figure sweep under --jobs 4, check it exits cleanly, emits the
# expected table, and writes a parseable --json result file. Wired
# into CTest (bench/CMakeLists.txt) so a parallelism regression fails
# tier-1 instead of only showing up in long bench runs.
#
# With a micro_core binary as the second argument it additionally
# runs the tracing overhead guard: the traced and untraced
# BM_ChameleonAccess twins must stay within 2% of each other. The
# traced twin records at well above the event rate real sweeps show,
# so the pair bounds the tracing-disabled overhead the observability
# layer is allowed to add. Both tracing guards use a paired statistic
# (see paired_overhead below); the ctest entry is RUN_SERIAL so no
# other test shares the CPUs.
#
# With chameleond + chameleonctl binaries as the third and fourth
# arguments it additionally smoke-tests the serving daemon: start it
# on an ephemeral port, submit one run per design through the client,
# snapshot metrics, then SIGTERM it under a drain and require exit 0
# with zero lost jobs.
#
# With a serve_load binary as the fifth argument it additionally runs
# the serving-tracing-overhead guard: the same closed-loop load with
# --trace-sample-pct 100 (every request carries a sampled protocol-v4
# trace context, so the server records per-stage spans for all of
# them) must keep peak throughput within 3% of the untraced run. The
# paired result is written to BENCH_observability.json (schema v2).
#
# With CHAM_TSAN_BIN_DIR set to a ThreadSanitizer build tree (cmake
# --preset tsan && cmake --build --preset tsan) it additionally runs
# the concurrency-heavy serve suites (test_serve, test_result_cache)
# under TSan, so epoll-loop / worker-pool / cache races fail the
# smoke run rather than only surfacing as rare production hangs.
#
# Usage: bench_smoke.sh <fig15_hitrate> [micro_core]
#                       [chameleond] [chameleonctl] [serve_load]
set -eu

BENCH="${1:?usage: bench_smoke.sh <fig15_hitrate binary> [micro_core] [chameleond] [chameleonctl] [serve_load]}"
MICRO="${2:-}"
DAEMON="${3:-}"
CTL="${4:-}"
LOADGEN="${5:-}"
OUT="$(mktemp /tmp/bench_smoke.XXXXXX.txt)"
JSON="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
CSV="$(mktemp /tmp/bench_smoke.XXXXXX.csv)"
TRACE="$(mktemp /tmp/bench_smoke.XXXXXX.trace.json)"
trap 'rm -f "$OUT" "$JSON" "$CSV" "$TRACE" "${TRACE%.json}".cell*.json' EXIT

"$BENCH" --scale 256 --instr 50000 --refs 2000 \
    --jobs 4 --json "$JSON" --quiet > "$OUT"

grep -q "Fig 15" "$OUT" || {
    echo "bench_smoke: banner missing from output" >&2
    exit 1
}
grep -q "Average" "$OUT" || {
    echo "bench_smoke: summary row missing from output" >&2
    exit 1
}
# The JSON file must be a non-empty array with per-run wall clocks.
grep -q '"wall_seconds"' "$JSON" || {
    echo "bench_smoke: --json output lacks per-run records" >&2
    exit 1
}
grep -q '"jobs": 4' "$JSON" || {
    echo "bench_smoke: --json output lacks the jobs count" >&2
    exit 1
}

# Second pass: the same sweep with fault injection under the shadow
# oracle. Correctable-dominated rates plus a stuck-at population must
# leave every cell "ok" (the oracle aborts on any data divergence)
# while the degradation counters actually move.
"$BENCH" --scale 256 --instr 50000 --refs 2000 \
    --jobs 4 --json "$JSON" --quiet --oracle \
    --faults 1e-4 --fault-stuck 1e-3 --fault-spikes 0.05 \
    --trace "$TRACE" > "$OUT"

# --trace under a parallel sweep writes one Chrome-trace file per
# cell; each must carry the trace-event envelope.
CELL_TRACE="$(ls "${TRACE%.json}".cell*.json 2>/dev/null | head -n 1)"
[ -n "$CELL_TRACE" ] || {
    echo "bench_smoke: --trace wrote no per-cell files" >&2
    exit 1
}
grep -q '"traceEvents"' "$CELL_TRACE" || {
    echo "bench_smoke: per-cell trace lacks the trace-event envelope" >&2
    exit 1
}

grep -q '"status": "ok"' "$JSON" || {
    echo "bench_smoke: fault-injected sweep has no ok cells" >&2
    exit 1
}
if grep -q '"status": "failed"\|"status": "timeout"' "$JSON"; then
    echo "bench_smoke: fault-injected sweep lost cells" >&2
    exit 1
fi
grep -q '"ecc_corrected": [1-9]' "$JSON" || {
    echo "bench_smoke: fault injection produced no ECC events" >&2
    exit 1
}

# Both tracing-overhead guards compare an untraced and a traced run
# on a shared vCPU host, where one reading of either can be off by
# tens of percent. So each guard takes interleaved pairs, one run of
# each twin per pair with the order alternating from pair to pair,
# and judges 1 - median(traced / untraced) over the pairs: host noise
# that hits both runs of a pair cancels in its ratio, and the median
# discards the pairs a burst hit on one side only. Each line of the
# pair file holds one pair's untraced and traced throughput. Prints
# the reading; fails when it exceeds the budget or a run reported no
# throughput.
paired_overhead() {
    # $1 = pair file, $2 = budget (fraction), $3 = label
    awk -v budget="$2" -v what="$3" '
        {
            if ($1 + 0 <= 0 || $2 + 0 <= 0) missing = 1
            else r[++n] = ($2 + 0) / ($1 + 0)
        }
        END {
            if (missing || n == 0) {
                print "bench_smoke: " what ": a run reported no " \
                      "throughput" > "/dev/stderr"
                exit 1
            }
            for (i = 2; i <= n; ++i)
                for (j = i; j > 1 && r[j - 1] > r[j]; --j) {
                    t = r[j]; r[j] = r[j - 1]; r[j - 1] = t
                }
            med = (n % 2) ? r[(n + 1) / 2] : (r[n / 2] + r[n / 2 + 1]) / 2
            overhead = 1 - med
            printf "bench_smoke: %s %.2f%% (median of %d paired " \
                   "ratios, traced/untraced from %.3f to %.3f)\n", \
                   what, overhead * 100.0, n, r[1], r[n]
            if (overhead > budget)
                exit 1
        }' "$1"
}

# Tracing overhead guard (needs the micro_core binary): the traced
# BM_ChameleonAccess twin records into a live sink at well above the
# production event rate, so its throughput loss against the untraced
# twin bounds what the disabled instrumentation can cost. Paired
# statistic over MICRO_PAIRS pairs of single 0.1 s runs; the budget
# is 2%.
MICRO_PAIRS=21
if [ -n "$MICRO" ]; then
    micro_rate() {
        # items/s of one run of benchmark $1
        "$MICRO" --benchmark_filter="^$1\$" --benchmark_min_time=0.1 \
            --benchmark_format=csv 2>/dev/null |
            awk -F, -v name="\"$1\"" '$1 == name { print $7 + 0 }'
    }
    # A genuine regression fails all three attempts.
    guard_ok=0
    for attempt in 1 2 3; do
        : > "$CSV"
        pair=0
        while [ "$pair" -lt "$MICRO_PAIRS" ]; do
            if [ $((pair % 2)) -eq 0 ]; then
                base="$(micro_rate BM_ChameleonAccess)"
                traced="$(micro_rate BM_ChameleonAccessTraced)"
            else
                traced="$(micro_rate BM_ChameleonAccessTraced)"
                base="$(micro_rate BM_ChameleonAccess)"
            fi
            echo "${base:-0} ${traced:-0}" >> "$CSV"
            pair=$((pair + 1))
        done
        if paired_overhead "$CSV" 0.02 "tracing overhead"; then
            guard_ok=1
            break
        fi
    done
    if [ "$guard_ok" != 1 ]; then
        echo "bench_smoke: tracing overhead exceeded 2% in" \
             "3 attempts" >&2
        exit 1
    fi
fi

# Serving-daemon stage (needs chameleond + chameleonctl): one run per
# design through the wire protocol, a metrics scrape, then a SIGTERM
# drain that must exit 0 having lost no accepted job.
if [ -n "$DAEMON" ] && [ -n "$CTL" ]; then
    DLOG="$(mktemp /tmp/bench_smoke.XXXXXX.chameleond.log)"

    "$DAEMON" --quiet --workers 2 \
        --scale 512 --instr 20000 --refs 1000 > "$DLOG" 2>&1 &
    DPID=$!
    trap 'rm -f "$OUT" "$JSON" "$CSV" "$TRACE" \
            "${TRACE%.json}".cell*.json "$DLOG"; \
          kill "$DPID" 2>/dev/null || true' EXIT

    # The daemon prints its ephemeral port on the first line.
    PORT=""
    for _ in $(seq 1 50); do
        PORT="$(sed -n \
            's/^chameleond: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
            "$DLOG")"
        [ -n "$PORT" ] && break
        sleep 0.1
    done
    [ -n "$PORT" ] || {
        echo "bench_smoke: chameleond never reported its port" >&2
        cat "$DLOG" >&2
        exit 1
    }

    "$CTL" --port "$PORT" health | grep -q '"state":"serving"' || {
        echo "bench_smoke: daemon health check failed" >&2
        exit 1
    }

    # One run per design; every job must come back ok (no faults
    # injected, so degraded would be a regression too).
    for design in flat-ddr numa-flat alloy-cache pom chameleon \
                  chameleon-opt polymorphic; do
        "$CTL" --port "$PORT" submit --design "$design" \
            --app stream --wait 60000 > "$OUT" || {
            echo "bench_smoke: serve job for $design failed" >&2
            cat "$OUT" >&2
            exit 1
        }
        grep -q '"state":"ok"' "$OUT" || {
            echo "bench_smoke: $design job not ok" >&2
            cat "$OUT" >&2
            exit 1
        }
    done

    # Metrics scrape must show all 7 accepted jobs completed ok.
    "$CTL" --port "$PORT" metrics > "$OUT"
    grep -q '"serve_jobs_accepted":7' "$OUT" || {
        echo "bench_smoke: metrics lost accepted jobs" >&2
        cat "$OUT" >&2
        exit 1
    }
    grep -q '"serve_jobs_ok":7' "$OUT" || {
        echo "bench_smoke: metrics lost completed jobs" >&2
        cat "$OUT" >&2
        exit 1
    }

    # SIGTERM: graceful drain, exit 0, zero lost jobs reported.
    kill -TERM "$DPID"
    DSTATUS=0
    wait "$DPID" || DSTATUS=$?
    [ "$DSTATUS" -eq 0 ] || {
        echo "bench_smoke: chameleond drain exited $DSTATUS" >&2
        cat "$DLOG" >&2
        exit 1
    }
    grep -q 'lost=0' "$DLOG" || {
        echo "bench_smoke: chameleond reported lost jobs" >&2
        cat "$DLOG" >&2
        exit 1
    }
    rm -f "$DLOG"
fi

# Serving-tracing-overhead guard (needs the serve_load binary): the
# same closed-loop load, untraced vs --trace-sample-pct 100 (every
# request carries a sampled trace context, so the daemon buffers and
# flushes per-stage spans for all of them). Paired statistic over
# SERVE_PAIRS pairs of peak throughputs; the budget is 3%. The result
# (medians of both sides and the paired overhead) lands in
# BENCH_observability.json (schema chameleon-observability-v2).
SERVE_PAIRS=21
if [ -n "$LOADGEN" ]; then
    UNJSON="${JSON%.json}.serve_untraced.json"
    TRJSON="${JSON%.json}.serve_traced.json"
    peak_tput() {
        grep -o '"throughput_jobs_per_s": [0-9.eE+-]*' "$1" | awk '
            { if ($2 + 0 > max) max = $2 + 0 }
            END { print max + 0 }'
    }
    serve_run() {
        # $1 = sample pct, $2 = json out
        "$LOADGEN" --max-clients 8 --requests 12 --cached-pct 90 \
            --cold-pool 16 --workers 2 --scale 256 --instr 2000 \
            --refs 200 --trace-sample-pct "$1" \
            --json "$2" --quiet > /dev/null
    }
    serve_guard_ok=0
    for attempt in 1 2 3; do
        : > "$CSV"
        pair=0
        while [ "$pair" -lt "$SERVE_PAIRS" ]; do
            if [ $((pair % 2)) -eq 0 ]; then
                serve_run 0 "$UNJSON"
                serve_run 100 "$TRJSON"
            else
                serve_run 100 "$TRJSON"
                serve_run 0 "$UNJSON"
            fi
            echo "$(peak_tput "$UNJSON") $(peak_tput "$TRJSON")" >> "$CSV"
            pair=$((pair + 1))
        done
        if paired_overhead "$CSV" 0.03 "serving tracing overhead"; then
            serve_guard_ok=1
            break
        fi
    done
    if [ "$serve_guard_ok" != 1 ]; then
        echo "bench_smoke: serving tracing overhead exceeded 3% in" \
             "3 attempts" >&2
        rm -f "$UNJSON" "$TRJSON"
        exit 1
    fi
    awk -v pairs="$SERVE_PAIRS" '
        function median(a, n,    i, j, t) {
            for (i = 2; i <= n; ++i)
                for (j = i; j > 1 && a[j - 1] > a[j]; --j) {
                    t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
                }
            return (n % 2) ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
        }
        { base[NR] = $1 + 0; traced[NR] = $2 + 0; ratio[NR] = $2 / $1 }
        END {
            b = median(base, NR)
            t = median(traced, NR)
            overhead = 1 - median(ratio, NR)
            printf "{\n"
            printf "  \"schema\": \"chameleon-observability-v2\",\n"
            printf "  \"serving_tracing_overhead\": {\n"
            printf "    \"command\": \"serve_load --max-clients 8"
            printf " --requests 12 --cached-pct 90 --cold-pool 16"
            printf " --workers 2 --scale 256 --instr 2000 --refs"
            printf " 200 --trace-sample-pct {0,100}\",\n"
            printf "    \"pairs\": %d,\n", pairs
            printf "    \"untraced_peak_jobs_per_s\": %.1f,\n", b
            printf "    \"traced_peak_jobs_per_s\": %.1f,\n", t
            printf "    \"overhead_pct\": %.2f,\n", overhead * 100.0
            printf "    \"statistic\": \"1 - median over pairs of"
            printf " traced/untraced peak; peaks are medians\",\n"
            printf "    \"budget_pct\": 3.0\n"
            printf "  }\n"
            printf "}\n"
        }' "$CSV" > BENCH_observability.json
    rm -f "$UNJSON" "$TRJSON"
    echo "bench_smoke: serving tracing guard OK"
fi

# Fleet-resilience stage (opt-in: CHAM_RESIL_SMOKE=1, needs the
# chameleond + chameleonctl arguments; the chameleon_chaos binary is
# expected next to chameleond). Two daemons behind seeded chaos
# proxies, jobs submitted through the sharded retrying client with
# hedging enabled: every job must come back exit 0, and both daemons
# must drain with zero lost jobs despite the injected faults.
if [ -n "${CHAM_RESIL_SMOKE:-}" ] && [ -n "$DAEMON" ] && [ -n "$CTL" ]
then
    CHAOS="$(dirname "$DAEMON")/chameleon_chaos"
    [ -x "$CHAOS" ] || {
        echo "bench_smoke: $CHAOS missing for CHAM_RESIL_SMOKE" >&2
        exit 1
    }
    RLOG1="$(mktemp /tmp/bench_smoke.XXXXXX.resil1.log)"
    RLOG2="$(mktemp /tmp/bench_smoke.XXXXXX.resil2.log)"
    CLOG1="$(mktemp /tmp/bench_smoke.XXXXXX.chaos1.log)"
    CLOG2="$(mktemp /tmp/bench_smoke.XXXXXX.chaos2.log)"

    CPID1=""
    CPID2=""
    "$DAEMON" --quiet --workers 2 \
        --scale 256 --instr 10000 --refs 500 > "$RLOG1" 2>&1 &
    RPID1=$!
    "$DAEMON" --quiet --workers 2 \
        --scale 256 --instr 10000 --refs 500 > "$RLOG2" 2>&1 &
    RPID2=$!
    trap 'rm -f "$OUT" "$JSON" "$CSV" "$TRACE" \
            "${TRACE%.json}".cell*.json \
            "$RLOG1" "$RLOG2" "$CLOG1" "$CLOG2"; \
          kill "$RPID1" "$RPID2" 2>/dev/null || true; \
          kill "$CPID1" "$CPID2" 2>/dev/null || true' EXIT

    resil_port() {
        # $1 = log file, $2 = banner prefix
        port=""
        for _ in $(seq 1 50); do
            port="$(sed -n \
                "s/^$2: listening on 127\.0\.0\.1:\([0-9]*\)\$/\1/p" \
                "$1")"
            [ -n "$port" ] && break
            sleep 0.1
        done
        [ -n "$port" ] || {
            echo "bench_smoke: $2 never reported its port" >&2
            cat "$1" >&2
            exit 1
        }
        echo "$port"
    }
    RPORT1="$(resil_port "$RLOG1" chameleond)"
    RPORT2="$(resil_port "$RLOG2" chameleond)"

    # Mild but real chaos on both shards: drops force retries,
    # delays force hedges, and the seed keeps the schedule
    # reproducible run to run.
    "$CHAOS" --target-port "$RPORT1" --seed 11 \
        --drop 0.02 --delay 0.05 --delay-ms 40 > "$CLOG1" 2>&1 &
    CPID1=$!
    "$CHAOS" --target-port "$RPORT2" --seed 12 \
        --drop 0.02 --delay 0.05 --delay-ms 40 > "$CLOG2" 2>&1 &
    CPID2=$!
    CPORT1="$(resil_port "$CLOG1" chameleon_chaos)"
    CPORT2="$(resil_port "$CLOG2" chameleon_chaos)"

    for design in chameleon chameleon-opt flat-ddr; do
        "$CTL" --ports "$CPORT1,$CPORT2" --retries 4 --hedge-ms 150 \
            submit --design "$design" --app stream \
            --wait 60000 > "$OUT" || {
            echo "bench_smoke: resilient job for $design failed" >&2
            cat "$OUT" >&2
            exit 1
        }
        grep -q '"state":"ok"' "$OUT" || {
            echo "bench_smoke: resilient $design job not ok" >&2
            cat "$OUT" >&2
            exit 1
        }
    done

    kill -TERM "$CPID1" "$CPID2" 2>/dev/null || true
    wait "$CPID1" "$CPID2" 2>/dev/null || true
    for pid in "$RPID1" "$RPID2"; do
        kill -TERM "$pid"
        RSTATUS=0
        wait "$pid" || RSTATUS=$?
        [ "$RSTATUS" -eq 0 ] || {
            echo "bench_smoke: resil daemon drain exited $RSTATUS" >&2
            cat "$RLOG1" "$RLOG2" >&2
            exit 1
        }
    done
    grep -q 'lost=0' "$RLOG1" && grep -q 'lost=0' "$RLOG2" || {
        echo "bench_smoke: resil daemons reported lost jobs" >&2
        cat "$RLOG1" "$RLOG2" >&2
        exit 1
    }
    rm -f "$RLOG1" "$RLOG2" "$CLOG1" "$CLOG2"
    echo "bench_smoke: resilience fleet stage OK"
fi

# ThreadSanitizer stage (opt-in: CHAM_TSAN_BIN_DIR points at a tsan
# preset build tree). Runs the serve + result-cache suites, the two
# with real cross-thread traffic: epoll I/O thread vs worker pool vs
# client threads, and the shared result cache under single-flight.
if [ -n "${CHAM_TSAN_BIN_DIR:-}" ]; then
    for t in test_serve test_result_cache; do
        TBIN="$CHAM_TSAN_BIN_DIR/tests/$t"
        [ -x "$TBIN" ] || {
            echo "bench_smoke: $TBIN missing; build the tsan preset" >&2
            exit 1
        }
        TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+ $TSAN_OPTIONS}" \
            "$TBIN" --gtest_brief=1 || {
            echo "bench_smoke: $t failed under TSan" >&2
            exit 1
        }
    done
    echo "bench_smoke: TSan serve suites clean"
fi
echo "bench_smoke: OK"
