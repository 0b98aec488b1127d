#!/usr/bin/env bash
# Local CI gate: build, lint, test, a scaled-down end-to-end sweep, a
# probed trace export, and regression gating against the checked-in
# baseline.
#
# Usage: scripts/ci.sh
# The smoke runs write artifacts to a throwaway directory; nothing in
# the repo is modified.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, all crates) =="
cargo build --release --workspace

echo "== lint (clippy, warnings are errors) =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== docs (rustdoc, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== tests (unit + property + integration) =="
cargo test -q --workspace

echo "== allocation gate in the release build the benchmarks time =="
cargo test --release -q -p tdc-core --test alloc_free -p tdc-harness --test kernel_alloc

echo "== lint: tdc lint (determinism & invariant static analysis) =="
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
./target/release/tdc lint --out "$out"
test -s "$out/lint.json" || { echo "lint wrote no lint.json" >&2; exit 1; }

echo "== lint: --only filter smoke =="
./target/release/tdc lint --only time-source,panic-in-lib --no-out

echo "== smoke: tdc all --jobs 2 at 5% scale (cold, populating the store) =="
./target/release/tdc all --jobs 2 --scale 0.05 --quiet --out "$out" \
    --cache-dir "$out/store"
test -s "$out/index.json" || { echo "smoke run wrote no index.json" >&2; exit 1; }
test -s "$out/metrics.json" || { echo "smoke run wrote no metrics.json" >&2; exit 1; }
ls "$out/store"/cell-*.json >/dev/null || { echo "smoke run persisted no cells" >&2; exit 1; }
echo "ok: $(find "$out" -name '*.json' | wc -l) artifacts"

echo "== smoke: tdc all warm-started from the store (zero executions) =="
./target/release/tdc all --jobs 2 --scale 0.05 --quiet --out "$out/warm" \
    --cache-dir "$out/store"
grep -q '"executed": 0' "$out/warm/metrics.json" \
    || { echo "warm run re-executed jobs instead of loading the store" >&2; exit 1; }
diff -q "$out/index.json" "$out/warm/index.json" >/dev/null \
    || { echo "warm run diverged from the cold run" >&2; exit 1; }

# Cross-jobs byte identity against the --jobs 2 run in "$out": every
# artifact except the two wall-clock ones (metrics.json and
# trace/pool.trace.json) must match, and both runs must have written
# the same number of per-cell reports under runs/.
same_as_jobs2() { # <run dir> <label>
    local f
    for f in $(cd "$1" && find . -type f ! -name metrics.json ! -path ./trace/pool.trace.json); do
        cmp -s "$1/$f" "$out/$f" \
            || { echo "$2 run diverged from --jobs 2 on $f" >&2; exit 1; }
    done
    [ "$(ls "$1/runs" | wc -l)" = "$(ls "$out/runs" | wc -l)" ] \
        || { echo "$2 run wrote a different number of runs" >&2; exit 1; }
}

echo "== smoke: tdc all --jobs 16 (oversubscribed, byte-identical to --jobs 2) =="
# More workers than most batches have tasks, so workers race for the
# last indices of the shared dispatch counter. No store, so every cell
# actually executes.
./target/release/tdc all --jobs 16 --scale 0.05 --quiet --out "$out/over"
same_as_jobs2 "$out/over" "--jobs 16"
grep -q '"pool"' "$out/over/metrics.json" && grep -q '"busy_ns"' "$out/over/metrics.json" \
    || { echo "--jobs 16 run recorded no scheduler telemetry" >&2; exit 1; }

echo "== smoke: tdc all --jobs 1 (trace prefetch path, byte-identical to --jobs 2) =="
# One worker on a host with 2+ CPUs has a spare CPU, so its cells
# generate their traces on producer threads (DESIGN.md §7.1).
# metrics.json records that decision next to the CPU count it saw.
./target/release/tdc all --jobs 1 --scale 0.05 --quiet --out "$out/serial"
same_as_jobs2 "$out/serial" "--jobs 1"
cpus="$(sed -n 's/^ *"host_cpus": \([0-9]*\).*/\1/p' "$out/serial/metrics.json")"
feed="$(sed -n 's/^ *"trace_feed": "\([a-z]*\)".*/\1/p' "$out/serial/metrics.json")"
expected=inline
[ "${cpus:-0}" -ge 2 ] && expected=prefetch
[ "$feed" = "$expected" ] \
    || { echo "--jobs 1 on ${cpus:-?} CPUs fed traces '$feed', expected $expected" >&2; exit 1; }
echo "ok: --jobs 1 on $cpus CPUs, trace_feed=$feed"

echo "== smoke: tdc trace (probed run, Perfetto export) =="
./target/release/tdc trace mcf/ctlb --scale 0.02 --out "$out"
test -s "$out/runs/mcf_ctlb.timeseries.json" || { echo "trace wrote no timeseries" >&2; exit 1; }
test -s "$out/trace/mcf_ctlb.trace.json" || { echo "trace wrote no trace.json" >&2; exit 1; }

echo "== smoke: tdc prof (phase attribution, >= 95% of wall accounted) =="
./target/release/tdc prof mcf/ctlb --scale 0.02 --out "$out" --min-attributed 95
test -s "$out/prof.json" || { echo "prof wrote no prof.json" >&2; exit 1; }

echo "== smoke: 2-way --shard fleet sweep recombined from its stores at 25% scale =="
./target/release/tdc all --shard 1/2 --scale 0.25 --jobs 2 --quiet --cache-dir "$out/s1"
./target/release/tdc all --shard 2/2 --scale 0.25 --jobs 2 --quiet --cache-dir "$out/s2"
mkdir -p "$out/fleet"
cp "$out/s1"/cell-*.json "$out/s2"/cell-*.json "$out/fleet/"
./target/release/tdc all --scale 0.25 --jobs 2 --quiet --out "$out/merged" \
    --cache-dir "$out/fleet"
grep -q '"executed": 0' "$out/merged/metrics.json" \
    || { echo "shard set incomplete: the warm run re-simulated cells" >&2; exit 1; }
for f in baselines/scale-0.25/*.json; do
    base="$(basename "$f")"
    [ "$base" = index.json ] && continue # lists figures in a different order
    cmp -s "$f" "$out/merged/$base" \
        || { echo "merged $base differs from baselines/scale-0.25" >&2; exit 1; }
done

echo "== regression: tdc diff vs baselines/scale-0.25 =="
./target/release/tdc diff baselines/scale-0.25 --jobs 2 --quiet

echo "== smoke: tdc serve daemon + bench load generator + dedup gate =="
serve_log="$out/serve.log"
./target/release/tdc serve --addr 127.0.0.1:0 --scale 0.01 --jobs 2 \
    --cache-dir "$out/serve-store" --events "$out/events.jsonl" \
    --quiet >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^tdc serve: listening on //p' "$serve_log" | head -n1)"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve daemon never reported its address" >&2
                    kill "$serve_pid" 2>/dev/null; exit 1; }

echo "== smoke: /metrics.prom scrape (Prometheus text exposition) =="
# One request per connection (Connection: close), so bash's /dev/tcp is
# scraper enough — no curl dependency.
prom="$out/metrics.prom"
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
printf 'GET /metrics.prom HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n' "$addr" >&3
cat <&3 >"$prom"
exec 3<&- 3>&-
grep -q '# TYPE tdc_requests_total counter' "$prom" \
    || { echo "scrape missing tdc_requests_total" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
grep -q 'tdc_request_duration_us_bucket{le="+Inf"}' "$prom" \
    || { echo "scrape missing latency histogram" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }

bench_out="$(./target/release/tdc serve --bench --addr "$addr" \
    --requests 40 --clients 4 --scale 0.01 --expect-speedup 2 --shutdown)" \
    || { echo "serve bench failed" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
printf '%s\n' "$bench_out"
wait "$serve_pid" || { echo "serve daemon exited non-zero" >&2; exit 1; }
grep -q 'server work counters:' <<<"$bench_out" \
    || { echo "serve bench reported no work counters" >&2; exit 1; }
if grep -q 'server work counters: deduped=0 mem_hits=0' <<<"$bench_out"; then
    echo "serve bench saw no request deduplication" >&2; exit 1
fi
grep -q '"event":"request_begin"' "$out/events.jsonl" \
    || { echo "daemon wrote no structured events" >&2; exit 1; }

echo "== perf: tdc bench run twice + noise-aware gate =="
# Hermetic gate: record -> promote to a throwaway baseline -> record
# again -> check. A reduced iteration budget and a capped run count
# keep it fast; the checked-in baselines/bench-baseline.json is the
# cross-commit gate for the recording host (see BENCHMARKS.md).
bench_env=(env TDC_BENCH_ITERS_SCALE=0.02 TDC_BENCH_MAX_RUNS=3)
"${bench_env[@]}" ./target/release/tdc bench run \
    --out "$out/bench" --stamp-dir "$out" --scale 0.01 --jobs 2 --quiet
./target/release/tdc bench check --history "$out/bench/bench-history.jsonl" \
    --baseline "$out/bench-baseline.json" --update --allow-dirty
"${bench_env[@]}" ./target/release/tdc bench run \
    --out "$out/bench" --stamp-dir "$out" --scale 0.01 --jobs 2 --quiet
# The back-to-back hermetic check exercises the gate mechanism, not
# cross-commit performance (the checked-in baseline does that on the
# recording host), so it runs with a loose margin: the second record
# lands on a machine still hot from the smoke sweeps above, which
# shifts allocation-heavy kernels well past the default 25% band.
./target/release/tdc bench check --history "$out/bench/bench-history.jsonl" \
    --baseline "$out/bench-baseline.json" --margin 0.75

echo "== bench artifact (upload-or-print) =="
# No artifact store is configured for the local gate, so print the
# commit stamp; a CI provider would upload this file instead.
stamp="$(ls "$out"/BENCH_*.json | head -n1)"
cat "$stamp"

if [ "${TDC_FULL_SCALE:-0}" = "1" ]; then
    echo "== nightly: tdc all --scale 1.0 (full-scale smoke, TDC_FULL_SCALE=1) =="
    ./target/release/tdc all --jobs 2 --scale 1.0 --quiet --out "$out/full"
    test -s "$out/full/index.json" \
        || { echo "full-scale run wrote no index.json" >&2; exit 1; }
    echo "ok: $(find "$out/full" -name '*.json' | wc -l) artifacts at scale 1.0"
fi
