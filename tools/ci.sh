#!/usr/bin/env bash
# CI stages — twelve of them, each runnable on its own:
#
#   tools/ci.sh             # all stages: lint, release, numeric, sanitize,
#                           # fuzz, tsan, chaos, tidy, perf, store, cluster,
#                           # coverage
#   tools/ci.sh lint        # rrslint conventions + lint fixtures (no build)
#   tools/ci.sh release     # build + tier 1 (-LE "stats|race|chaos") + tier 2 (-L stats)
#   tools/ci.sh numeric     # native vs -DRRS_ENABLE_NATIVE_ARCH=OFF rrsd: f64
#                           # tiles, fingerprints and ETags must be identical;
#                           # Golden.* under the native-off build
#   tools/ci.sh sanitize    # tier 1 under ASan+UBSan
#   tools/ci.sh fuzz        # fuzz harnesses (DESIGN.md §16): 60 s/harness of
#                           # libFuzzer when clang provides it, corpus replay
#                           # always -> bench_out/BENCH_fuzz.json
#   tools/ci.sh tsan        # tier 3: race tests (-L race) under ThreadSanitizer
#   tools/ci.sh chaos       # tier 3: fault-injection tests (-L chaos), release
#                           # + ASan/UBSan, plus the resilience bench gates
#   tools/ci.sh tidy        # clang-tidy over src/ (skips cleanly if not installed)
#   tools/ci.sh perf        # quick net load bench -> bench_out/BENCH_net.json
#   tools/ci.sh store       # warm-restart rrsd smoke (persistent L2 tile store)
#                           # + the store bench -> bench_out/BENCH_store.json
#   tools/ci.sh cluster     # 3-shard fleet + routing proxy smoke (byte-identity,
#                           # traffic spread, SIGSTOP degradation, unreachable
#                           # fleet exit 3), reshard peer-fill smoke + the
#                           # capacity bench gate -> bench_out/BENCH_cluster.json
#   tools/ci.sh coverage    # instrumented tier 1+2 run, merged per-module
#                           # rates gated against tools/coverage_thresholds.json
#
# Sanitizer reports are fatal (-fno-sanitize-recover=all, TSan
# halt_on_error=1), so a green run means the suite is clean.  The `race` and
# `chaos` labels are excluded from the release/sanitize tiers (tier-1 wall
# time is unchanged by them); the tsan/chaos stages run ONLY their label.
set -euo pipefail

cd "$(dirname "$0")/.."

build_preset() {
    local preset=$1 dir=$2
    # The presets use Ninja; a binary dir configured by hand with another
    # generator cannot be reused — start it fresh instead of erroring out.
    if [[ -f "$dir/CMakeCache.txt" ]] &&
        ! grep -q '^CMAKE_GENERATOR:INTERNAL=Ninja$' "$dir/CMakeCache.txt"; then
        echo "==> [$preset] $dir was configured with another generator; wiping it"
        rm -rf "$dir"
    fi
    echo "==> [$preset] configure"
    cmake --preset "$preset"
    echo "==> [$preset] build"
    cmake --build --preset "$preset" -j "$(nproc)"
}

run_release() {
    build_preset release build
    # Tier 1 (fast unit/property tests) first for quick failure, then
    # tier 2: the statistical acceptance suite (ctest label "stats").  The
    # "race" and "chaos" labels are tier 3 — tsan/chaos stages only.
    echo "==> [release] test (tier 1)"
    ctest --preset release -j "$(nproc)" -LE 'stats|race|chaos'
    echo "==> [release] test (tier 2: stats)"
    ctest --preset release -j "$(nproc)" -L stats
    rrstile_smoke build
    rrsgen_trace_smoke build
    rrsd_smoke build
}

run_numeric() {
    # The numeric contract (DESIGN.md §15.3.1): the source, not the build,
    # fixes every rounding.  Serve the paper's scenes from the native
    # Release rrsd and from a -DRRS_ENABLE_NATIVE_ARCH=OFF one, fetch f64
    # tiles at z = 0 and z = 1 from each, and require identical bodies,
    # X-RRS-Fingerprint and ETag.  Then run the Golden byte hashes under the
    # native-off build.
    build_preset release build
    local off=build-native-off
    if [[ -f "$off/CMakeCache.txt" ]] &&
        ! grep -q '^CMAKE_GENERATOR:INTERNAL=Ninja$' "$off/CMakeCache.txt"; then
        rm -rf "$off"
    fi
    echo "==> [numeric] configure + build $off (RRS_ENABLE_NATIVE_ARCH=OFF)"
    cmake -S . -B "$off" -G Ninja -DCMAKE_BUILD_TYPE=Release \
        -DRRS_ENABLE_NATIVE_ARCH=OFF -DRRS_BUILD_BENCH=OFF \
        -DRRS_BUILD_EXAMPLES=OFF -DRRS_BUILD_FUZZ=OFF > /dev/null
    cmake --build "$off" -j "$(nproc)" --target rrsd rrsquery test_properties

    local work scene name q n=0
    work=$(mktemp -d)
    local -a tiles=('tx=0&ty=0&z=0' 'tx=-1&ty=1&z=0' 'tx=0&ty=0&z=1' 'tx=-1&ty=0&z=1')
    for scene in scenes/fig1_quadrants.rrs scenes/fig3_pond.rrs scenes/fig4_points.rrs; do
        name=$(basename "$scene" .rrs)
        numeric_fetch build "$scene" "$work/native.$name" tiles
        numeric_fetch "$off" "$scene" "$work/off.$name" tiles
        for q in "${!tiles[@]}"; do
            if ! cmp -s "$work/native.$name.$q.body" "$work/off.$name.$q.body" ||
                ! cmp -s "$work/native.$name.$q.ids" "$work/off.$name.$q.ids"; then
                echo "==> numeric: $name '${tiles[$q]}' differs between native and" \
                    "native-off builds" >&2
                diff "$work/native.$name.$q.ids" "$work/off.$name.$q.ids" >&2 || true
                return 1
            fi
            n=$((n + 1))
        done
    done
    echo "    numeric ok: $n f64 tiles, fingerprints and ETags identical"
    rm -rf "$work"
    echo "==> [numeric] Golden.* ($off)"
    "$off/tests/test_properties" --gtest_filter='Golden.*'
}

# Boot DIR's rrsd on SCENE, fetch each tile query of the named array as
# q=f64 into "<prefix>.<index>.body" and its X-RRS-Fingerprint and ETag
# lines into "<prefix>.<index>.ids", then drain the daemon.
numeric_fetch() {
    local dir=$1 scene=$2 prefix=$3
    local -n queries=$4
    local port_file pid port i
    port_file=$(mktemp -u)
    "$dir/tools/rrsd" "$scene" --port 0 --port-file "$port_file" --quiet > /dev/null &
    pid=$!
    if ! wait_for_port_file "$port_file"; then
        echo "==> numeric: $dir rrsd never published its port" >&2
        kill -9 "$pid" 2>/dev/null || true
        return 1
    fi
    port=$(cat "$port_file")
    for i in "${!queries[@]}"; do
        "$dir/tools/rrsquery" "127.0.0.1:$port" "/v1/tile?${queries[$i]}&q=f64" \
            --timeout-ms 120000 --headers --out "$prefix.$i.body" \
            2> "$prefix.$i.hdr" > /dev/null
        grep -i -E '^(x-rrs-fingerprint|etag):' "$prefix.$i.hdr" | tr -d '\r' \
            > "$prefix.$i.ids"
        if [[ $(wc -l < "$prefix.$i.ids") -ne 2 ]]; then
            echo "==> numeric: no fingerprint or ETag for '${queries[$i]}'" >&2
            kill -TERM "$pid"
            return 1
        fi
    done
    kill -TERM "$pid"
    wait "$pid" || true
    rm -f "$port_file"
}

run_sanitize() {
    # The sanitize testPreset excludes "stats" (ensemble statistics under
    # ASan cost minutes and check nothing ASan can see) and "race" (that
    # contention pattern belongs to the tsan stage).
    build_preset sanitize build-sanitize
    echo "==> [sanitize] test"
    ctest --preset sanitize -j "$(nproc)"
    rrstile_smoke build-sanitize
    rrsgen_trace_smoke build-sanitize
}

run_tsan() {
    # Tier 3: high-contention race suite (tests/test_race.cpp) under
    # ThreadSanitizer.  The preset turns OpenMP off (libgomp is not
    # TSan-instrumented) and runs only the "race" label with halt_on_error.
    build_preset tsan build-tsan
    echo "==> [tsan] test (tier 3: race)"
    ctest --preset tsan -j "$(nproc)"
}

run_chaos() {
    # Tier 3: the chaos suite (tests/test_chaos.cpp) — live client/server
    # traffic under armed fault plans — in release and again under
    # ASan+UBSan (injected faults exercise exactly the error paths a
    # sanitizer wants to see).  Then the resilience bench, which exits
    # non-zero if the disarmed probe is not zero-cost, if retries fail to
    # absorb a 20% fault rate, or if any tile is not byte-identical after
    # disarm.
    build_preset release build
    echo "==> [chaos] test (tier 3: chaos, release)"
    ctest --preset chaos -j "$(nproc)"
    build_preset sanitize build-sanitize
    echo "==> [chaos] test (tier 3: chaos, ASan+UBSan)"
    ctest --preset chaos-sanitize -j "$(nproc)"
    echo "==> [chaos] resilience --quick"
    build/bench/resilience --quick --out-dir bench_out
    echo "==> [chaos] wrote bench_out/BENCH_resilience.json"
}

run_fuzz() {
    # Fuzz tier (DESIGN.md §16): build the fuzz preset (ASan+UBSan).  When
    # the compiler provides libFuzzer (clang), each harness explores for
    # 60 s seeded from its checked-in corpus; under gcc the preset degrades
    # to replay drivers only.  Either way every corpus must replay clean,
    # and the replay throughput is recorded to bench_out/BENCH_fuzz.json.
    build_preset fuzz build-fuzz
    local harnesses=(http_head scene fault_plan segment_scan checkpoint query
                     topology)
    local h line newdir
    local stats=()
    mkdir -p bench_out
    for h in "${harnesses[@]}"; do
        if [[ -x "build-fuzz/fuzz/fuzz_$h" ]]; then
            echo "==> [fuzz] libFuzzer: $h (60 s)"
            newdir=$(mktemp -d)
            "build-fuzz/fuzz/fuzz_$h" -max_total_time=60 -print_final_stats=1 \
                "$newdir" "fuzz/corpus/$h"
            rm -rf "$newdir"
        fi
        echo "==> [fuzz] replay: $h"
        line=$("build-fuzz/fuzz/fuzz_${h}_replay" --repeat 20 "fuzz/corpus/$h")
        echo "    $line"
        stats+=("$line")
    done
    python3 - "${stats[@]}" <<'EOF'
import json, pathlib, re, sys
records = []
for line in sys.argv[1:]:
    m = re.match(r"fuzz-replay: name=(\S+) files=(\d+) execs=(\d+)"
                 r" wall_ms=([\d.]+) execs_per_s=([\d.]+)", line.strip())
    assert m, f"unparseable replay stats line: {line!r}"
    records.append({"name": m.group(1), "n": int(m.group(2)),
                    "wall_ms": float(m.group(4)),
                    "throughput": float(m.group(5))})
out = pathlib.Path("bench_out/BENCH_fuzz.json")
out.write_text(json.dumps({"schema": 1, "bench": "fuzz",
                           "records": records}, indent=1) + "\n")
print(f"==> [fuzz] wrote {out} ({len(records)} harnesses)")
EOF
}

run_coverage() {
    tools/coverage.sh
}

run_lint() {
    echo "==> [lint] rrslint src"
    tools/rrslint src
    echo "==> [lint] rrslint fixtures"
    tools/rrslint --check-fixtures tests/lint_fixtures
}

run_tidy() {
    # run_tidy.sh fails on ANY diagnostic; it skips (exit 0) when no
    # clang-tidy binary exists in the environment.
    tools/run_tidy.sh build
}

run_perf() {
    # Quick closed-loop load bench against the in-process tile server.
    # Produces bench_out/BENCH_net.json (p50/p99 per concurrency level) and
    # fails if the admission-control storm sheds nothing — the perf record
    # must always demonstrate the 503 path.
    build_preset release build
    echo "==> [perf] net_load --quick"
    build/bench/net_load --quick --out-dir bench_out
    echo "==> [perf] wrote bench_out/BENCH_net.json"
    # Engine roofline sweep; --assert-speedup fails the stage unless the
    # separable fast path holds its >= 2x-over-dense-FFT claim on the
    # default Gaussian scene (DESIGN.md §15).
    echo "==> [perf] kernel_roofline --assert-speedup"
    build/bench/kernel_roofline --assert-speedup --out-dir bench_out
    echo "==> [perf] wrote bench_out/BENCH_kernel_roofline.json"
}

run_store() {
    # Persistent L2 tile store, end to end: boot rrsd with --store, pull a
    # few tiles (base zoom and zoom 1), restart the daemon on the SAME
    # store directory, pull the same tiles again, and require (a) every
    # body byte-identical across the restart and (b) store.l2.hits > 0 in
    # the restarted daemon's /metrics — i.e. the warm tiles really came
    # from the segment file, not from regeneration.  Then the store bench,
    # which exits non-zero unless every tile of a warm restart promotes.
    build_preset release build
    echo "==> [store] warm-restart smoke"
    local scene store_dir fetch_dir
    scene=$(mktemp)
    store_dir=$(mktemp -d)
    fetch_dir=$(mktemp -d)
    build/tools/rrstile --example > "$scene"

    local -a tiles=('tx=0&ty=0' 'tx=1&ty=0' 'tx=0&ty=0&z=1')
    store_boot_and_fetch "$scene" "$store_dir" "$fetch_dir/cold" cold tiles
    store_boot_and_fetch "$scene" "$store_dir" "$fetch_dir/warm" warm tiles

    local i
    for i in "${!tiles[@]}"; do
        if ! cmp -s "$fetch_dir/cold.$i" "$fetch_dir/warm.$i"; then
            echo "==> store smoke: tile '${tiles[$i]}' changed across restart" >&2
            return 1
        fi
    done
    echo "    store ok: ${#tiles[@]} tiles byte-identical across restart"
    rm -rf "$scene" "$fetch_dir" "$store_dir"

    echo "==> [store] bench store"
    build/bench/store > /dev/null ||
        { echo "==> store bench failed" >&2; return 1; }
    echo "==> [store] wrote bench_out/BENCH_store.json"
}

# Boot rrsd on an ephemeral port with a persistent store, fetch each tile
# query in the named array to "<prefix>.<index>", then drain the daemon.
# Phase "warm" additionally asserts the /metrics counter store.l2.hits > 0.
store_boot_and_fetch() {
    local scene=$1 store_dir=$2 prefix=$3 phase=$4
    local -n queries=$5
    local port_file pid port
    port_file=$(mktemp -u)
    build/tools/rrsd "$scene" --port 0 --port-file "$port_file" \
        --tile-size 64 --cache-mb 16 --store "$store_dir" --quiet \
        > /dev/null &
    pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port_file" ]] && break
        sleep 0.1
    done
    if [[ ! -s "$port_file" ]]; then
        echo "==> store smoke ($phase): daemon never published its port" >&2
        kill -9 "$pid" 2>/dev/null || true
        return 1
    fi
    port=$(cat "$port_file")
    local i
    for i in "${!queries[@]}"; do
        build/tools/rrsquery "127.0.0.1:$port" "/v1/tile?${queries[$i]}" \
            --out "$prefix.$i" > /dev/null
    done
    if [[ $phase == warm ]]; then
        build/tools/rrsquery "127.0.0.1:$port" /metrics > "$prefix.metrics"
        python3 - "$prefix.metrics" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
hits = c.get("store.l2.hits", 0)
assert hits > 0, f"store.l2.hits == {hits} after warm restart"
print(f"    warm restart ok: store.l2.hits == {hits}")
EOF
    fi
    kill -TERM "$pid"
    local rc=0
    wait "$pid" || rc=$?
    rm -f "$port_file"
    if [[ $rc -ne 0 ]]; then
        echo "==> store smoke ($phase): daemon exited $rc after SIGTERM" >&2
        return 1
    fi
}

run_cluster() {
    # Cluster tier (DESIGN.md §17): a 3-shard rrsd fleet behind an
    # `rrsd --cluster` routing proxy, exercised end to end:
    #   * a stitched /v1/window through the proxy is byte-identical to the
    #     same window rendered by one shard directly, and to
    #     `rrsquery --cluster`'s in-process routing;
    #   * /v1/tile traffic really spreads: >= 2 shards show forwarded
    #     requests in the proxy's /metrics;
    #   * z = 1 tiles (f32, i16) and a z = 1 pyramid, derived at the proxy,
    #     are byte-identical to a shard's own answer;
    #   * SIGSTOP of one shard flips the fleet /readyz to 503 (naming the
    #     stalled shard) and `rrsquery --cluster` exits 3 for tiles it
    #     owns while other shards keep serving; SIGCONT heals both;
    #   * `rrsquery --cluster` over a fleet with no reachable node exits 3;
    #   * a reshard: a cold shard peer-fills two scenes from the previous
    #     owner, byte-identically (cluster_reshard_smoke);
    #   * the capacity bench: 3 shards must clear 2.5x one shard on a
    #     cold owner-balanced sweep -> bench_out/BENCH_cluster.json.
    build_preset release build
    echo "==> [cluster] 3-shard fleet smoke"
    local scene work topo
    scene=$(mktemp)
    work=$(mktemp -d)
    topo="$work/fleet.topo"
    build/tools/rrstile --example > "$scene"

    local -a pids=() ports=()
    local i
    for i in 1 2 3; do
        build/tools/rrsd "$scene" --port 0 --port-file "$work/port.$i" \
            --tile-size 64 --cache-mb 16 --quiet > /dev/null &
        pids+=($!)
    done
    for i in 1 2 3; do
        if ! wait_for_port_file "$work/port.$i"; then
            echo "==> cluster smoke: shard n$i never published its port" >&2
            return 1
        fi
        ports+=("$(cat "$work/port.$i")")
    done
    {
        echo "epoch = 1"
        for i in 0 1 2; do
            echo "node n$((i + 1)) 127.0.0.1:${ports[$i]} weight=1"
        done
    } > "$topo"

    local proxy_pid proxy
    build/tools/rrsd --cluster "$topo" --cluster-timeout-ms 2000 \
        --port 0 --port-file "$work/port.proxy" --quiet > /dev/null &
    proxy_pid=$!
    if ! wait_for_port_file "$work/port.proxy"; then
        echo "==> cluster smoke: proxy never published its port" >&2
        return 1
    fi
    proxy=$(cat "$work/port.proxy")

    # Stitched window: proxy == direct shard == rrsquery --cluster.  Any
    # single shard can render the whole window itself (it owns the full
    # generator), which is exactly what makes the comparison meaningful.
    local win='/v1/window?x0=-48&y0=-48&nx=96&ny=96'
    build/tools/rrsquery "127.0.0.1:$proxy" "$win" --out "$work/w.proxy" > /dev/null
    build/tools/rrsquery "127.0.0.1:${ports[0]}" "$win" --out "$work/w.direct" > /dev/null
    build/tools/rrsquery --cluster "$topo" "$win" --out "$work/w.fleet" > /dev/null
    if ! cmp -s "$work/w.proxy" "$work/w.direct"; then
        echo "==> cluster smoke: proxied window differs from single-shard" >&2
        return 1
    fi
    if ! cmp -s "$work/w.fleet" "$work/w.direct"; then
        echo "==> cluster smoke: rrsquery --cluster window differs" >&2
        return 1
    fi
    echo "    window ok: proxy and --cluster byte-identical to a single shard"

    # Tiles through the proxy: byte-identical to a direct render, and the
    # per-node forwarded counters prove >= 2 shards actually served.
    local tx
    for tx in 0 1 2 3 4 5; do
        build/tools/rrsquery "127.0.0.1:$proxy" "/v1/tile?tx=$tx&ty=0" \
            --out "$work/t.proxy.$tx" > /dev/null
        build/tools/rrsquery "127.0.0.1:${ports[1]}" "/v1/tile?tx=$tx&ty=0" \
            --out "$work/t.direct.$tx" > /dev/null
        if ! cmp -s "$work/t.proxy.$tx" "$work/t.direct.$tx"; then
            echo "==> cluster smoke: tile tx=$tx differs via proxy" >&2
            return 1
        fi
    done
    # Zoom levels are derived at the proxy from owner-fetched base tiles:
    # a z = 1 tile (f32 and i16) and a z = 1 pyramid must still be the
    # bytes a shard serves itself.
    local zt
    for zt in '/v1/tile?tx=0&ty=-1&z=1&q=f32' '/v1/tile?tx=-1&ty=0&z=1&q=i16' \
              '/v1/pyramid?tx=0&ty=0&z=1'; do
        build/tools/rrsquery "127.0.0.1:$proxy" "$zt" --out "$work/z.proxy" > /dev/null
        build/tools/rrsquery "127.0.0.1:${ports[2]}" "$zt" --out "$work/z.direct" > /dev/null
        if ! cmp -s "$work/z.proxy" "$work/z.direct"; then
            echo "==> cluster smoke: $zt differs via proxy" >&2
            return 1
        fi
    done
    echo "    zoom ok: z = 1 tiles (f32, i16) and pyramid byte-identical via the proxy"
    build/tools/rrsquery "127.0.0.1:$proxy" /metrics > "$work/metrics.json"
    python3 - "$work/metrics.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
spread = {n: c.get(f"cluster.node.{n}.requests", 0) for n in ("n1", "n2", "n3")}
served = [n for n, v in spread.items() if v > 0]
assert len(served) >= 2, f"traffic did not spread: {spread}"
print(f"    spread ok: forwarded requests {spread}")
EOF

    # SIGSTOP one shard: the fleet readyz flips to 503 and names the
    # stalled shard; its keyspace exits 3 via --cluster while the other
    # shards keep serving; SIGCONT heals.
    if ! build/tools/rrsquery "127.0.0.1:$proxy" /readyz > /dev/null; then
        echo "==> cluster smoke: fleet not ready while healthy" >&2
        return 1
    fi
    kill -STOP "${pids[1]}"
    local rc=0 body
    body=$(build/tools/rrsquery "127.0.0.1:$proxy" /readyz) || rc=$?
    if [[ $rc -ne 1 || "$body" != *'"n2"'* ]]; then
        echo "==> cluster smoke: readyz with a stalled shard: rc=$rc body=$body" >&2
        return 1
    fi
    local dead=0 live=0
    for tx in $(seq 0 11); do
        rc=0
        build/tools/rrsquery --cluster "$topo" "/v1/tile?tx=$tx&ty=1" \
            --timeout-ms 500 --out /dev/null > /dev/null 2>&1 || rc=$?
        case $rc in
            0) live=$((live + 1)) ;;
            3) dead=$((dead + 1)) ;;
            *) echo "==> cluster smoke: tile tx=$tx ty=1 exited $rc" >&2
               return 1 ;;
        esac
    done
    if [[ $dead -eq 0 || $live -eq 0 ]]; then
        echo "==> cluster smoke: degradation not shard-local ($dead dead, $live live)" >&2
        return 1
    fi
    echo "    degradation ok: $dead keys exit 3, $live keys still served"
    kill -CONT "${pids[1]}"
    local healed=""
    for _ in $(seq 1 40); do
        if build/tools/rrsquery "127.0.0.1:$proxy" /readyz > /dev/null 2>&1; then
            healed=1
            break
        fi
        sleep 0.5
    done
    if [[ -z $healed ]]; then
        echo "==> cluster smoke: fleet never recovered after SIGCONT" >&2
        return 1
    fi
    echo "    readyz ok: 503 while stalled, recovered after SIGCONT"

    # A fleet where no node answers discovery is unavailable (exit 3),
    # like a refused connect — not a generic error.
    printf 'epoch = 1\nnode gone 127.0.0.1:1\n' > "$work/gone.topo"
    rc=0
    build/tools/rrsquery --cluster "$work/gone.topo" '/v1/tile?tx=0&ty=0' \
        --timeout-ms 500 > /dev/null 2>&1 || rc=$?
    if [[ $rc -ne 3 ]]; then
        echo "==> cluster smoke: unreachable fleet exited $rc, want 3" >&2
        return 1
    fi
    echo "    discovery ok: a fleet with no reachable node exits 3"

    local pid
    for pid in "$proxy_pid" "${pids[@]}"; do
        kill -TERM "$pid"
    done
    for pid in "$proxy_pid" "${pids[@]}"; do
        rc=0
        wait "$pid" || rc=$?
        if [[ $rc -ne 0 ]]; then
            echo "==> cluster smoke: pid $pid exited $rc after SIGTERM" >&2
            return 1
        fi
    done
    rm -rf "$scene" "$work"
    cluster_reshard_smoke

    echo "==> [cluster] bench cluster --quick"
    build/bench/cluster --quick --out-dir bench_out
    echo "==> [cluster] wrote bench_out/BENCH_cluster.json"
}

# Reshard peer fill, process level (DESIGN.md §17.4): shard A serves two
# scenes and is warmed; shard B starts cold with the same two scenes and
# `--cluster-prev` naming A as the previous epoch's only node, so every key
# is A-owned.  B's bodies must be byte-identical to A's, and B's /metrics
# must show every tile peer-filled, through the one previous-epoch client
# both scenes share (one cluster.prev.node.A.requests counter).
cluster_reshard_smoke() {
    echo "==> [cluster] reshard peer-fill smoke"
    local work a_pid b_pid a_port b_port
    work=$(mktemp -d)
    build/tools/rrstile --example > "$work/one.rrs"
    sed 's/^seed = .*/seed = 8/' "$work/one.rrs" > "$work/two.rrs"
    build/tools/rrsd "one=$work/one.rrs" "two=$work/two.rrs" --port 0 \
        --port-file "$work/port.a" --tile-size 64 --cache-mb 16 --quiet \
        > /dev/null &
    a_pid=$!
    if ! wait_for_port_file "$work/port.a"; then
        echo "==> reshard smoke: shard A never published its port" >&2
        kill -9 "$a_pid" 2>/dev/null || true
        return 1
    fi
    a_port=$(cat "$work/port.a")
    printf 'epoch = 1\nnode A 127.0.0.1:%s\n' "$a_port" > "$work/prev.topo"
    local -a keys=('tx=0&ty=0' 'tx=1&ty=0' 'tx=-1&ty=2' 'tx=3&ty=-2')
    local scene key i=0
    for scene in one two; do
        for key in "${keys[@]}"; do
            build/tools/rrsquery "127.0.0.1:$a_port" \
                "/v1/tile?scene=$scene&$key&q=f64" --out "$work/a.$i" > /dev/null
            i=$((i + 1))
        done
    done
    build/tools/rrsd "one=$work/one.rrs" "two=$work/two.rrs" --port 0 \
        --port-file "$work/port.b" --tile-size 64 --cache-mb 16 --quiet \
        --cluster-prev "$work/prev.topo" --cluster-node B > /dev/null &
    b_pid=$!
    if ! wait_for_port_file "$work/port.b"; then
        echo "==> reshard smoke: shard B never published its port" >&2
        kill -9 "$a_pid" "$b_pid" 2>/dev/null || true
        return 1
    fi
    b_port=$(cat "$work/port.b")
    i=0
    for scene in one two; do
        for key in "${keys[@]}"; do
            build/tools/rrsquery "127.0.0.1:$b_port" \
                "/v1/tile?scene=$scene&$key&q=f64" --out "$work/b.$i" > /dev/null
            if ! cmp -s "$work/a.$i" "$work/b.$i"; then
                echo "==> reshard smoke: scene $scene $key differs on B" >&2
                kill -9 "$a_pid" "$b_pid" 2>/dev/null || true
                return 1
            fi
            i=$((i + 1))
        done
    done
    build/tools/rrsquery "127.0.0.1:$b_port" /metrics > "$work/b.metrics"
    python3 - "$work/b.metrics" "$i" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
want = int(sys.argv[2])
fills = c.get("cluster.peer_fills", 0)
requests = c.get("cluster.prev.node.A.requests", 0)
assert fills == want, f"cluster.peer_fills == {fills}, want {want}"
assert requests == fills, f"cluster.prev.node.A.requests == {requests} != {fills} fills"
gauges = json.load(open(sys.argv[1]))["gauges"]
assert gauges.get("cluster.prev.nodes") == 1, "previous fleet not under cluster.prev."
assert "cluster.nodes" not in gauges, "a shard publishes cluster.nodes"
for k in ("cluster.peer_fill_misses", "cluster.peer_fill_errors"):
    assert c.get(k, 0) == 0, f"{k} == {c[k]}"
print(f"    reshard ok: {fills} tiles of 2 scenes peer-filled from A, "
      f"byte-identical, over one client ({requests} requests to A)")
EOF
    local pid rc
    for pid in "$a_pid" "$b_pid"; do
        kill -TERM "$pid"
    done
    for pid in "$a_pid" "$b_pid"; do
        rc=0
        wait "$pid" || rc=$?
        if [[ $rc -ne 0 ]]; then
            echo "==> reshard smoke: pid $pid exited $rc after SIGTERM" >&2
            return 1
        fi
    done
    rm -rf "$work"
}

# Poll a --port-file path until the daemon publishes its ephemeral port
# (100 x 0.1 s); non-zero when it never appears.
wait_for_port_file() {
    local port_file=$1
    for _ in $(seq 1 100); do
        [[ -s "$port_file" ]] && return 0
        sleep 0.1
    done
    return 1
}

# Serve a few tiles end-to-end through the tile service (coalescing cache,
# batch fan-out, metrics JSON) — run under both presets so the service layer
# gets ASan+UBSan coverage too.
rrstile_smoke() {
    local dir=$1
    echo "==> [$dir] rrstile smoke"
    local scene
    scene=$(mktemp)
    "$dir/tools/rrstile" --example > "$scene"
    # --repeat 2: the second round must be all cache hits (hit_rate 0.5).
    local metrics
    metrics=$("$dir/tools/rrstile" "$scene" --tile-size 64 --cache-mb 16 \
        --threads 2 --repeat 2 --quiet 0,0 1,0 0,1)
    rm -f "$scene"
    echo "    $metrics"
    case "$metrics" in
        *'"generation_failures":0'*'"hit_rate":0.5'*) ;;
        *) echo "==> rrstile smoke: unexpected metrics" >&2; return 1 ;;
    esac
}

# Render a tiny scene with tracing on and validate the emitted Chrome
# trace_event JSON: parseable, all complete ('X') events, and at least six
# distinct pipeline span names (the observability contract of DESIGN.md §9).
rrsgen_trace_smoke() {
    local dir=$1
    echo "==> [$dir] rrsgen trace smoke"
    local scene trace
    scene=$(mktemp)
    trace=$(mktemp)
    cat > "$scene" <<'EOF'
seed = 11
kernel_grid = 64 64
region = -32 -32 64 64
tail_eps = 1e-6

[spectrum field]
family = gaussian
h = 1.0
cl = 6

[spectrum pond]
family = exponential
h = 0.3
cl = 6

[map]
type = circle
center = 0 0
radius = 20
transition = 6
inside = pond
outside = field
EOF
    "$dir/tools/rrsgen" "$scene" --trace "$trace" --metrics > /dev/null
    python3 - "$trace" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
names = {e["name"] for e in events}
assert events, "trace has no events"
assert all(e["ph"] == "X" for e in events), "expected only complete events"
assert len(names) >= 6, f"only {len(names)} span names: {sorted(names)}"
# One weight pass and one shared noise field per inhomogeneous tile,
# however many regions the tile touches.
count = lambda n: sum(e["name"] == n for e in events)
tiles = count("inhom.generate")
assert tiles >= 1, "no inhom.generate span"
for n in ("inhom.weights", "noise.fill"):
    assert count(n) == tiles, f"{count(n)} {n} spans for {tiles} inhom.generate"
print(f"    trace ok: {len(events)} spans, {len(names)} distinct names, "
      f"{tiles} tile(s) with one weight pass and one noise fill each")
EOF
    rm -f "$scene" "$trace"
}

# Full server smoke: boot rrsd on an ephemeral port, probe it with
# rrsquery (health, one tile, the metrics document), then SIGTERM and
# assert the graceful-drain exit: code 0 and a final metrics JSON line on
# stdout whose net.requests covers the probes.
rrsd_smoke() {
    local dir=$1
    echo "==> [$dir] rrsd smoke"
    local scene port_file out pid port
    scene=$(mktemp)
    port_file=$(mktemp -u)
    out=$(mktemp)
    "$dir/tools/rrstile" --example > "$scene"
    # Numeric flags are strict: an out-of-range or negative value is a
    # usage error (exit 2), never a silently wrapped or defaulted one.
    local bad rc
    for bad in '--port 70000' '--cache-mb -1'; do
        rc=0
        # shellcheck disable=SC2086  # split "--flag value" on purpose
        "$dir/tools/rrsd" "$scene" $bad --quiet > /dev/null 2>&1 || rc=$?
        if [[ $rc -ne 2 ]]; then
            echo "==> rrsd smoke: 'rrsd $bad' exited $rc, want 2" >&2
            return 1
        fi
    done
    echo "    flags ok: --port 70000 and --cache-mb -1 are usage errors"
    "$dir/tools/rrsd" "$scene" --port 0 --port-file "$port_file" \
        --tile-size 64 --cache-mb 16 --quiet > "$out" &
    pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port_file" ]] && break
        sleep 0.1
    done
    if [[ ! -s "$port_file" ]]; then
        echo "==> rrsd smoke: daemon never published its port" >&2
        kill -9 "$pid" 2>/dev/null || true
        return 1
    fi
    port=$(cat "$port_file")
    "$dir/tools/rrsquery" "127.0.0.1:$port" /healthz > /dev/null
    "$dir/tools/rrsquery" "127.0.0.1:$port" '/v1/tile?tx=0&ty=0' --stats
    # Stored bytes (DESIGN.md §8, §12): the first request of an encoding
    # encodes it, the second is served from the tile's cache entry; both
    # must carry the same body, ETag and i16 scale/offset.
    local q rep
    for q in f32 i16 f64; do
        for rep in 1 2; do
            "$dir/tools/rrsquery" "127.0.0.1:$port" "/v1/tile?tx=1&ty=-1&q=$q" \
                --headers --out "$out.$q.$rep.body" 2> "$out.$q.$rep.hdr" > /dev/null
            grep -i -E '^(etag|x-rrs-scale|x-rrs-offset):' "$out.$q.$rep.hdr" |
                tr -d '\r' > "$out.$q.$rep.ids"
        done
        if ! cmp -s "$out.$q.1.body" "$out.$q.2.body" ||
            ! cmp -s "$out.$q.1.ids" "$out.$q.2.ids" ||
            ! grep -q -i '^etag:' "$out.$q.1.ids"; then
            echo "==> rrsd smoke: q=$q differs between its encoded and stored answer" >&2
            kill -9 "$pid" 2>/dev/null || true
            return 1
        fi
    done
    echo "    stored bodies ok: f32, i16 and f64 answers repeat byte for byte"
    "$dir/tools/rrsquery" "127.0.0.1:$port" /metrics > /dev/null
    kill -TERM "$pid"
    rc=0
    wait "$pid" || rc=$?
    if [[ $rc -ne 0 ]]; then
        echo "==> rrsd smoke: daemon exited $rc after SIGTERM" >&2
        return 1
    fi
    # The drain prints one final metrics line; the nine requests must be in it.
    python3 - "$out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
c = doc["counters"]
requests = c["net.requests"]
assert requests >= 9, f"net.requests == {requests}, expected >= 9"
identity = c["net.status_2xx"] + c["net.status_4xx"] + c["net.status_5xx"] + c["net.shed"]
assert requests == identity, f"{requests} != 2xx+4xx+5xx+shed == {identity}"
assert doc["gauges"]["net.active"] == 0, "connections survived the drain"
print(f"    rrsd ok: {requests} requests, accounting identity holds")
EOF
    rm -f "$scene" "$port_file" "$out" "$out".*
}

want=${1:-all}
case "$want" in
    lint)     run_lint ;;
    release)  run_release ;;
    numeric)  run_numeric ;;
    sanitize) run_sanitize ;;
    fuzz)     run_fuzz ;;
    tsan)     run_tsan ;;
    chaos)    run_chaos ;;
    tidy)     run_tidy ;;
    perf)     run_perf ;;
    store)    run_store ;;
    cluster)  run_cluster ;;
    coverage) run_coverage ;;
    all)      run_lint; run_release; run_numeric; run_sanitize; run_fuzz; run_tsan
              run_chaos; run_tidy; run_perf; run_store; run_cluster
              run_coverage ;;
    *)  echo "usage: tools/ci.sh [lint|release|numeric|sanitize|fuzz|tsan|chaos|tidy|perf|store|cluster|coverage|all]" >&2
        exit 2 ;;
esac
echo "==> ci: all requested stages passed"
