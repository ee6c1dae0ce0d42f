#!/usr/bin/env bash
# Offline CI gate for the WYTIWYG reproduction (documented as tier-1 in
# ROADMAP.md). Everything must work with no network and no external
# crates; --offline makes any accidental registry dependency a hard error.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> bench targets compile"
cargo bench -p wyt-bench --offline --no-run

echo "==> observability report smoke test (incl. degradation schema)"
WYT_OBS=json cargo run --release --offline -q -p wyt-bench --bin report -- --check >/dev/null

echo "==> fault-injection smoke gate (pinned WYT_FAULT seed)"
WYT_FAULT=0xc0ffee cargo test -q --offline --test fault fault_smoke

echo "==> self-healing smoke gate (withheld input heals in <=2 rounds, no demotions)"
cargo test -q --offline --test healing heals_untraced_branch_with_incremental_relift

echo "==> artifact-store smoke gate (cold -> warm batch, byte-identical images)"
STORE_TMP="$(mktemp -d)"
trap 'rm -rf "$STORE_TMP"' EXIT
WYT_STORE="$STORE_TMP/store" cargo run --release --offline -q -p wyt-bench --bin wyt-batch -- \
    --smoke cold --out "$STORE_TMP/cold"
WYT_STORE="$STORE_TMP/store" cargo run --release --offline -q -p wyt-bench --bin wyt-batch -- \
    --smoke warm --out "$STORE_TMP/warm"
cmp "$STORE_TMP/cold/images.sha" "$STORE_TMP/warm/images.sha"

echo "==> chaos smoke gate (seeded I/O faults absorbed, kill-point fsck recovery)"
cargo run --release --offline -q -p wyt-bench --bin wyt-batch -- \
    --chaos 0xc4a05 --out "$STORE_TMP/chaos"
cmp "$STORE_TMP/chaos/images.sha" "$STORE_TMP/chaos/images_chaos.sha"

echo "==> supervision smoke gate (crashing jobs are isolated, the pool survives)"
cargo test -q --offline --test supervise pool_survives_crashed_jobs

echo "==> trace-export smoke gate (WYT_OBS_TRACE -> well-formed Chrome trace)"
WYT_OBS_TRACE="$STORE_TMP/trace.json" WYT_OBS=json WYT_PAR=4 \
    cargo run --release --offline -q -p wyt-bench --bin report >/dev/null
cargo run --release --offline -q -p wyt-bench --bin report -- --check-trace "$STORE_TMP/trace.json"
# The batch path too: job-phase spans on worker tracks must nest.
WYT_OBS_TRACE="$STORE_TMP/batch-trace.json" WYT_PAR=4 WYT_STORE="$STORE_TMP/trace-store" \
    cargo run --release --offline -q -p wyt-bench --bin wyt-batch -- \
    --smoke cold --out "$STORE_TMP/trace-cold" >/dev/null
cargo run --release --offline -q -p wyt-bench --bin report -- \
    --check-trace "$STORE_TMP/batch-trace.json"

echo "==> bench diff self-gate (fresh paper figure7 vs committed: counter drift fails)"
WYT_BENCH_OUT="$STORE_TMP/fresh" cargo run --release --offline -q -p wyt-bench --bin paper -- \
    figure7 >/dev/null
cmp "$STORE_TMP/fresh/figure7.txt" results/figure7.txt
cargo run --release --offline -q -p wyt-bench --bin report -- \
    --diff results/BENCH_figure7.json "$STORE_TMP/fresh/BENCH_figure7.json"
sed 's/"degradations": 0/"degradations": 1/' "$STORE_TMP/fresh/BENCH_figure7.json" \
    > "$STORE_TMP/fresh/mutated.json"
if cargo run --release --offline -q -p wyt-bench --bin report -- \
    --diff results/BENCH_figure7.json "$STORE_TMP/fresh/mutated.json" 2>/dev/null; then
    echo "FAIL: diff gate did not detect an injected counter regression" >&2
    exit 1
fi

echo "==> parallel determinism gate (WYT_PAR=4)"
WYT_PAR=4 cargo test -q --offline --workspace
WYT_PAR=4 WYT_OBS=json cargo run --release --offline -q -p wyt-bench --bin report -- --check >/dev/null

echo "==> benchmark self-test (wyt-benchmark, its own Cargo package)"
cargo test -q --offline --manifest-path wyt-benchmark/Cargo.toml

echo "==> ingestion fuzz gate (pinned seed, every surface, crash-corpus replay)"
WYT_FUZZ=0xf0cc5eed00000001 cargo run --release --offline -q -p wyt-testkit --bin wyt-fuzz -- \
    --surface all --iters 500
cargo run --release --offline -q -p wyt-testkit --bin wyt-fuzz -- --replay tests/crashes
WYT_PAR=4 cargo test -q --offline --test fuzz

echo "==> panic-site budget (isa/emu/lifter non-test code; each allowed site"
echo "    carries an INVARIANT comment — see DESIGN.md §15)"
PANIC_BUDGET=7
PANICS=$(for f in crates/isa/src/*.rs crates/emu/src/*.rs crates/lifter/src/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//{print}' "$f"
done | grep -cE '\.unwrap\(|\.expect\(|panic!\(|unreachable!\(')
if [ "$PANICS" -ne "$PANIC_BUDGET" ]; then
    echo "FAIL: $PANICS panic sites in isa/emu/lifter non-test code (budget: $PANIC_BUDGET)." >&2
    echo "New input-reachable sites must become typed errors; true invariants need an" >&2
    echo "INVARIANT comment and a budget bump reviewed in DESIGN.md §15." >&2
    exit 1
fi

echo "==> entry-point budget (public recompile* functions in wyt-core non-test code:"
echo "    recompile, recompile_from_lifted, recompile_stored, recompile_secondwrite)"
ENTRY_BUDGET=4
ENTRIES=$(for f in crates/core/src/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//{print}' "$f"
done | grep -c 'pub fn recompile')
if [ "$ENTRIES" -ne "$ENTRY_BUDGET" ]; then
    echo "FAIL: $ENTRIES public recompile* functions in wyt-core (budget: $ENTRY_BUDGET)." >&2
    echo "A new way to recompile is a new Request field, not another wrapper." >&2
    exit 1
fi

echo "==> interpreter-replay budget (Interp::new sites in wyt-core non-test code:"
echo "    flat::replay, the one driver of the regsave and bounds replays)"
REPLAY_BUDGET=1
REPLAYS=$(for f in crates/core/src/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//{print}' "$f"
done | grep -c 'Interp::new')
if [ "$REPLAYS" -ne "$REPLAY_BUDGET" ]; then
    echo "FAIL: $REPLAYS Interp::new sites in wyt-core (budget: $REPLAY_BUDGET)." >&2
    echo "A fact the tracer can record belongs in the trace, not in another replay." >&2
    exit 1
fi

echo "==> fan-out budget (wyt_par::par_* call sites in the non-test code of crates/*/src"
echo "    outside wyt-par: the per-input refinement replays (flat::replay), the batch"
echo "    jobs, the bench grid, the property harness and the fuzz campaign)"
FANOUT_BUDGET=5
FANOUTS=$(for f in $(find crates/*/src -name '*.rs' | sort); do
    case "$f" in crates/par/*) continue ;; esac
    awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//{print}' "$f"
done | grep -c 'wyt_par::par_' || true)
if [ "$FANOUTS" -ne "$FANOUT_BUDGET" ]; then
    echo "FAIL: $FANOUTS wyt_par::par_* call sites outside wyt-par (budget: $FANOUT_BUDGET)." >&2
    echo "A new fan-out needs a lone-job measurement: time one cold job at 1 and 2 threads" >&2
    echo "and record both wall times (DESIGN.md §9). par_indexed already runs inline at one" >&2
    echo "thread and when nested, so callers never choose between serial and parallel." >&2
    exit 1
fi

echo "==> clock-read budget (mono_ns / Instant::now / SystemTime in the non-test code of"
echo "    crates/*/src outside wyt-obs and wyt-bench: batch.rs's import and job wall pair,"
echo "    pipeline.rs's import and three stage-row pairs)"
CLOCK_BUDGET=10
CLOCKS=$(for f in crates/*/src/*.rs; do
    case "$f" in crates/obs/* | crates/bench/*) continue ;; esac
    awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//{print}' "$f"
done | grep -cE 'mono_ns|Instant::now|SystemTime' || true)
if [ "$CLOCKS" -ne "$CLOCK_BUDGET" ]; then
    echo "FAIL: $CLOCKS clock reads outside wyt-obs and wyt-bench (budget: $CLOCK_BUDGET)." >&2
    echo "Spans are the one timing record: time it with a \`Span\`, and read durations and" >&2
    echo "quantiles from Snapshot::span_stats." >&2
    exit 1
fi

echo "==> CFG-rebuild budget (build_cfg / recover_functions in wyt-core non-test code:"
echo "    none; wyt-core reaches the lifter only through lift_image* / lift_from_trace)"
CFG_BUDGET=0
CFGS=$(for f in crates/core/src/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//{print}' "$f"
done | grep -cE 'build_cfg|recover_functions' || true)
if [ "$CFGS" -ne "$CFG_BUDGET" ]; then
    echo "FAIL: $CFGS CFG or function-map rebuilds in wyt-core (budget: $CFG_BUDGET)." >&2
    echo "Every fact comes from one lift of the merged trace; do not rebuild an old one." >&2
    exit 1
fi

echo "==> hot-path map budget (HashMap<u32 / BTreeSet<u32> in the non-test code of"
echo "    wyt-emu's Memory, the IR interpreter and the regsave and bounds hooks — see DESIGN.md §3)"
MAP_BUDGET=0
MAPS=$(for f in crates/emu/src/memory.rs crates/ir/src/interp.rs crates/core/src/runtime.rs \
    crates/core/src/regsave.rs; do
    awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//{print}' "$f"
done | grep -cE 'HashMap<u32|BTreeSet<u32>' || true)
if [ "$MAPS" -ne "$MAP_BUDGET" ]; then
    echo "FAIL: $MAPS address- or serial-keyed maps on the replay hot path (budget: $MAP_BUDGET)." >&2
    echo "Guest addresses go through the paged Memory/ShadowMem; frame serials index a Vec." >&2
    exit 1
fi

echo "==> substitution budget (replace_all_uses / format!( in the non-test code of"
echo "    wyt-opt and wyt-ir's module.rs: none — see DESIGN.md §3)"
SUBST_BUDGET=0
RESCANS=$(for f in crates/opt/src/*.rs crates/ir/src/module.rs; do
    awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//{print}' "$f"
done | grep -cE 'replace_all_uses|format!\(' || true)
if [ "$RESCANS" -ne "$SUBST_BUDGET" ]; then
    echo "FAIL: $RESCANS whole-function rescans or format! calls in the optimizer (budget: $SUBST_BUDGET)." >&2
    echo "Replace values through wyt_ir::Subst: resolve operands as the sweep visits them and" >&2
    echo "rewrite the function once at its end; compare values by their Ord, not their text." >&2
    exit 1
fi

echo "==> evaluation-validator budget (validate( in the non-test code of crates/bench/src:"
echo "    none; every pipeline's gate validates its image before returning it)"
VALIDATE_BUDGET=0
VALIDATES=$(for f in crates/bench/src/*.rs crates/bench/src/bin/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//{print}' "$f"
done | grep -c 'validate(' || true)
if [ "$VALIDATES" -ne "$VALIDATE_BUDGET" ]; then
    echo "FAIL: $VALIDATES validate( calls in crates/bench/src (budget: $VALIDATE_BUDGET)." >&2
    echo "The pipeline's gate already validated the image on every traced input; read its" >&2
    echo "cycles from Recompiled.replay_cycles instead of running the image again." >&2
    exit 1
fi

echo "==> bench-bin budget (crates/bench/src/bin: paper, report, wyt-batch)"
BIN_BUDGET=3
BINS=$(ls crates/bench/src/bin | grep -cE '^(paper|report|wyt-batch)\.rs$' || true)
if [ "$BINS" -ne "$BIN_BUDGET" ] || [ "$(ls crates/bench/src/bin | wc -l)" -ne "$BIN_BUDGET" ]; then
    echo "FAIL: crates/bench/src/bin holds $(ls crates/bench/src/bin | tr '\n' ' ')" >&2
    echo "(budget: paper, report, wyt-batch). A new table is a grid::Table, not a binary." >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI green."
