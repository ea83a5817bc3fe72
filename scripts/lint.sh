#!/usr/bin/env bash
# Workspace lint gate, staged by LINT_PROFILE (default full).
#
# Stage 1 (both profiles): domd-lint, the workspace invariant checker,
# first proves its own rule set against the fixture corpus (--self-check
# fails if any rule stops firing on its violating fixture), then sweeps
# every crate for panics in library code, stray thread spawns,
# nondeterminism sources (wall clocks, OS entropy, default-hasher maps),
# unlogged DurableIndex mutations, and missing/abused lint waivers; any
# unwaived finding exits nonzero. Then clippy across every target with
# warnings promoted to errors, and the workspace unit tests under a
# 2-worker pool. `fast` stops here — the inner-loop check while
# iterating on a change.
#
# Stage 2 (`full`, what CI and pre-send runs use): every integration and
# property suite of every crate in one `cargo test --workspace --test '*'`
# run under a 2-worker pool (integration targets only: Stage 1 already
# ran the lib and bin unit tests), so scheduling-dependent output fails
# the gate; then the end-to-end smokes, which drive release binaries:
# * a tiny-scale run of the gbt bench, whose identity gates prove the
#   branchless kernel bit-identical to the pointer walker before timing;
# * `domd serve` over the line protocol: one request of every type plus
#   one malformed line and one ingest whose date overflows (each refused
#   without killing the session), a clean `quit`, and a second session
#   whose driving process is SIGTERM-killed mid-stream — the server must
#   see EOF, drain, and still exit 0;
# * restart: `kill -9` a durable server right after an ack and require
#   the restarted server to rebuild the acked row from the store alone,
#   plus a `domd migrate-store` run-through.
#
# Run before sending a change; CI treats any output as a failure.
set -euo pipefail
cd "$(dirname "$0")/.."

LINT_PROFILE="${LINT_PROFILE:-full}"   # fast | full
case "$LINT_PROFILE" in
  fast|full) ;;
  *) echo "lint.sh: LINT_PROFILE must be 'fast' or 'full', got '$LINT_PROFILE'" >&2; exit 2 ;;
esac

# Stage 1 — both profiles: the analyzer proves its rules against the
# fixture corpus, sweeps the workspace (any unwaived finding exits
# nonzero before clippy runs), then clippy and the unit suites.
cargo run --release -q -p domd-analyzer --bin domd-lint -- --self-check
cargo run --release -q -p domd-analyzer --bin domd-lint -- --format human

cargo clippy --workspace --all-targets -- -D warnings

DOMD_THREADS=2 cargo test -q --workspace --lib --bins

if [ "$LINT_PROFILE" = "fast" ]; then
  echo "lint gate (fast profile): OK — LINT_PROFILE=full adds the integration, chaos, and smoke stages"
  exit 0
fi

# Stage 2 — full profile only: every integration suite of every crate in
# one run under a 2-worker pool, so any scheduling-dependent output fails
# the gate. This covers the parallel-equivalence, cache-invalidation,
# delta-maintenance, flat-kernel, durability, crash-recovery, serving and
# kill–restart chaos suites, the v1→v2 migration suite, and the property
# suites (`prop_*`, `heap_size`, the analyzer's `workspace_clean`).
DOMD_THREADS=2 cargo test -q --workspace --test '*'

# Flat-forest kernel smoke: a tiny-scale run of the gbt bench (its
# built-in identity gates assert before any timing).
cargo build --release -q -p domd-bench --bin bench_gbt
target/release/bench_gbt --scales 1 --runs 1 --trees 16 --depth 4 \
  --rows 256 --train-rows 512 --out /dev/null >/dev/null
echo "gbt kernel gate: OK"

cargo build --release -q --bin domd
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "$SERVE_DIR"' EXIT
target/release/domd generate --out-dir "$SERVE_DIR" --avails 6 --rccs 200 --seed 7 >/dev/null
target/release/domd train --data-dir "$SERVE_DIR" --out "$SERVE_DIR/model.domd" \
  --grid-step 50 >/dev/null 2>&1
cat > "$SERVE_DIR/script.txt" <<'EOF'
status t=55 status=active
predict avail=1 t=40
alert t=80 k=3 min=0
ingest avail=1 type=NW swlin=123-45-678 created=4/1/2015 settled=5/1/2015 amount=1200
not-a-command
ingest avail=1 type=NW swlin=123-45-678 created=1/1/7000000 settled=5/1/2015 amount=1200
status t=60 status=settled
quit
EOF
SERVE_OUT="$(target/release/domd serve --data-dir "$SERVE_DIR" \
  --model "$SERVE_DIR/model.domd" --script "$SERVE_DIR/script.txt" 2>/dev/null)"
for op in status predict alert ingest; do
  echo "$SERVE_OUT" | grep -q "op=$op" || {
    echo "serve smoke: missing ok response for op=$op" >&2; exit 1; }
done
echo "$SERVE_OUT" | grep -q 'err seq=4' || {
  echo "serve smoke: malformed line was not refused" >&2; exit 1; }
# A created year whose day count overflows is refused on its own line
# (never stored as a wrapped date), and the session goes on.
echo "$SERVE_OUT" | grep -q 'err seq=5 .*invalid calendar date' || {
  echo "serve smoke: overflowing ingest date was not refused" >&2; exit 1; }
echo "$SERVE_OUT" | grep -q 'ok seq=6 .*op=status' || {
  echo "serve smoke: session did not go on after the refused ingest" >&2; exit 1; }
# Killed-driver shutdown: SIGTERM the writer mid-session; the server must
# treat the closed pipe as EOF, drain, and exit 0.
SERVE_FIFO="$SERVE_DIR/in.fifo"
mkfifo "$SERVE_FIFO"
( printf 'predict avail=1 t=40\n'; exec sleep 30 ) > "$SERVE_FIFO" &
WRITER_PID=$!
target/release/domd serve --data-dir "$SERVE_DIR" --model "$SERVE_DIR/model.domd" \
  < "$SERVE_FIFO" > "$SERVE_DIR/signal.out" 2>/dev/null &
SERVE_PID=$!
sleep 1
kill -TERM "$WRITER_PID" 2>/dev/null || true
if ! wait "$SERVE_PID"; then
  echo "serve smoke: server did not exit cleanly after its driver was killed" >&2
  exit 1
fi
grep -q 'op=predict' "$SERVE_DIR/signal.out" || {
  echo "serve smoke: no response before driver kill" >&2; exit 1; }
echo "serve smoke: OK"

# Restart smoke: an acked ingest survives kill -9 and a restarted server
# rebuilds it from the store alone (the chaos and migration suites ran in
# Stage 2).
STORE_DIR="$SERVE_DIR/store"
RESTART_FIFO="$SERVE_DIR/restart.fifo"
mkfifo "$RESTART_FIFO"
( printf 'ingest avail=1 type=NW swlin=123-45-679 created=4/1/2015 settled=5/1/2015 amount=900\n'
  exec sleep 30 ) > "$RESTART_FIFO" &
RESTART_WRITER_PID=$!
target/release/domd serve --data-dir "$SERVE_DIR" --model "$SERVE_DIR/model.domd" \
  --store "$STORE_DIR" < "$RESTART_FIFO" \
  > "$SERVE_DIR/restart.out" 2> "$SERVE_DIR/restart.err" &
RESTART_SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q 'op=ingest' "$SERVE_DIR/restart.out" 2>/dev/null && break
  sleep 0.2
done
grep -q 'op=ingest' "$SERVE_DIR/restart.out" || {
  echo "restart gate: durable ingest was never acked" >&2
  cat "$SERVE_DIR/restart.err" >&2; exit 1; }
# The kill: no clean shutdown, no final sync — the ack alone must hold.
kill -KILL "$RESTART_SERVE_PID" 2>/dev/null || true
wait "$RESTART_SERVE_PID" 2>/dev/null || true
kill -TERM "$RESTART_WRITER_PID" 2>/dev/null || true
wait "$RESTART_WRITER_PID" 2>/dev/null || true
BASE_ROWS="$(sed -n 's/.*extracts (\([0-9][0-9]*\) row(s) at epoch 0.*/\1/p' \
  "$SERVE_DIR/restart.err")"
[ -n "$BASE_ROWS" ] || {
  echo "restart gate: could not read the initialized row count" >&2
  cat "$SERVE_DIR/restart.err" >&2; exit 1; }
printf 'quit\n' | target/release/domd serve --data-dir "$SERVE_DIR" \
  --model "$SERVE_DIR/model.domd" --store "$STORE_DIR" \
  > /dev/null 2> "$SERVE_DIR/restart2.err"
grep -q "rebuilt $((BASE_ROWS + 1)) row(s) from the store" "$SERVE_DIR/restart2.err" || {
  echo "restart gate: acked row lost after kill -9 (expected $((BASE_ROWS + 1)) rows)" >&2
  cat "$SERVE_DIR/restart2.err" >&2; exit 1; }
# Migration run-through: idempotent on an already-v2 store, and the
# recover report must show the versioned record counts.
target/release/domd migrate-store --store "$STORE_DIR" --data-dir "$SERVE_DIR" \
  > "$SERVE_DIR/migrate.out"
grep -q 'compacted into' "$SERVE_DIR/migrate.out" || {
  echo "restart gate: migrate-store did not checkpoint" >&2
  cat "$SERVE_DIR/migrate.out" >&2; exit 1; }
target/release/domd recover --store "$STORE_DIR" | grep -q 'record versions: checkpoint v2' || {
  echo "restart gate: recover report is missing record versions" >&2; exit 1; }
echo "restart gate: OK"
