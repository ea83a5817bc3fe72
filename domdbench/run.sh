#!/usr/bin/env bash
# Builds the release `domd` binary and the benchmark from the checkout,
# then runs one benchmark invocation:
#   bash domdbench/run.sh --workload read_mix --seed 1 --seconds 15 --trace 0
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "domdbench: no domd workspace at $(pwd)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-target}"
# Both builds share one target directory: the benchmark's own workspace
# would otherwise build into domdbench/target.
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path Cargo.toml --bin domd >&2
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path domdbench/Cargo.toml >&2
exec "$target/release/domdbench" --domd "$target/release/domd" "$@"
