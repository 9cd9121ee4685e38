#!/usr/bin/env bash
# Runs the `tsan` and `asan` CI jobs locally: the same steps, the same
# flags, the same suppressions.
#
# Needs the nightly toolchain with its sanitizer runtimes.  std stays
# uninstrumented (no rust-src, so no -Zbuild-std); see
# .github/tsan-suppressions.txt for what that costs under TSan.  Each job
# builds into its own target directory, because sanitizer flags rebuild
# everything; set SANITIZE_TARGET_DIR to move them (default
# target/sanitize).  Doc tests do not build under these flags, hence
# `--lib` and named test targets.
#
# Usage (from anywhere in the checkout):
#   .github/sanitize.sh            # both jobs
#   .github/sanitize.sh tsan       # ThreadSanitizer only
#   .github/sanitize.sh asan       # AddressSanitizer only
set -euo pipefail
cd "$(dirname "$0")/.."

target_root=${SANITIZE_TARGET_DIR:-$PWD/target/sanitize}

step() {
    echo "== $*" >&2
    cargo +nightly test --offline --target x86_64-unknown-linux-gnu "$@"
}

tsan() {
    export RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer"
    export TSAN_OPTIONS="suppressions=$PWD/.github/tsan-suppressions.txt"
    export CARGO_TARGET_DIR="$target_root/tsan"
    step -p absync --lib
    step -p abtree --test slab
    step -p obs --lib
}

asan() {
    export RUSTFLAGS="-Zsanitizer=address -Cunsafe-allow-abi-mismatch=sanitizer"
    export CARGO_TARGET_DIR="$target_root/asan"
    step -p abebr --lib
    step -p abtree --test slab --test smr_backends
    step -p abtree --lib --test concurrent
    step -p crashkv --lib
    step -p baselines --lib
}

case "${1:-all}" in
    tsan) tsan ;;
    asan) asan ;;
    all) (tsan); (asan) ;;
    *)
        echo "usage: $0 [tsan|asan|all]" >&2
        exit 2
        ;;
esac
