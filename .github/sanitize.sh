#!/usr/bin/env bash
# The `tsan` and `asan` CI jobs' one step list: CI runs
# `.github/sanitize.sh tsan` and `.github/sanitize.sh asan`, and a local
# run gets the same steps, flags and suppressions.
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
    step -p abtree --test slab --test slab_huge_pages
    step -p obs --lib
}

asan() {
    export RUSTFLAGS="-Zsanitizer=address -Cunsafe-allow-abi-mismatch=sanitizer"
    export CARGO_TARGET_DIR="$target_root/asan"
    step -p abebr --lib
    step -p abtree --test slab --test slab_huge_pages --test smr_backends
    step -p abtree --lib --test concurrent
    step -p crashkv --lib
    step -p kvserve --lib
    step -p baselines --lib
    step -p pabtree --lib
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
