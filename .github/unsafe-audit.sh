#!/usr/bin/env bash
# The unsafe audit over crates/ and shims/.
#
# Prints how many lines mention `unsafe` and how many carry a `SAFETY`
# comment, then lists every unsafe block, `unsafe fn` or `unsafe impl` with
# no `SAFETY` comment (or `# Safety` doc heading) on its own line or in the
# three lines above it.  Fails if that list is longer than the count checked
# in at .github/unsafe-baseline.txt, so the list can only shrink: justify or
# delete a site, then lower the baseline.
#
# Usage (from anywhere in the checkout): .github/unsafe-audit.sh
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=$(tr -d '[:space:]' < .github/unsafe-baseline.txt)
mapfile -t files < <(find crates shims -name target -prune -o -name '*.rs' -print | sort)

echo "lines mentioning unsafe: $(cat "${files[@]}" | grep -c 'unsafe')"
echo "lines with a SAFETY comment: $(cat "${files[@]}" | grep -c 'SAFETY')"

unjustified=$(awk '
    FNR == 1 { above1 = above2 = above3 = "" }
    {
        site = $0 !~ /^[[:space:]]*\/\// &&
            $0 ~ /(^|[^A-Za-z0-9_])unsafe[[:space:]]*([{]|fn[[:space:]]+[A-Za-z_]|impl([^A-Za-z0-9_]|$))/
        if (site && (above3 "\n" above2 "\n" above1 "\n" $0) !~ /SAFETY|# Safety/) {
            line = $0
            sub(/^[[:space:]]+/, "", line)
            print FILENAME ":" FNR ": " line
        }
        above3 = above2; above2 = above1; above1 = $0
    }
' "${files[@]}")

count=$(printf '%s' "$unjustified" | grep -c . || true)
echo "unsafe sites without SAFETY in the 3 lines above: $count (baseline $baseline)"
if [ "$count" -gt 0 ]; then
    printf '%s\n' "$unjustified"
fi
if [ "$count" -gt "$baseline" ]; then
    echo "error: $count unjustified unsafe sites, more than the baseline of $baseline" >&2
    exit 1
fi
