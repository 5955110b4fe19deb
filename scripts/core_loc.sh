#!/usr/bin/env bash
# Prints the non-test, non-comment line count of every Rust file under
# crates/core/src, then the total.
#
# A file's counted part is everything above its first `#[cfg(test)]`
# line; within it, blank lines and lines holding only a `//` comment
# (`//`, `///`, `//!`) are skipped. This is the measure simplicity
# changes quote as "core lines".
#
# Usage: scripts/core_loc.sh [source-dir]   (default: crates/core/src,
# relative to the repository root)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
src="${1:-$root/crates/core/src}"

find "$src" -name '*.rs' | LC_ALL=C sort | while read -r file; do
    count=$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$file")
    printf '%6d  %s\n' "$count" "${file#"$src"/}"
done | awk '{ print; total += $1 } END { printf "%6d  total\n", total }'
