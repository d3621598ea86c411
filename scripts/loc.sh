#!/bin/sh
# Non-test code lines, the count CHANGES.md quotes: per file, the lines
# before the first `#[cfg(test)]`, minus blank lines and `//` comment
# lines (doc comments included). Directories are searched for `*.rs`;
# files named `tests.rs` are skipped.
#
#   scripts/loc.sh crates/haft-passes/src/ilr.rs crates/haft-vm/src
set -eu
[ $# -gt 0 ] || { echo "usage: $0 <file-or-dir>..." >&2; exit 2; }
find "$@" -type f -name '*.rs' ! -name tests.rs | sort | {
    total=0
    while IFS= read -r file; do
        n=$(awk '/#\[cfg\(test\)\]/ { exit }
                 !/^[[:space:]]*(\/\/|$)/ { n++ }
                 END { print n + 0 }' "$file")
        printf '%6d  %s\n' "$n" "$file"
        total=$((total + n))
    done
    printf '%6d  total\n' "$total"
}
