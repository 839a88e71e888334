#!/usr/bin/env bash
# Non-test Rust lines per workspace crate, as a markdown table.
#
# Counts every `.rs` file under TREE/crates/<crate>, skipping files under
# `tests/` and `benches/` directories and cutting each file at its first
# `#[cfg(test)]` line. "code" additionally drops blank and `//`-only lines
# (doc comments included). Files under `crates/dca/src/reference` (the
# test oracle) get a row of their own and are not counted in `dca`.
#
# Usage: scripts/loc.sh [TREE]    (TREE defaults to this checkout)
set -euo pipefail

tree="${1:-$(dirname "$0")/..}"
cd "$tree"

# Prints "lines code" for the files given as arguments.
count() {
    if [ "$#" -eq 0 ]; then
        echo "0 0"
        return
    fi
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { nextfile }
        { lines++ }
        !/^[[:space:]]*(\/\/.*)?$/ { code++ }
        END { printf "%d %d\n", lines, code }
    ' "$@"
}

# Prints one table row for the files given after the row name and adds
# them to the totals.
total_lines=0
total_code=0
row() {
    local name="$1"
    shift
    local lines code
    read -r lines code < <(count "$@")
    echo "| $name | $lines | $code |"
    total_lines=$((total_lines + lines))
    total_code=$((total_code + code))
}

echo "| crate | lines | code |"
echo "|---|---|---|"
for dir in crates/*/; do
    dir="${dir%/}"
    crate="$(basename "$dir")"
    mapfile -t files < <(
        find "$dir" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
            -not -path 'crates/dca/src/reference*' | sort
    )
    row "$crate" "${files[@]}"
    if [ "$crate" = dca ]; then
        mapfile -t files < <(find crates/dca/src -path 'crates/dca/src/reference*' -name '*.rs' | sort)
        row "dca/reference" "${files[@]}"
    fi
done
echo "| total | $total_lines | $total_code |"
