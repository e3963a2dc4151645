#!/usr/bin/env bash
# Prints the number of non-test Rust source lines under each PATH (a
# `.rs` file or a directory searched recursively), summed over all of
# them. Files under a `tests/` or `benches/` directory are left out,
# and so is every top-level `#[cfg(test)]` item: the attribute line and
# the item it guards, through the brace that closes it. Blank lines and
# comments count, so two trees compare on the same rule.
#
#   scripts/loc.sh crates/clme-core/src crates/clme-dram/src/timing.rs
set -euo pipefail
if [ "$#" -eq 0 ]; then
    echo "usage: scripts/loc.sh PATH..." >&2
    exit 2
fi
find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -print0 |
    sort -z |
    xargs -0 awk 'FNR==1{s=0} /^#\[cfg\(test\)\]/{s=1;d=0;o=0;next} s{d+=gsub(/{/,"{");d-=gsub(/}/,"}");if(/{/)o=1;if(o&&d<=0)s=0;next} {n++} END{print n+0}' |
    awk '{t += $1} END {print t + 0}'
