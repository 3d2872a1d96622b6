#!/usr/bin/env bash
# Non-test line counts of the Rust files changed since a revision.
#
# Usage: scripts/nontest_loc.sh <rev>
#
# For every `.rs` file that differs between <rev> and the worktree
# (untracked new files included), prints the number of lines above the
# file's first `#[cfg(test)]` line — the whole file if it has none — at
# <rev> and in the worktree, the difference, and the totals. A file
# absent on one side counts 0 there.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
rev=$1
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "$0: unknown revision '$rev'" >&2
    exit 2
}

# Lines above the first `#[cfg(test)]` on stdin. Reads to the end
# rather than exiting at the marker: an early exit closes the pipe on a
# still-writing `git show`, and with `pipefail` its SIGPIPE aborts the
# script.
nontest() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }'
}

total_before=0
total_after=0
printf '%8s %8s %8s  %s\n' before after delta file
while IFS= read -r file; do
    before=0
    after=0
    if git cat-file -e "$rev:$file" 2>/dev/null; then
        before=$(git show "$rev:$file" | nontest)
    fi
    if [ -f "$file" ]; then
        after=$(nontest <"$file")
    fi
    printf '%8d %8d %+8d  %s\n' "$before" "$after" $((after - before)) "$file"
    total_before=$((total_before + before))
    total_after=$((total_after + after))
done < <({
    git diff --name-only "$rev" -- '*.rs'
    git ls-files --others --exclude-standard -- '*.rs'
} | sort -u)
printf '%8d %8d %+8d  %s\n' "$total_before" "$total_after" \
    $((total_after - total_before)) total
