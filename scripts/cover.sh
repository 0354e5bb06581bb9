#!/bin/sh
# Coverage gate for the numerical core: the packages whose arithmetic
# the bit-identity harness pins (the SART solver, the sweep engine with
# its blocked kernel, the pAVF closed forms, the ACE lifetime model with
# its window emission, the pAVF table parsers, and the hardening
# optimizer's gradient + knapsack solvers) must keep statement coverage
# above fixed floors. The fleet gateway is gated too: its route contract
# (routing, failover, replication, ingest faults) is what lets a fleet
# stand in for one seqavfd. So are hardentool, whose report is pinned to
# POST /v1/harden, and sweeprun, whose reports are pinned to POST
# /v1/sweep and /v1/sweep/intervals. So are the graph builder and the
# artifact codec and store, whose hot paths (CSR construction, presized
# encode buffers) the ECO edit runs on every request, and whose bytes and
# fingerprints key every stored artifact. Floors are set below current
# coverage (core ~93%, sweep ~94%, pavf ~91%, harden ~90%, ace ~93%,
# pavfio ~95%, fleet ~90%, graph ~92%, artifact ~87%, hardentool ~69%
# and sweeprun ~70%, whose mains are untested) so routine changes pass,
# but a change that lands substantial untested code trips the gate. The sweeprun floor sits 5
# points under the 71.1% its pin test measured on landing. The artifact floor sits
# 3 points under the 86.6% measured when the store gained its in-memory
# index, so the eviction and rescan paths stay covered. The harden and
# sweep floors sit 3 points under the 90.4% and 94.3% measured when
# hardening moved onto the engine's mean sink, so the sink and the
# layout-built model stay covered. The core floor sits about 5 points under its measurement:
# the solver's one relaxation loop serves both the cold and the
# incremental solve, so an untested branch in it is untested in both.
# The pavf floor sits 3 points under the 90.5% measured when the solver
# moved onto the hash-consed set table, so the table stays covered.
# The netlist floor sits 3 points under the 82.3% measured when edits
# began re-ingesting only the modules they touched: the parser reads
# up to 8 MiB of untrusted text per upload or edit, and its reuse of a
# prior version's modules must stay covered along with the cold path.
# Exits non-zero naming every package under its floor.
set -eu

GO=${GO:-go}

# package floor
GATES="
internal/core 88.0
internal/sweep 91.3
internal/pavf 87.5
internal/pavfio 80.0
internal/ace 75.0
internal/harden 87.4
internal/fleet 85.0
internal/graph 86.0
internal/artifact 83.6
internal/netlist 79.3
cmd/hardentool 61.5
cmd/sweeprun 66.1
"

fail=0
echo "$GATES" | while read -r pkg floor; do
    [ -n "$pkg" ] || continue
    out=$($GO test -cover "./$pkg/" 2>&1) || {
        echo "cover: tests failed in $pkg:" >&2
        echo "$out" >&2
        exit 1
    }
    pct=$(echo "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "cover: no coverage figure in output for $pkg:" >&2
        echo "$out" >&2
        exit 1
    fi
    ok=$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p >= f) ? 1 : 0 }')
    if [ "$ok" != 1 ]; then
        echo "cover: $pkg at ${pct}% is below the ${floor}% floor" >&2
        exit 1
    fi
    echo "cover: $pkg ${pct}% (floor ${floor}%)"
done || fail=1

exit $fail
