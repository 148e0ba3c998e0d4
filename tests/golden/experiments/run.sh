#!/bin/sh
# Run the seeded experiments whose output is pinned in this directory and
# write each one's stdout, stderr and exit status to DIR as <name>.stdout,
# <name>.stderr and <name>.exit.  About a minute on 2 vCPUs.
#
#   sh tests/golden/experiments/run.sh /tmp/out   # then: diff -r -x run.sh tests/golden/experiments /tmp/out
#   sh tests/golden/experiments/run.sh            # regenerate the pinned files
set -u
here=$(cd "$(dirname "$0")" && pwd)
out=$(mkdir -p "${1:-$here}" && cd "${1:-$here}" && pwd)
cd "$here/../../.."
for args in "fig4 --duration 5" "fig5 --duration 5" "fig6 --duration 5" \
            table1 chaos crash-recovery registry-failover failover \
            "pool-sizing --duration 5" "batching --duration 5"; do
    name=${args%% *}
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.experiments $args \
        > "$out/$name.stdout" 2> "$out/$name.stderr"
    echo $? > "$out/$name.exit"
done
