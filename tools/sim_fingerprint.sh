#!/usr/bin/env bash
# Prints one SHA-256 digest per simulator output, so two builds can be shown
# to behave identically:
#
#   tools/sim_fingerprint.sh BUILD_DIR
#
# It runs, from a fresh temporary directory, the 14 simulator benches with
# PILEUS_BENCH_SMOKE=1 and the simulator audit sweep CI runs: 15 outputs.
# All of them run on virtual time with seeded random streams, so the digests
# are deterministic. Compare a parent build with a change's build on one
# machine: the C library's maths may round differently elsewhere.
#
# Prints "sha256  name" lines; exits 1 when any bench or sweep fails and 2 on
# bad usage.

set -u

if [ "$#" -ne 1 ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
build=$(cd "$1" && pwd) || exit 2
work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 2

benches="
  bench_ablation_monitoring
  bench_ablation_multi_primary
  bench_ablation_parallel_get
  bench_ablation_reconfiguration
  bench_ablation_replication_period
  bench_ablation_tiebreak
  bench_availability
  bench_fig3_consistency_latency
  bench_fig11_shopping_cart
  bench_fig12_password
  bench_fig13_adaptation
  bench_fig14_utility_sensitivity
  bench_overload
  bench_web_sla
"

status=0
for bench in $benches; do
  if ! PILEUS_BENCH_SMOKE=1 "$build/bench/$bench" > "$bench.out" 2>&1; then
    echo "FAIL: $bench (output in $bench.out)" >&2
    status=1
  fi
done

# The sweep takes CI's arguments (.github/workflows/ci.yml, audit-sweep).
if ! "$build/tools/pileus_audit" --num_seeds 8 --scenarios \
  none,partition,drops,gray,crash-restart,handoff,failover,overload \
  > audit_sim.out 2>&1; then
  echo "FAIL: audit_sim" >&2
  status=1
fi

sha256sum -- *.out
exit "$status"
