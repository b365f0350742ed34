#!/usr/bin/env bash
# The pinned DP checks of both CI jobs: each command's stdout must equal its
# expected line byte for byte, within 60 s.  Run from the repository root
# with `sublin` on PATH, under the warning filter CI sets, so that a numpy
# overflow or invalid-value warning fails the check:
#
#   PYTHONWARNINGS=error::RuntimeWarning bash .github/dp-checks.sh
set -eo pipefail

echo "Exact DP on the Bernoulli band"
# a wrapped int64 numerator would change the value
out=$(timeout 60 sublin eval --model configs/bernoulli-band.json --phi "x*x" --n 2000 --normalize n --exact)
test "$out" = "value=9003/25000" || { echo "got: $out"; exit 1; }

echo "LLN counterexample at K=100, n=50"
# v_k is one constant over nearly every state; the sweep copies a swept value across them
out=$(timeout 60 sublin counterexample --which lln --K 100 --n 50)
want="value=0.99002446084601858 lower-bound=0.9900244608460177 classical-reference=0 robust-limit=1"
test "$out" = "$want" || { echo "got: $out"; exit 1; }

echo "CLT counterexample at K=400, n=25"
# the DP reads prop63's clamped phi through its compiled array closure
out=$(timeout 60 sublin counterexample --which clt --K 400 --n 25)
want="value=0.99984376757672211 lower-bound=0.99984376171818845 classical-reference=0.20211543919713459 robust-limit=1"
test "$out" = "$want" || { echo "got: $out"; exit 1; }

echo "Exact LLN counterexample at K=10, n=10"
# 968 of the 5,511 window states are unreachable; the exact sweep and
# its gcd reduction run over their values too
out=$(timeout 60 sublin counterexample --which lln --K 10 --n 10 --exact)
want="value=40438207500880449001/50000000000000000000 lower-bound=40438207500880449001/50000000000000000000 classical-reference=0 robust-limit=1"
test "$out" = "$want" || { echo "got: $out"; exit 1; }
