#!/usr/bin/env bash
# The pinned DP and G-heat checks of both CI jobs: each command's stdout
# must equal its expected line byte for byte, within 60 s (the two G-normal
# values that the closed form takes, whose last bits are numpy's FFT's,
# within their rounding bounds), and the last two commands must be refused
# with exit code 4 within 60 s.  Run from the repository root, under the
# warning filter CI sets, so that a numpy overflow or invalid-value warning
# fails the check:
#
#   PYTHONWARNINGS=error::RuntimeWarning bash .github/dp-checks.sh
#
# It runs `sublin` from PATH, or else `python -m sublin.cli` from src/.
set -eo pipefail

if command -v sublin >/dev/null 2>&1; then
  sublin=(sublin)
else
  sublin=(env "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}" python -m sublin.cli)
fi

echo "Exact DP on the Bernoulli band"
# a wrapped int64 numerator would change the value
out=$(timeout 60 "${sublin[@]}" eval --model configs/bernoulli-band.json --phi "x*x" --n 2000 --normalize n --exact)
test "$out" = "value=9003/25000" || { echo "got: $out"; exit 1; }

echo "Exact DP on the Bernoulli band at n=10000"
# windows of 1 to 10,001 states, 5.0e7 in all: only the widest is bounded
out=$(timeout 60 "${sublin[@]}" eval --model configs/bernoulli-band.json --phi x --n 10000 --normalize n --exact)
test "$out" = "value=3/5" || { echo "got: $out"; exit 1; }

echo "LLN counterexample at K=100, n=50"
# v_k is one constant over nearly every state; a step reads copies of a swept value there
out=$(timeout 60 "${sublin[@]}" counterexample --which lln --K 100 --n 50)
want="value=0.99002446084601858 lower-bound=0.9900244608460177 classical-reference=0 robust-limit=1"
test "$out" = "$want" || { echo "got: $out"; exit 1; }

echo "LLN counterexample at K=100, n=200"
# its windows' states times 2K atoms come to 4.0e10, past the work cap; but a
# step computes at most 401 states, and is charged those and 1 a state for the rest
out=$(timeout 60 "${sublin[@]}" counterexample --which lln --K 100 --n 200)
want="value=0.96039538608644459 lower-bound=0.96039538608644137 classical-reference=0 robust-limit=1"
test "$out" = "$want" || { echo "got: $out"; exit 1; }

echo "CLT counterexample at K=400, n=25"
# the DP reads prop63's clamped phi through its compiled array closure
out=$(timeout 60 "${sublin[@]}" counterexample --which clt --K 400 --n 25)
want="value=0.99984376757672211 lower-bound=0.99984376171818845 classical-reference=0.20211543919713459 robust-limit=1"
test "$out" = "$want" || { echo "got: $out"; exit 1; }

echo "Lower Rademacher DP at n=400"
# the lower direction sweeps the negated terminal, whose zeros are -0.0;
# every other DP pin here is an upper value
out=$(timeout 60 "${sublin[@]}" eval --model configs/rademacher.json --phi "max(1-abs(x),0)" --n 400 --normalize sqrt-n --lower)
test "$out" = "value=0.30545228865175422" || { echo "got: $out"; exit 1; }

echo "Exact LLN counterexample at K=10, n=10"
# 968 of the 5,511 window states are unreachable; the sweep computes 190
# states, copies their end values into the states past them that the next
# step reads, and reduces only the 190
out=$(timeout 60 "${sublin[@]}" counterexample --which lln --K 10 --n 10 --exact)
want="value=40438207500880449001/50000000000000000000 lower-bound=40438207500880449001/50000000000000000000 classical-reference=0 robust-limit=1"
test "$out" = "$want" || { echo "got: $out"; exit 1; }

echo "Exact LLN counterexample at K=100, n=50"
# 500,001 terminal states, of which interval evaluation proves all but the
# first 101 flat, so phi is called on those 101 alone
out=$(timeout 60 "${sublin[@]}" counterexample --which lln --K 100 --n 50 --exact)
want="value=49501223042300882828071692628209315440097617442434622569539381407726066148386743841546236419103479078394269912554383014712195070531219955897146209915828840276319986866171890488126302980400122499500001/50000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 lower-bound=49501223042300882828071692628209315440097617442434622569539381407726066148386743841546236419103479078394269912554383014712195070531219955897146209915828840276319986866171890488126302980400122499500001/50000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 classical-reference=0 robust-limit=1"
test "$out" = "$want" || { echo "got: $out"; exit 1; }

echo "Exact CLT counterexample at K=2, n=1 with --clamp 0.3"
# the clamp 0.3 is 3/10 under --exact, as a model file's 0.3 is
out=$(timeout 60 "${sublin[@]}" counterexample --which clt --K 2 --n 1 --clamp 0.3 --exact)
want="value=37/40 lower-bound=37/40 classical-reference=0.20211543919713459 robust-limit=1"
test "$out" = "$want" || { echo "got: $out"; exit 1; }

echo "G-normal band at dx=0.005"
# concave data: the 100,000 split steps on 3,201 points are within
# solve_g_heat's bound, 1.16e-10 here, of 100,000 linear steps at sigma_lo,
# which the closed form takes; the pinned value and this one are each within
# it of the exact split scheme, so within 2.32e-10 of each other
out=$(timeout 60 "${sublin[@]}" gnormal --sigma-lo 0.5 --sigma-hi 1 --phi "1-abs(x)" --dx 0.005)
value=$(printf '%s\n' "$out" | sed -n 's/^value=//p')
python -c 'import sys; sys.exit(not abs(float(sys.argv[1]) - 0.60106220777371622) <= 2.32e-10)' \
  "$value" || { echo "got: $out"; exit 1; }

echo "G-normal band on mixed data at dx=0.005"
# 100,000 steps of the split step max(p_hi d2, p_lo d2) on 3,201 points,
# byte for byte; the property tests stop at T = 0.3
out=$(timeout 60 "${sublin[@]}" gnormal --sigma-lo 0.5 --sigma-hi 1 --phi "max(1-abs(x),0)" --dx 0.005)
test "$out" = "value=0.63637938458105714" || { echo "got: $out"; exit 1; }

echo "G-normal band on mixed data at sigma = (0.6, 0.9)"
# 81,000 split steps on 3,201 points, byte for byte.  sigma^2 is no power of
# two here, so p_s = dt / (2 dx^2) * sigma_s^2 rounds: the weights' product
# order shows in the last bits, where at sigma = (0.5, 1) it does not
out=$(timeout 60 "${sublin[@]}" gnormal --sigma-lo 0.6 --sigma-hi 0.9 --phi "max(1-abs(x),0)" --dx 0.005)
test "$out" = "value=0.56679984805438921" || { echo "got: $out"; exit 1; }

echo "Classical G-normal at dx=0.005"
# sigma_lo = sigma_hi: the 100,000 steps on 3,201 points in closed form, by
# two real FFTs.  solve_g_heat's bound on this grid (|u(0, x)| <= 7) is
# 2.07e-11; the pinned value and this one are each within it of the exact
# scheme, so within 4.13e-11 of each other
out=$(timeout 60 "${sublin[@]}" gnormal --sigma-lo 1 --sigma-hi 1 --phi "1-abs(x)" --dx 0.005)
value=$(printf '%s\n' "$out" | sed -n 's/^value=//p')
python -c 'import sys; sys.exit(not abs(float(sys.argv[1]) - 0.20211693523240282) <= 4.13e-11)' \
  "$value" || { echo "got: $out"; exit 1; }

echo "G-heat grid of 10,000,001 points is refused"
# L/dx = 4,999,999.5 rounds up to 5,000,000 cells a side: one point past the
# array bound, refused before the grid is built
code=0
err=$(timeout 60 "${sublin[@]}" gnormal --sigma-lo 0 --sigma-hi 0 --phi x --dx 1.600000160000016e-06 2>&1 >/dev/null) || code=$?
test "$code" = 4 || { echo "exit code $code: $err"; exit 1; }
case "$err" in
  "error: G-heat grid of 10000001 points exceeds the bound"*) ;;
  *) echo "got: $err"; exit 1 ;;
esac

echo "Exact CLT counterexample at K=40, n=121 is refused"
# its numerators pass 10,000 bits: the exact meter refuses the sweep after
# 10-15 s of a run that would take about a minute to finish
code=0
err=$(timeout 60 "${sublin[@]}" counterexample --which clt --K 40 --n 121 --exact 2>&1 >/dev/null) || code=$?
test "$code" = 4 || { echo "exit code $code: $err"; exit 1; }
case "$err" in
  "error: the backward sweep exceeds the work cap"*) ;;
  *) echo "got: $err"; exit 1 ;;
esac
