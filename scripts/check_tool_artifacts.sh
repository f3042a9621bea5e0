#!/usr/bin/env bash
# Tool artifact contract: the exact set of file names strip_sim and
# strip_sweep write, the one-line rejection of malformed numeric
# flags by strip_sim, strip_sweep, strip_trace and strip_replay, and
# the JSON documents strip_lint and strip_report write. Three parts,
# all against the built binaries:
#
#   1. Names — strip_sim (--telemetry, --chrome-trace, --audit) and
#      strip_sweep (--out-dir, --telemetry-dir, --flight-dir, --audit)
#      at --shards=1, at --shards=2, and on a --x=shards --values=1,2
#      sweep. One-shard runs name their files plainly; sharded runs
#      (shards > 1 or a cluster x axis) suffix every per-shard file
#      with .shard<k> (telemetry) or _shard<k> (flight dumps).
#   2. Rejections — a numeric flag that does not parse, does not fit
#      its type, or is out of range (a negative --jobs), exits 2 with
#      one line on stderr and nothing on stdout.
#   3. JSON — strip_lint --json on a scratch tree (findings plus a dead
#      allowlist entry) and on a clean file (both arrays empty) matches
#      tests/check/testdata/lint*_golden.json byte for byte; strip_report
#      diff --json and bench-diff --json/--snapshot stay valid JSON when
#      paths and the label hold `"` and `\`, and the snapshot loads back
#      as a bench-diff BASE.
#
#   scripts/check_tool_artifacts.sh [BUILD_DIR]    # default: build
#
# Exits non-zero on the first violation. Runs as the ctest
# tools.artifacts.

set -eu
cd "$(dirname "$0")/.."
BUILD="${1:-build}"
SIM="$BUILD/tools/strip_sim"
SWEEP="$BUILD/tools/strip_sweep"
TRACE="$BUILD/tools/strip_trace"
REPLAY="$BUILD/tools/strip_replay"
LINT="$BUILD/tools/strip_lint"
REPORT="$BUILD/tools/strip_report"
for tool in "$SIM" "$SWEEP" "$TRACE" "$REPLAY" "$LINT" "$REPORT"; do
  [ -x "$tool" ] || { echo "missing $tool (build first)"; exit 2; }
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "check_tool_artifacts: FAILED — $1"; exit 1; }

# expect_files DIR NAME... — DIR holds exactly these files.
expect_files() {
  local dir="$1"
  shift
  local want got
  want="$(printf '%s\n' "$@" | sort)"
  got="$(cd "$dir" && find . -type f | sed 's|^\./||' | sort)"
  [ "$want" = "$got" ] \
    || fail "$dir: want {$(echo $want)}, got {$(echo $got)}"
}

echo "check_tool_artifacts: strip_sim file names"
SIM_ARGS=(--policy=OD --sim_seconds=5 --seed=3 --reps=2 --audit --quiet)
for SHARDS in 1 2; do
  mkdir -p "$WORK/sim$SHARDS"
  "$SIM" "${SIM_ARGS[@]}" --shards=$SHARDS \
    --telemetry="$WORK/sim$SHARDS/run.json" \
    --chrome-trace="$WORK/sim$SHARDS/trace.json" > /dev/null \
    || fail "strip_sim --shards=$SHARDS exited $?"
done
expect_files "$WORK/sim1" run.json trace.json
expect_files "$WORK/sim2" run.json.shard0 run.json.shard1 trace.json

echo "check_tool_artifacts: strip_sweep file names"
# sweep NAME ARGS... — one audited grid writing cells, telemetry and
# flight dumps under $WORK/NAME/{cells,tele,flight}. At lambda_t=40
# every cell's flight recorder trips on some shard; at lambda_t=10
# some do not, so the dump set also pins the "tripped only" rule.
sweep() {
  local name="$1"
  shift
  mkdir -p "$WORK/$name/cells" "$WORK/$name/tele" "$WORK/$name/flight"
  "$SWEEP" --policies=UF,OD --reps=2 --seed=3 --sim_seconds=5 \
    --progress=off --jobs=2 --audit "$@" \
    --out-dir="$WORK/$name/cells" --telemetry-dir="$WORK/$name/tele" \
    --flight-dir="$WORK/$name/flight" > /dev/null \
    || fail "strip_sweep $* exited $?"
}
CELLS=(cell_OD_00.json cell_OD_01.json cell_UF_00.json cell_UF_01.json)

sweep shards1 --x=lambda_t --values=10,40 --shards=1
expect_files "$WORK/shards1/cells" "${CELLS[@]}"
expect_files "$WORK/shards1/tele" OD_00.json OD_01.json UF_00.json \
  UF_01.json
expect_files "$WORK/shards1/flight" flight_OD_00.txt flight_OD_01.txt \
  flight_UF_00.txt flight_UF_01.txt

sweep shards2 --x=lambda_t --values=10,40 --shards=2
expect_files "$WORK/shards2/cells" "${CELLS[@]}"
expect_files "$WORK/shards2/tele" \
  OD_00.json.shard0 OD_00.json.shard1 OD_01.json.shard0 OD_01.json.shard1 \
  UF_00.json.shard0 UF_00.json.shard1 UF_01.json.shard0 UF_01.json.shard1
expect_files "$WORK/shards2/flight" \
  flight_OD_00_shard0.txt flight_OD_01_shard0.txt flight_OD_01_shard1.txt \
  flight_UF_01_shard0.txt flight_UF_01_shard1.txt

# A cluster x axis is sharded at every value, its one-shard cells too.
sweep xshards --x=shards --values=1,2 --lambda_t=40
expect_files "$WORK/xshards/cells" "${CELLS[@]}"
expect_files "$WORK/xshards/tele" \
  OD_00.json.shard0 OD_01.json.shard0 OD_01.json.shard1 \
  UF_00.json.shard0 UF_01.json.shard0 UF_01.json.shard1
expect_files "$WORK/xshards/flight" \
  flight_OD_00_shard0.txt flight_OD_01_shard0.txt flight_OD_01_shard1.txt \
  flight_UF_00_shard0.txt flight_UF_01_shard0.txt flight_UF_01_shard1.txt

echo "check_tool_artifacts: malformed numeric flags"
# expect_reject TEXT COMMAND... — exit 2, one stderr line containing
# TEXT, empty stdout.
expect_reject() {
  local text="$1"
  shift
  local rc=0
  "$@" > "$WORK/out.txt" 2> "$WORK/err.txt" || rc=$?
  [ "$rc" -eq 2 ] || fail "$* exited $rc, want 2"
  [ "$(wc -l < "$WORK/err.txt")" -eq 1 ] \
    || fail "$*: want one stderr line, got: $(cat "$WORK/err.txt")"
  grep -qF -- "$text" "$WORK/err.txt" \
    || fail "$*: stderr lacks '$text': $(cat "$WORK/err.txt")"
  [ ! -s "$WORK/out.txt" ] || fail "$*: wrote to stdout"
}
SWEEP_OK=(--x=lambda_t --values=10 --sim_seconds=1 --progress=off)
expect_reject "bad value for shards: 4294967298" \
  "$SIM" --shards=4294967298 --print-config
expect_reject "bad value for n_low: 99999999999" "$SIM" --n_low=99999999999
expect_reject "bad value for --seed: banana" "$SIM" --seed=banana
expect_reject "bad value for --seed: -1" "$SIM" --seed=-1
expect_reject "bad value for --reps: 2x" "$SIM" --reps=2x
expect_reject "bad value for --values: abc" "$SWEEP" "${SWEEP_OK[@]}" \
  --values=10,abc
expect_reject "bad value for --reps: 1x" "$SWEEP" "${SWEEP_OK[@]}" --reps=1x
expect_reject "bad value for --seed: z" "$SWEEP" "${SWEEP_OK[@]}" --seed=z
expect_reject "bad value for --jobs: abc" "$SWEEP" "${SWEEP_OK[@]}" \
  --jobs=abc
expect_reject "bad value for --jobs: -5" "$SWEEP" "${SWEEP_OK[@]}" \
  --jobs=-5
expect_reject "bad value for --cell-timeout: abc" "$SWEEP" \
  "${SWEEP_OK[@]}" --cell-timeout=abc
# strip_trace rejects a bad number before it opens the trace.
expect_reject "bad value for --txn: 7x" "$TRACE" --chrome=t.json --txn=7x
expect_reject "bad value for --txn: -1" "$TRACE" --chrome=t.json --txn=-1
expect_reject "bad value for --from: abc" "$TRACE" --chrome=t.json \
  --from=abc
expect_reject "bad value for --to: xyz" "$TRACE" --chrome=t.json --to=xyz
expect_reject "bad value for --shard: 1x" "$TRACE" --chrome=t.json \
  --shard=1x
expect_reject "bad value for --critical-path: 12x" "$TRACE" \
  --chrome=t.json --critical-path=12x
expect_reject "bad value for --seed: banana" "$REPLAY" --seed=banana \
  trace.csv

echo "check_tool_artifacts: strip_lint --json bytes"
mkdir -p "$WORK/lint/src" "$WORK/lint/scripts"
cp tests/check/lint_fixtures/det_libc_rand_pos.cc \
  tests/check/lint_fixtures/float_eq_pos.cc "$WORK/lint/src/"
echo "gone.cc:det-libc-rand -- matches nothing, so it is reported dead" \
  > "$WORK/lint/scripts/determinism_allowlist.txt"
rc=0
"$LINT" --root="$WORK/lint" --json="$WORK/lint.json" > /dev/null || rc=$?
[ "$rc" -eq 1 ] || fail "strip_lint on the scratch tree exited $rc, want 1"
cmp "$WORK/lint.json" tests/check/testdata/lint_golden.json \
  || fail "strip_lint --json drifted from lint_golden.json"
"$LINT" --allowlist=/dev/null --json="$WORK/lint_empty.json" \
  tests/check/lint_fixtures/float_eq_neg.cc > /dev/null \
  || fail "strip_lint on a clean file exited $?"
cmp "$WORK/lint_empty.json" tests/check/testdata/lint_empty_golden.json \
  || fail "strip_lint --json drifted from lint_empty_golden.json"

echo "check_tool_artifacts: strip_report JSON with \" and \\ in names"
# expect_text FILE TEXT — FILE holds TEXT verbatim (here: a member
# whose string value is escaped as JSON requires).
expect_text() {
  grep -qF -- "$2" "$1" || fail "$1 lacks $2: $(cat "$1")"
}
ODD="$WORK/odd\"dir\\x"
mkdir -p "$ODD"
cp "$WORK/sim1/run.json" "$ODD/a\"b.json"
cp "$WORK/sim1/run.json" "$ODD/c\\d.json"
"$REPORT" diff "$ODD/a\"b.json" "$ODD/c\\d.json" \
  --json="$WORK/diff.json" > /dev/null \
  || fail "strip_report diff on quoted paths exited $?"
expect_text "$WORK/diff.json" '"a": "'"$WORK"'/odd\"dir\\x/a\"b.json",'
expect_text "$WORK/diff.json" '"b": "'"$WORK"'/odd\"dir\\x/c\\d.json",'
cp BENCH_core.json "$ODD/ba\"se.json"
"$REPORT" bench-diff "$ODD/ba\"se.json" BENCH_core.json \
  --json="$WORK/bench_diff.json" --snapshot="$ODD/snap\"shot.json" \
  --label='pr "rc" c:\tmp' > /dev/null \
  || fail "strip_report bench-diff on quoted paths exited $?"
expect_text "$WORK/bench_diff.json" \
  '"base": "'"$WORK"'/odd\"dir\\x/ba\"se.json",'
expect_text "$ODD/snap\"shot.json" '"label": "pr \"rc\" c:\\tmp",'
# The snapshot is itself a BASE: strip_report must parse it back.
"$REPORT" bench-diff "$ODD/snap\"shot.json" BENCH_core.json > /dev/null \
  || fail "strip_report bench-diff with the snapshot as BASE exited $?"

echo "check_tool_artifacts: OK"
