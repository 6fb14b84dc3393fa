#!/usr/bin/env bash
# Tier-1 verification plus the parallelism determinism gate.
#
# Builds the tree, runs the full test suite twice — once pinned to a single
# thread (SMART_THREADS=1) and once unrestricted — and then diffs the
# profiling-corpus checksum (smartctl profile --checksum 1) between the two
# thread modes. Any divergence means a parallel loop broke the determinism
# contract documented in src/util/task_pool.hpp.
#
# The golden model artifacts are then pinned by checksum at several thread
# counts, and the examples must end library errors with rc 1.
#
# The serve gates then drive the resident daemon black-box: determinism
# matrices, protocol fuzz, a multi-client chaos gate (16 connections,
# client aborts, kill -9, SIGHUP hot reload mid-traffic), an overload
# shedding gate against a tiny admission queue, and sanitizer legs
# (ASan+UBSan over the unit suite + fuzz, TSan over the concurrent serve
# path and the concurrent model fits of `train`).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}

# Warnings are errors here: GCC 12 builds every target warning-free.
cmake -B "$BUILD_DIR" -S . -DSMART_WERROR=ON >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)"

echo "== ctest (SMART_THREADS=1) =="
(cd "$BUILD_DIR" && SMART_THREADS=1 ctest --output-on-failure -j"$(nproc)")

echo "== ctest (unrestricted threads) =="
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$(nproc)")

echo "== kernel equivalence gates (SMART_THREADS {1,4}) =="
# The vectorized inference layer (DESIGN.md §13) must hold its contracts
# serially and under the task pool: fused dense steps bit-identical to
# forward(), the forest walk bit-identical to the per-tree pointer walk.
EQUIV_FILTER='SimdKernels.*:FlatForest.*:FeatureBinner.*'
for threads in 1 4; do
  echo "  SMART_THREADS=$threads"
  SMART_THREADS=$threads "$BUILD_DIR/tests/smart_tests" \
    --gtest_brief=1 --gtest_filter="$EQUIV_FILTER" | sed 's/^/    /'
done
echo "OK: equivalence suites pass at 1 and 4 threads"

echo "== determinism digest (SMART_THREADS=1 vs default) =="
SMARTCTL="$BUILD_DIR/tools/smartctl"
PROFILE_ARGS=(profile --dims 3 --stencils 24 --samples 3 --seed 20220530 --checksum 1)
one=$(SMART_THREADS=1 "$SMARTCTL" "${PROFILE_ARGS[@]}" | grep '^checksum')
many=$("$SMARTCTL" "${PROFILE_ARGS[@]}" | grep '^checksum')
echo "  SMART_THREADS=1 -> $one"
echo "  default         -> $many"
if [[ "$one" != "$many" ]]; then
  echo "FAIL: dataset checksum differs between thread modes" >&2
  exit 1
fi
echo "OK: checksums identical across thread counts"

echo "== golden corpus checksum (500 stencils, pre-two-phase reference) =="
# The two-phase profiler (PR 4) must reproduce the pre-change profiler's
# dataset bit-for-bit: this golden value was recorded from the monolithic
# implementation on the paper-sized 2-D corpus, and must hold serially and
# under the task pool alike.
GOLDEN_ARGS=(profile --dims 2 --stencils 500 --samples 4 --seed 20220530 --checksum 1)
GOLDEN_WANT="checksum 2e5c80a812ebd0f9"
for threads in 1 4; do
  got=$(SMART_THREADS=$threads "$SMARTCTL" "${GOLDEN_ARGS[@]}" | grep '^checksum')
  echo "  SMART_THREADS=$threads -> $got"
  if [[ "$got" != "$GOLDEN_WANT" ]]; then
    echo "FAIL: corpus checksum drifted from the pre-two-phase profiler" >&2
    echo "      want: $GOLDEN_WANT" >&2
    exit 1
  fi
done
echo "OK: 500-stencil corpus matches the golden checksum in both thread modes"

echo "== train-once/serve-many round trip =="
# A model artifact served with `advise --model` must print advice identical
# to training in-process from the same corpus, and the serve side must not
# profile or train (no profile.* / *.fit timing phases).
ARTDIR=$(mktemp -d)
serve_pid=""
trap '[[ -n "${serve_pid:-}" ]] && kill "$serve_pid" 2>/dev/null; rm -rf "$ARTDIR"' EXIT
"$SMARTCTL" profile --dims 2 --stencils 8 --samples 2 --out "$ARTDIR/corpus.txt" >/dev/null
"$SMARTCTL" train --corpus "$ARTDIR/corpus.txt" --out "$ARTDIR/model.smart" >/dev/null
ADVISE_ARGS=(advise --shape star --dims 2 --order 2 --gpu V100)
"$SMARTCTL" "${ADVISE_ARGS[@]}" --corpus "$ARTDIR/corpus.txt" > "$ARTDIR/from_corpus.txt"
"$SMARTCTL" "${ADVISE_ARGS[@]}" --model "$ARTDIR/model.smart" --timing 1 > "$ARTDIR/from_model.txt"
if ! diff <(head -n "$(wc -l < "$ARTDIR/from_corpus.txt")" "$ARTDIR/from_model.txt") \
          "$ARTDIR/from_corpus.txt"; then
  echo "FAIL: advise --model output differs from advise --corpus" >&2
  exit 1
fi
if grep -qE 'profile\.|\.fit' "$ARTDIR/from_model.txt"; then
  echo "FAIL: serving a model artifact ran profiling or training phases" >&2
  exit 1
fi
echo "OK: served advice matches corpus training; serve side is inference-only"

echo "== corrupt-artifact rejection =="
# Truncation and a flipped payload byte must both be refused.
head -c "$(( $(wc -c < "$ARTDIR/model.smart") / 2 ))" "$ARTDIR/model.smart" > "$ARTDIR/truncated.smart"
if "$SMARTCTL" "${ADVISE_ARGS[@]}" --model "$ARTDIR/truncated.smart" >/dev/null 2>&1; then
  echo "FAIL: truncated artifact was accepted" >&2
  exit 1
fi
mid=$(( $(wc -c < "$ARTDIR/model.smart") / 2 ))
{ head -c "$mid" "$ARTDIR/model.smart"; printf '#'; tail -c "+$(( mid + 2 ))" "$ARTDIR/model.smart"; } \
  > "$ARTDIR/flipped.smart"
if "$SMARTCTL" "${ADVISE_ARGS[@]}" --model "$ARTDIR/flipped.smart" >/dev/null 2>&1; then
  echo "FAIL: checksum-corrupted artifact was accepted" >&2
  exit 1
fi
echo "OK: truncated and corrupted artifacts are rejected"

echo "== smartctl exit-code contract =="
# Usage errors (bad flags, malformed values) exit 2 with the usage text;
# runtime failures (I/O, corrupt artifacts, injected faults) exit 1 with a
# one-line "smartctl: error: ..." diagnostic.
set +e
"$SMARTCTL" profile --faults "bogus:p=0.5" >/dev/null 2>"$ARTDIR/usage_err.txt"
rc_usage=$?
"$SMARTCTL" "${ADVISE_ARGS[@]}" --model "$ARTDIR/nonexistent.smart" \
  >/dev/null 2>"$ARTDIR/runtime_err.txt"
rc_runtime=$?
set -e
if [[ $rc_usage -ne 2 ]] || ! grep -q 'usage\|smartctl —' "$ARTDIR/usage_err.txt"; then
  echo "FAIL: usage error should exit 2 with usage text (got rc=$rc_usage)" >&2
  exit 1
fi
if [[ $rc_runtime -ne 1 ]] || ! grep -q '^smartctl: error:' "$ARTDIR/runtime_err.txt"; then
  echo "FAIL: runtime error should exit 1 with a one-line diagnostic (got rc=$rc_runtime)" >&2
  exit 1
fi
echo "OK: usage errors exit 2, runtime errors exit 1"

# An option the subcommand does not read is a usage error, never silently
# ignored: a typo'd serve knob and a bogus flag on an option-less command.
# stdin is empty, so a daemon that wrongly starts serves nothing and exits 0.
expect_usage_error() {  # usage: expect_usage_error WANT_STDERR_PATTERN CMD...
  local want=$1
  shift
  set +e
  "$@" </dev/null >/dev/null 2>"$ARTDIR/usage_err.txt"
  local rc=$?
  set -e
  echo "  rc=$rc $(head -n 1 "$ARTDIR/usage_err.txt")"
  if [[ $rc -ne 2 ]] || ! grep -q -- "$want" "$ARTDIR/usage_err.txt"; then
    echo "FAIL: expected a usage error (rc 2) matching '$want'" >&2
    exit 1
  fi
}
expect_usage_error 'serve: unknown option --max-bach' \
  "$SMARTCTL" serve --model "$ARTDIR/model.smart" --stdio --max-bach 8
expect_usage_error 'gpus: unknown option --bogus' "$SMARTCTL" gpus --bogus 1
# Every Dense runs the one strict kernel, so there is no precision to pick.
expect_usage_error 'advise: unknown option --precision' \
  "$SMARTCTL" "${ADVISE_ARGS[@]}" --model "$ARTDIR/model.smart" --precision f32
expect_usage_error 'serve: unknown option --precision' \
  "$SMARTCTL" serve --model "$ARTDIR/model.smart" --stdio --precision f32
echo "OK: unknown options exit 2 before any work"

# The examples end a library error with one "<example>: error: ..." line
# and rc 1, never std::terminate (rc 134).
set +e
SMART_FAULTS='measure:bogus' SMART_SCALE=0.02 "$BUILD_DIR/examples/gpu_rental_advisor" \
  >/dev/null 2>"$ARTDIR/example_err.txt"
rc_example=$?
set -e
echo "  gpu_rental_advisor: rc=$rc_example $(head -n 1 "$ARTDIR/example_err.txt")"
if [[ $rc_example -ne 1 ]] || [[ $(wc -l < "$ARTDIR/example_err.txt") -ne 1 ]] ||
   ! grep -q '^gpu_rental_advisor: error: ' "$ARTDIR/example_err.txt"; then
  echo "FAIL: an example should exit 1 with one 'gpu_rental_advisor: error:' line" >&2
  exit 1
fi
echo "OK: examples report library errors on one line and exit 1"

# Corrupt corpora are runtime failures located at the offending line, never
# usage errors: an offset with z != 0 in a 2-D corpus, a coordinate beyond
# int8, trailing garbage in an offset token, a header stencil count far
# beyond the file (reported before any table is sized from it), and a unit
# whose time list lost its last record (`time 0 0 0 1` here, `time 0 0 0 3`
# in the 4-sample golden corpus; reported at the end of the corpus).
first_offset() { sed -E "3s/^(([^ ]+ ){5})[^;]+/\1$1/" "$ARTDIR/corpus.txt"; }
first_offset "0:0:1" > "$ARTDIR/corrupt_z.txt"
first_offset "200:0:0" > "$ARTDIR/corrupt_coord.txt"
first_offset "0:0:0junk" > "$ARTDIR/corrupt_junk.txt"
sed -E '2s/^([^ ]+ [^ ]+ )[0-9]+/\1200000/' "$ARTDIR/corpus.txt" \
  > "$ARTDIR/corrupt_count.txt"
last_time=$(grep -n '^time 0 0 0 ' "$ARTDIR/corpus.txt" | tail -n 1 | cut -d: -f1)
sed "${last_time}d" "$ARTDIR/corpus.txt" > "$ARTDIR/corrupt_short.txt"
for name in corrupt_z corrupt_coord corrupt_junk corrupt_count corrupt_short; do
  bad="$ARTDIR/$name.txt"
  if cmp -s "$bad" "$ARTDIR/corpus.txt"; then
    echo "FAIL: $name: the corruption edit did not apply" >&2
    exit 1
  fi
  set +e
  "$SMARTCTL" train --corpus "$bad" --out "$ARTDIR/corrupt.smart" \
    >/dev/null 2>"$ARTDIR/corrupt_err.txt"
  rc=$?
  set -e
  echo "  $name: rc=$rc $(head -n 1 "$ARTDIR/corrupt_err.txt")"
  if [[ $rc -ne 1 ]] || [[ $(wc -l < "$ARTDIR/corrupt_err.txt") -ne 1 ]] ||
     ! grep -q "^smartctl: error: $bad:[0-9][0-9]*: " "$ARTDIR/corrupt_err.txt"; then
    echo "FAIL: $name should exit 1 with one located 'smartctl: error: <file>:<line>:' line" >&2
    exit 1
  fi
done
echo "OK: corrupt corpora exit 1 with a located one-line diagnostic"

echo "== fault injection: transient faults do not perturb the corpus =="
# Retried measurements must be bit-identical to a fault-free run: fault
# decisions are pure hashes and consume no RNG state.
FAULT_ARGS=(profile --dims 2 --stencils 20 --samples 2 --seed 7 --checksum)
clean=$("$SMARTCTL" "${FAULT_ARGS[@]}" | grep '^checksum')
faulty=$("$SMARTCTL" "${FAULT_ARGS[@]}" --faults "seed=13;measure:transient:p=0.05" | grep '^checksum')
echo "  fault-free -> $clean"
echo "  transient  -> $faulty"
if [[ "$clean" != "$faulty" ]]; then
  echo "FAIL: transient fault injection changed surviving measurements" >&2
  exit 1
fi
echo "OK: transient-fault corpus is bit-identical to the fault-free corpus"

echo "== fault injection: worker crashes recovered by --resume =="
# Injected worker crashes abort the run (exit 1); each resume replays the
# journal, gets past the journaled failed attempt, and makes progress until
# the corpus completes — bit-identical to the fault-free run.
rm -f "$ARTDIR/worker_journal.txt"
attempts=0
while true; do
  set +e
  SMART_THREADS=4 "$SMARTCTL" "${FAULT_ARGS[@]}" \
    --journal "$ARTDIR/worker_journal.txt" --resume \
    --faults "seed=6;worker:p=0.005" > "$ARTDIR/worker_out.txt" 2>&1
  rc=$?
  set -e
  [[ $rc -eq 0 ]] && break
  if [[ $rc -ne 1 ]]; then
    echo "FAIL: worker crash should exit 1 (got rc=$rc)" >&2
    exit 1
  fi
  attempts=$((attempts + 1))
  if [[ $attempts -ge 60 ]]; then
    echo "FAIL: resume loop did not converge after $attempts crashes" >&2
    exit 1
  fi
done
recovered=$(grep '^checksum' "$ARTDIR/worker_out.txt")
echo "  crashes survived: $attempts, final -> $recovered"
if [[ $attempts -lt 1 ]]; then
  echo "FAIL: fault spec injected no worker crash (gate is vacuous)" >&2
  exit 1
fi
if [[ "$recovered" != "$clean" ]]; then
  echo "FAIL: resumed corpus differs from the fault-free corpus" >&2
  exit 1
fi
echo "OK: worker crashes drained by --resume; corpus bit-identical"

echo "== kill -9 mid-profile, then --resume (golden corpus) =="
# The tentpole invariant end-to-end: SIGKILL the paper-sized profiling run
# mid-sweep (no shutdown handler can run), resume from the journal, and the
# corpus must still match the golden checksum — at 1 thread and 4 threads.
KILL_TOTAL_LINES=60000  # 500 stencils x 30 OCs x 4 GPUs unit records
# kill_at_lines PID JOURNAL LINES: SIGKILL PID once JOURNAL holds LINES
# lines, or return when PID exits first. Polls every 10 ms so the wait does
# not take a core from the run it watches; the journal does not exist until
# the run's first write, hence the braces round the silenced redirect.
kill_at_lines() {
  local pid=$1 journal=$2 want=$3 lines
  while kill -0 "$pid" 2>/dev/null; do
    lines=$({ wc -l < "$journal"; } 2>/dev/null || echo 0)
    if (( lines >= want )); then
      kill -9 "$pid" 2>/dev/null || true
      return
    fi
    sleep 0.01
  done
}
for threads in 1 4; do
  interrupted=0
  for try in 1 2 3 4 5; do
    rm -f "$ARTDIR/kill_journal.txt"
    SMART_THREADS=$threads "$SMARTCTL" "${GOLDEN_ARGS[@]}" \
      --journal "$ARTDIR/kill_journal.txt" >/dev/null 2>&1 &
    victim=$!
    kill_at_lines "$victim" "$ARTDIR/kill_journal.txt" 5000
    set +e
    wait "$victim"
    rc=$?
    set -e
    if [[ $rc -ne 0 ]]; then
      interrupted=1
      break
    fi
  done
  if [[ $interrupted -ne 1 ]]; then
    echo "FAIL: could not interrupt the profiling run (machine too fast?)" >&2
    exit 1
  fi
  lines=$(wc -l < "$ARTDIR/kill_journal.txt")
  got=$(SMART_THREADS=$threads "$SMARTCTL" "${GOLDEN_ARGS[@]}" \
          --journal "$ARTDIR/kill_journal.txt" --resume | grep '^checksum')
  echo "  SMART_THREADS=$threads: killed at ~$lines/$KILL_TOTAL_LINES journal lines -> $got"
  if [[ "$got" != "$GOLDEN_WANT" ]]; then
    echo "FAIL: resumed corpus drifted from the golden checksum" >&2
    echo "      want: $GOLDEN_WANT" >&2
    exit 1
  fi
done
echo "OK: kill -9 + --resume reproduces the golden corpus at 1 and 4 threads"

echo "== sharded profiling + deterministic merge (N in {1,3,4} x SMART_THREADS {1,4}) =="
# DESIGN.md §14: N shard sweeps over the golden 500-stencil corpus, merged,
# must be BYTE-identical to the uninterrupted single-process corpus — the
# checksum must equal the golden value and the serialized file must survive
# cmp(1) — at both thread counts.
"$SMARTCTL" "${GOLDEN_ARGS[@]}" --out "$ARTDIR/single.txt" >/dev/null
for threads in 1 4; do
  for n in 1 3 4; do
    shard_files=()
    for ((i = 0; i < n; ++i)); do
      f="$ARTDIR/shard_t${threads}_n${n}_${i}.txt"
      SMART_THREADS=$threads "$SMARTCTL" "${GOLDEN_ARGS[@]}" \
        --shard "$i/$n" --out "$f" >/dev/null
      shard_files+=("$f")
    done
    got=$(SMART_THREADS=$threads "$SMARTCTL" merge --out "$ARTDIR/merged.txt" \
            "${shard_files[@]}" --checksum | grep '^checksum')
    echo "  SMART_THREADS=$threads N=$n -> $got"
    if [[ "$got" != "$GOLDEN_WANT" ]]; then
      echo "FAIL: merged corpus checksum drifted from the golden value" >&2
      exit 1
    fi
    if ! cmp -s "$ARTDIR/merged.txt" "$ARTDIR/single.txt"; then
      echo "FAIL: merged corpus bytes differ from the single-process corpus" >&2
      exit 1
    fi
  done
done
echo "OK: every shard partition merges byte-identical to the single-process corpus"

echo "== golden model artifacts (2-D and 3-D, SMART_THREADS {1,2,4}) =="
# Training is deterministic: the concurrent fits, the row-major tree
# histograms and the cached softmax exps must write the same artifact
# bytes at any thread count. The trailing checksum line pins them.
"$SMARTCTL" profile --dims 3 --stencils 500 --samples 4 --seed 20220530 \
  --out "$ARTDIR/single3d.txt" >/dev/null
for spec in "single.txt checksum 7bb481a3085b3173" "single3d.txt checksum f40bec3d4f4a7814"; do
  corpus=${spec%% *}
  want=${spec#* }
  for threads in 1 2 4; do
    model="$ARTDIR/golden_t${threads}.smart"
    SMART_THREADS=$threads "$SMARTCTL" train --corpus "$ARTDIR/$corpus" \
      --out "$model" >/dev/null
    got=$(tail -n 1 "$model")
    echo "  $corpus SMART_THREADS=$threads -> $got"
    if [[ "$got" != "$want" ]]; then
      echo "FAIL: trained artifact drifted from the golden checksum" >&2
      echo "      want: $want" >&2
      exit 1
    fi
  done
done
echo "OK: both golden corpora train to the golden artifacts at 1, 2 and 4 threads"

echo "== sharded profiling: kill -9 one shard, --resume it, merge =="
# SIGKILL shard 1 of 3 mid-sweep, resume it from its journal, and the merge
# must still reproduce the single-process bytes.
interrupted=0
for try in 1 2 3 4 5; do
  rm -f "$ARTDIR/shard_kill_journal.txt"
  SMART_THREADS=4 "$SMARTCTL" "${GOLDEN_ARGS[@]}" --shard 1/3 \
    --journal "$ARTDIR/shard_kill_journal.txt" \
    --out "$ARTDIR/shard_killed.txt" >/dev/null 2>&1 &
  victim=$!
  kill_at_lines "$victim" "$ARTDIR/shard_kill_journal.txt" 3000
  set +e
  wait "$victim"
  rc=$?
  set -e
  if [[ $rc -ne 0 ]]; then
    interrupted=1
    break
  fi
done
if [[ $interrupted -ne 1 ]]; then
  echo "FAIL: could not interrupt the shard sweep (machine too fast?)" >&2
  exit 1
fi
SMART_THREADS=4 "$SMARTCTL" "${GOLDEN_ARGS[@]}" --shard 1/3 \
  --journal "$ARTDIR/shard_kill_journal.txt" --resume \
  --out "$ARTDIR/shard_killed.txt" | sed 's/^/  /'
"$SMARTCTL" merge --out "$ARTDIR/merged.txt" \
  "$ARTDIR/shard_t4_n3_0.txt" "$ARTDIR/shard_killed.txt" \
  "$ARTDIR/shard_t4_n3_2.txt" >/dev/null
if ! cmp -s "$ARTDIR/merged.txt" "$ARTDIR/single.txt"; then
  echo "FAIL: merge after kill -9 + --resume differs from the single-process corpus" >&2
  exit 1
fi
echo "OK: a killed-and-resumed shard merges byte-identical to the single-process corpus"

echo "== sharded profiling: fault-injected shards merge byte-identical =="
# The same fault spec (transient retries + permanent quarantines) applied to
# the single run and to every shard: quarantine records must fold back into
# the canonical single-run order and the bytes must match.
SHARD_FAULTS="seed=13;measure:transient:p=0.05;measure:permanent:p=0.01"
SHARD_FAULT_ARGS=(profile --dims 2 --stencils 20 --samples 2 --seed 7)
"$SMARTCTL" "${SHARD_FAULT_ARGS[@]}" --faults "$SHARD_FAULTS" \
  --out "$ARTDIR/fault_single.txt" | sed 's/^/  single: /'
if ! grep -q 'quarantined' <("$SMARTCTL" "${SHARD_FAULT_ARGS[@]}" --faults "$SHARD_FAULTS"); then
  echo "FAIL: fault spec quarantined nothing (gate is vacuous)" >&2
  exit 1
fi
fault_files=()
for i in 0 1 2; do
  f="$ARTDIR/fault_shard_$i.txt"
  SMART_THREADS=4 "$SMARTCTL" "${SHARD_FAULT_ARGS[@]}" --faults "$SHARD_FAULTS" \
    --shard "$i/3" --out "$f" >/dev/null
  fault_files+=("$f")
done
"$SMARTCTL" merge --out "$ARTDIR/fault_merged.txt" "${fault_files[@]}" >/dev/null
if ! cmp -s "$ARTDIR/fault_merged.txt" "$ARTDIR/fault_single.txt"; then
  echo "FAIL: fault-injected merge differs from the single-process corpus" >&2
  exit 1
fi
echo "OK: fault-injected shards merge byte-identical, quarantines in canonical order"

echo "== sharded profiling: merge validation rejects bad partitions =="
set +e
"$SMARTCTL" merge --out "$ARTDIR/merged.txt" \
  "$ARTDIR/fault_shard_0.txt" "$ARTDIR/fault_shard_1.txt" \
  >/dev/null 2>"$ARTDIR/merge_err.txt"
rc_missing=$?
"$SMARTCTL" merge --out "$ARTDIR/merged.txt" \
  "$ARTDIR/fault_shard_0.txt" "$ARTDIR/fault_shard_0.txt" \
  "$ARTDIR/fault_shard_2.txt" >/dev/null 2>"$ARTDIR/merge_err2.txt"
rc_dup=$?
"$SMARTCTL" profile --shard 3/3 >/dev/null 2>"$ARTDIR/shard_usage_err.txt"
rc_shard_usage=$?
set -e
if [[ $rc_missing -ne 1 ]] || ! grep -q '^smartctl: error: merge:.*missing shard' "$ARTDIR/merge_err.txt"; then
  echo "FAIL: incomplete partition should exit 1 with a missing-shard diagnostic" >&2
  exit 1
fi
if [[ $rc_dup -ne 1 ]] || ! grep -q '^smartctl: error: merge:.*duplicate shard' "$ARTDIR/merge_err2.txt"; then
  echo "FAIL: duplicate shard should exit 1 with a duplicate-shard diagnostic" >&2
  exit 1
fi
if [[ $rc_shard_usage -ne 2 ]]; then
  echo "FAIL: --shard 3/3 should be a usage error (rc 2, got $rc_shard_usage)" >&2
  exit 1
fi
echo "OK: incomplete/duplicate partitions exit 1 with context; bad --shard grammar exits 2"

echo "== serve daemon: response-set determinism matrix =="
# The resident daemon's reply bytes must depend only on (verb, stencil, GPU)
# and the model — never on batch composition, thread count, or arrival
# order. Run one request mix (distinct stencils, duplicates, two malformed
# lines) through every combination of --max-batch {1,8,64} x SMART_THREADS
# {1,4} with a different shuffled arrival order each time, and byte-compare
# the sorted reply sets.
SOCK="$ARTDIR/serve.sock"
HARNESS="$BUILD_DIR/tools/serve_harness"
cat > "$ARTDIR/serve_requests.txt" <<'REQS'
advise r01 shape=star dims=2 order=1 gpu=V100
advise r02 shape=star dims=2 order=2 gpu=A100
advise r03 shape=box dims=2 order=1 gpu=P100
advise r04 shape=cross dims=2 order=3 gpu=2080Ti
advise r05 offsets=0,0;0,1;1,0;0,-1;-1,0 gpu=V100
predict r06 shape=star dims=2 order=2 gpu=V100
predict r07 shape=box dims=2 order=2 gpu=A100
advise r08 shape=star dims=2 order=1 gpu=V100
predict r09 shape=cross dims=2 order=1 gpu=P100
advise r10 gpu=bad!gpu
bogus r11
advise r12 shape=star dims=2 order=2 gpu=A100
REQS

start_serve() {  # usage: start_serve THREADS [extra serve flags...]
  # Serves $SERVE_MODEL when set (the hot-reload gates point it at a live
  # copy they overwrite mid-traffic), else the reference artifact.
  local threads=$1
  shift
  rm -f "$SOCK"
  SMART_THREADS=$threads "$SMARTCTL" serve \
    --model "${SERVE_MODEL:-$ARTDIR/model.smart}" \
    --socket "$SOCK" "$@" >/dev/null 2>"$ARTDIR/serve_stderr.txt" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [[ -S "$SOCK" ]] && break
    sleep 0.05
  done
}

golden=""
for mb in 1 8 64; do
  for t in 1 4; do
    start_serve "$t" --max-batch "$mb" --max-wait-us 200
    "$HARNESS" --socket "$SOCK" --requests "$ARTDIR/serve_requests.txt" \
      --shuffle $((mb * 10 + t)) --print sorted --shutdown-after \
      > "$ARTDIR/serve_sorted.txt"
    if ! wait "$serve_pid"; then
      echo "FAIL: daemon exited non-zero after shutdown verb" >&2
      exit 1
    fi
    serve_pid=""
    if [[ -z "$golden" ]]; then
      golden="$ARTDIR/serve_golden.txt"
      cp "$ARTDIR/serve_sorted.txt" "$golden"
      echo "  reference reply set: $(wc -l < "$golden") replies (max-batch=$mb, SMART_THREADS=$t)"
    elif ! cmp -s "$ARTDIR/serve_sorted.txt" "$golden"; then
      echo "FAIL: reply set diverged at max-batch=$mb SMART_THREADS=$t" >&2
      diff "$golden" "$ARTDIR/serve_sorted.txt" >&2 || true
      exit 1
    fi
  done
done
echo "OK: reply sets byte-identical across max-batch {1,8,64} x threads {1,4} x shuffled arrival"

echo "== serve daemon: golden equivalence vs one-shot advise --model =="
# serve answers through admission batches of advise_batch plus the wire
# codec; the CLI answers each query with a one-item advise_batch and
# prints the report unescaped. Unescaped serve replies in id order must be
# byte-identical to the concatenated one-shot CLI outputs.
T_SHAPES=(star star box cross)
T_ORDERS=(1 2 1 3)
T_GPUS=(V100 A100 P100 2080Ti)
: > "$ARTDIR/text_requests.txt"
: > "$ARTDIR/cli_golden.txt"
for i in 0 1 2 3; do
  printf 'advise t%d shape=%s dims=2 order=%d gpu=%s\n' \
    "$((i + 1))" "${T_SHAPES[$i]}" "${T_ORDERS[$i]}" "${T_GPUS[$i]}" \
    >> "$ARTDIR/text_requests.txt"
  "$SMARTCTL" advise --shape "${T_SHAPES[$i]}" --dims 2 \
    --order "${T_ORDERS[$i]}" --gpu "${T_GPUS[$i]}" \
    --model "$ARTDIR/model.smart" >> "$ARTDIR/cli_golden.txt"
done
start_serve 4 --max-batch 8 --max-wait-us 200
"$HARNESS" --socket "$SOCK" --requests "$ARTDIR/text_requests.txt" \
  --shuffle 99 --print text --shutdown-after > "$ARTDIR/serve_text.txt"
if ! wait "$serve_pid"; then
  echo "FAIL: daemon exited non-zero after shutdown verb" >&2
  exit 1
fi
serve_pid=""
if ! diff "$ARTDIR/serve_text.txt" "$ARTDIR/cli_golden.txt"; then
  echo "FAIL: serve replies differ from one-shot advise --model output" >&2
  exit 1
fi
echo "OK: shuffled serve replies unescape to the exact one-shot CLI bytes"

echo "== serve daemon: reply bytes pinned across versions (golden 2-D artifact) =="
# The matrices above compare a build's reply sets with each other, so a
# formatter or parser rewrite that changed every reply alike would pass
# them. This digest was captured from the daemon at commit 381754f (the
# iostream formatters and the token-vector parser) serving the same
# requests on the golden 2-D artifact: the request mix above plus offsets=
# spellings (signs, leading zeros), predicts and error replies.
PIN_DIGEST=530fbf5437634f42646a63fb1d3d142366c8d53a6fe7342140226db42884dea2
SMART_THREADS=4 "$SMARTCTL" train --corpus "$ARTDIR/single.txt" \
  --out "$ARTDIR/golden2d.smart" >/dev/null
if [[ "$(tail -n 1 "$ARTDIR/golden2d.smart")" != "checksum 7bb481a3085b3173" ]]; then
  echo "FAIL: the golden 2-D corpus no longer trains to the golden artifact" >&2
  exit 1
fi
cp "$ARTDIR/serve_requests.txt" "$ARTDIR/pin_requests.txt"
cat >> "$ARTDIR/pin_requests.txt" <<'REQS'
advise p01 offsets=0,0;1,1;2,2;3,1;4,0 gpu=V100
advise p02 offsets=-2,-1;-2,0;-1,-1;0,0;1,0;1,1;1,2;2,-1 gpu=2080Ti
advise p03 offsets=0,0;0,1;0,2;0,3;0,4;-1,-1 gpu=P100
advise p04 offsets=-1,0;-1,1;0,0;0,2;1,0;1,1;1,3;2,2 gpu=A100
predict p05 offsets=-2,2;-1,1;0,-1;0,0;0,2;1,0;1,1;2,-1;2,0;2,1 gpu=P100
predict p06 offsets=-1,0;-1,1;0,0;0,2;1,0;1,1;1,3;2,2 gpu=A100
predict p07 offsets=+1,0;0,0;0,-01;-004,+4 gpu=V100
predict p08 shape=box dims=2 order=3 gpu=2080Ti
advise p09 offsets=0,0;1,1,1 gpu=V100
advise p10 offsets=9,9 gpu=V100
advise p11 shape=star dims=3 order=2 gpu=V100
predict p12 offsets=0,0;1,1 gpu=H100
REQS
SERVE_MODEL="$ARTDIR/golden2d.smart" start_serve 4 --max-batch 8 --max-wait-us 200
"$HARNESS" --socket "$SOCK" --requests "$ARTDIR/pin_requests.txt" \
  --shuffle 7 --print sorted --shutdown-after > "$ARTDIR/pin_sorted.txt"
if ! wait "$serve_pid"; then
  echo "FAIL: daemon exited non-zero after shutdown verb" >&2
  exit 1
fi
serve_pid=""
pin_got=$(sha256sum < "$ARTDIR/pin_sorted.txt" | cut -d' ' -f1)
echo "  $(wc -l < "$ARTDIR/pin_sorted.txt") replies, sha256 $pin_got"
if [[ "$pin_got" != "$PIN_DIGEST" ]]; then
  echo "FAIL: serve reply bytes differ from the pinned reply set" >&2
  echo "      want: $PIN_DIGEST" >&2
  exit 1
fi
echo "OK: the reply set matches the bytes pinned from an earlier build"

echo "== serve daemon: protocol fuzz (curated malformed corpus + mutants) =="
# Every curated malformed line must earn a one-line err reply carrying its
# request id; seeded mutants must each earn exactly one ok/err reply. The
# daemon must neither crash nor hang nor desynchronize, at 1 and 4 threads.
for t in 1 4; do
  start_serve "$t" --max-batch 8 --max-wait-us 200
  "$HARNESS" --socket "$SOCK" --fuzz 300 --seed $((t * 31)) --shutdown-after \
    | sed "s/^/  SMART_THREADS=$t: /"
  if ! wait "$serve_pid"; then
    echo "FAIL: daemon exited non-zero after fuzz + shutdown" >&2
    exit 1
  fi
  serve_pid=""
done
echo "OK: malformed input earns structured err replies; daemon survives fuzz"

echo "== serve daemon: shutdown semantics (stdio EOF, SIGTERM, client abort) =="
printf 'ping s1\nshutdown s2\n' \
  | "$SMARTCTL" serve --model "$ARTDIR/model.smart" --stdio \
  > "$ARTDIR/stdio_out.txt"
grep -qx 'ok s1 pong v1' "$ARTDIR/stdio_out.txt"
grep -qx 'ok s2 bye' "$ARTDIR/stdio_out.txt"
echo "  stdio session: ping answered, shutdown verb drains, rc 0"

# In stdio mode stdout is the protocol stream: with --timing 1 and
# SMART_TIMING=1 both exit reports go to stderr, so a client reading to
# EOF sees exactly one reply line per request.
printf '%s\n' 'ping k1' 'advise k2 shape=star dims=2 order=2 gpu=V100' \
  'predict k3 shape=box dims=2 order=1 gpu=A100' 'bogus k4' \
  | SMART_TIMING=1 "$SMARTCTL" serve --model "$ARTDIR/model.smart" --stdio \
    --timing 1 > "$ARTDIR/stdio_report_out.txt" 2>"$ARTDIR/stdio_report_err.txt"
stdio_lines=$(wc -l < "$ARTDIR/stdio_report_out.txt")
stdio_other=$(grep -cvE '^(ok|err) ' "$ARTDIR/stdio_report_out.txt" || true)
if [[ $stdio_lines -ne 4 ]] || [[ $stdio_other -ne 0 ]]; then
  echo "FAIL: stdio stdout must be 4 reply lines (got $stdio_lines lines, $stdio_other non-reply)" >&2
  cat "$ARTDIR/stdio_report_out.txt" >&2
  exit 1
fi
if ! grep -q -- '-- timing counters --' "$ARTDIR/stdio_report_err.txt"; then
  echo "FAIL: stdio timing reports missing from stderr" >&2
  exit 1
fi
echo "  stdio --timing: 4 requests -> 4 reply lines on stdout, reports on stderr"

start_serve 1 --max-batch 8
for _ in $(seq 1 100); do
  [[ -S "$SOCK" ]] && break
  sleep 0.05
done
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
  echo "FAIL: SIGTERM should drain in-flight work and exit 0" >&2
  exit 1
fi
serve_pid=""
echo "  SIGTERM: drained and exited rc 0"

# Client slams the connection shut (RST) without reading replies: since the
# multi-client rework this is a SESSION-LOCAL event — the daemon logs it,
# reaps the session, and MUST keep serving. A fresh client afterwards must
# get the exact golden reply set, and the final SIGTERM drains to rc 0.
start_serve 1 --max-batch 64 --max-wait-us 100000
"$HARNESS" --socket "$SOCK" --requests "$ARTDIR/serve_requests.txt" \
  --abort >/dev/null
sleep 0.2
if ! kill -0 "$serve_pid" 2>/dev/null; then
  set +e; wait "$serve_pid"; rc_abort=$?; set -e
  echo "FAIL: daemon died on client abort (rc=$rc_abort); aborts must be session-local" >&2
  cat "$ARTDIR/serve_stderr.txt" >&2
  exit 1
fi
"$HARNESS" --socket "$SOCK" --requests "$ARTDIR/serve_requests.txt" \
  --shuffle 17 --print sorted > "$ARTDIR/after_abort.txt"
if ! cmp -s "$ARTDIR/after_abort.txt" "$golden"; then
  echo "FAIL: replies to a fresh client after an abort diverged from golden" >&2
  diff "$golden" "$ARTDIR/after_abort.txt" >&2 || true
  exit 1
fi
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
  echo "FAIL: SIGTERM after a client abort should still exit 0" >&2
  exit 1
fi
serve_pid=""
echo "  client abort: session reaped, fresh client served golden bytes, rc 0"
echo "OK: shutdown verb, SIGTERM, and client abort all follow the exit contract"

echo "== serve daemon: healthz + banner report the artifact envelope =="
# The startup banner and the healthz verb must both carry the artifact's
# format version and FNV-1a payload checksum — exactly the bytes recorded
# in the artifact's own trailer — plus the model epoch.
want_ck=$(grep -ao 'checksum [0-9a-f]\{16\}' "$ARTDIR/model.smart" | tail -1 | cut -d' ' -f2)
printf 'healthz h1\nshutdown h2\n' \
  | "$SMARTCTL" serve --model "$ARTDIR/model.smart" --stdio \
  > "$ARTDIR/healthz_out.txt" 2>"$ARTDIR/healthz_err.txt"
if ! grep -qx "ok h1 healthz epoch=1 version=stencilmart-model-v1 checksum=$want_ck" \
    "$ARTDIR/healthz_out.txt"; then
  echo "FAIL: healthz payload does not match the artifact envelope" >&2
  cat "$ARTDIR/healthz_out.txt" >&2
  exit 1
fi
if ! grep -q "serve: model .* version=stencilmart-model-v1 checksum=$want_ck epoch=1" \
    "$ARTDIR/healthz_err.txt"; then
  echo "FAIL: startup banner does not report the artifact envelope" >&2
  cat "$ARTDIR/healthz_err.txt" >&2
  exit 1
fi
echo "OK: banner and healthz report version + checksum + epoch from the artifact"

echo "== serve daemon: multi-client chaos gate (16 clients, aborts, kill -9, mid-traffic reload) =="
# Second model trained on a different corpus seed: the hot-reload target.
# Reply bytes are a pure function of (verb, stencil, GPU, model epoch), so
# every reply a chaos client receives must be a member of the union of the
# two serial golden reply sets — and a post-reload client must receive the
# epoch-B golden set exactly.
"$SMARTCTL" profile --dims 2 --stencils 8 --samples 2 --seed 99 \
  --out "$ARTDIR/corpusB.txt" >/dev/null
"$SMARTCTL" train --corpus "$ARTDIR/corpusB.txt" --out "$ARTDIR/modelB.smart" >/dev/null

# Chaos request mix: 96 requests cycling 6 stencil specs (plus one
# malformed spec) under unique ids, so jittered multi-connection runs take
# long enough for the mid-traffic reload to land inside them.
C_SPECS=(
  'advise %s shape=star dims=2 order=1 gpu=V100'
  'advise %s shape=star dims=2 order=2 gpu=A100'
  'advise %s shape=box dims=2 order=1 gpu=P100'
  'predict %s shape=cross dims=2 order=3 gpu=2080Ti'
  'predict %s shape=box dims=2 order=2 gpu=V100'
  'advise %s gpu=bad!gpu'
)
: > "$ARTDIR/chaos_requests.txt"
for i in $(seq 0 95); do
  # shellcheck disable=SC2059
  printf "${C_SPECS[$((i % 6))]}\n" "$(printf 'c%03d' "$i")" \
    >> "$ARTDIR/chaos_requests.txt"
done

# Golden reply sets per epoch (serial, single connection, default threads).
SERVE_MODEL="$ARTDIR/model.smart"
start_serve 1 --max-batch 8 --max-wait-us 200
"$HARNESS" --socket "$SOCK" --requests "$ARTDIR/chaos_requests.txt" \
  --print sorted --shutdown-after > "$ARTDIR/chaos_goldenA.txt"
wait "$serve_pid"; serve_pid=""
SERVE_MODEL="$ARTDIR/modelB.smart"
start_serve 1 --max-batch 8 --max-wait-us 200
"$HARNESS" --socket "$SOCK" --requests "$ARTDIR/chaos_requests.txt" \
  --print sorted --shutdown-after > "$ARTDIR/chaos_goldenB.txt"
wait "$serve_pid"; serve_pid=""
if cmp -s "$ARTDIR/chaos_goldenA.txt" "$ARTDIR/chaos_goldenB.txt"; then
  echo "FAIL: models A and B produce identical replies (reload gate is vacuous)" >&2
  exit 1
fi
sort -u "$ARTDIR/chaos_goldenA.txt" "$ARTDIR/chaos_goldenB.txt" \
  > "$ARTDIR/chaos_union.txt"

for t in 1 4; do
  cp "$ARTDIR/model.smart" "$ARTDIR/model_live.smart"
  SERVE_MODEL="$ARTDIR/model_live.smart"
  start_serve "$t" --max-batch 8 --max-wait-us 500 --max-conns 64
  # 16 concurrent well-behaved connections (2 harness procs x 8), shuffled
  # arrival with per-line jitter so the run spans the reload...
  chaos_pids=()
  for c in 1 2; do
    "$HARNESS" --socket "$SOCK" --requests "$ARTDIR/chaos_requests.txt" \
      --shuffle $((t * 100 + c)) --connections 8 --jitter-us 8000 \
      --print sorted > "$ARTDIR/chaos_out_$c.txt" &
    chaos_pids+=($!)
  done
  # ...plus a client that RSTs mid-batch without reading replies...
  "$HARNESS" --socket "$SOCK" --requests "$ARTDIR/chaos_requests.txt" \
    --abort-after 7 >/dev/null &
  abort_pid=$!
  # ...plus a slow client that gets kill -9'd mid-conversation.
  "$HARNESS" --socket "$SOCK" --requests "$ARTDIR/chaos_requests.txt" \
    --jitter-us 20000 --print raw > /dev/null 2>&1 &
  victim_pid=$!
  sleep 0.05
  # Hot swap the artifact under the live daemon, mid-traffic. The swap is
  # an atomic rename: a plain cp over the live path races the reload
  # poller, which would (correctly) reject the half-written artifact and
  # keep serving epoch A.
  cp "$ARTDIR/modelB.smart" "$ARTDIR/model_live.smart.tmp"
  mv -f "$ARTDIR/model_live.smart.tmp" "$ARTDIR/model_live.smart"
  kill -HUP "$serve_pid"
  sleep 0.15
  kill -9 "$victim_pid" 2>/dev/null || true
  for p in "${chaos_pids[@]}"; do
    if ! wait "$p"; then
      echo "FAIL: a well-behaved chaos client failed (SMART_THREADS=$t)" >&2
      exit 1
    fi
  done
  set +e
  wait "$abort_pid" 2>/dev/null
  wait "$victim_pid" 2>/dev/null
  set -e
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "FAIL: daemon died during chaos (SMART_THREADS=$t)" >&2
    cat "$ARTDIR/serve_stderr.txt" >&2
    exit 1
  fi
  # Every surviving reply must be byte-identical to a serial golden reply
  # for ONE of the two epochs — shedding is off, so nothing else is legal.
  cat "$ARTDIR/chaos_out_1.txt" "$ARTDIR/chaos_out_2.txt" \
    > "$ARTDIR/chaos_all.txt"
  stray=$(grep -Fxv -f "$ARTDIR/chaos_union.txt" "$ARTDIR/chaos_all.txt" || true)
  if [[ -n "$stray" ]]; then
    echo "FAIL: chaos replies outside union(goldenA, goldenB) at SMART_THREADS=$t:" >&2
    echo "$stray" | head -5 >&2
    exit 1
  fi
  # The reload must take effect: wait for healthz to report epoch=2 (HUP
  # delivery is async to the clients draining; the swap itself is what is
  # under test, not its latency), then a fresh client must get the epoch-B
  # golden set exactly.
  printf 'healthz hz\n' > "$ARTDIR/hz_request.txt"
  reload_landed=""
  for _ in $(seq 1 100); do
    "$HARNESS" --socket "$SOCK" --requests "$ARTDIR/hz_request.txt" \
      --print raw > "$ARTDIR/hz_reply.txt"
    if grep -q '^ok hz healthz epoch=2 ' "$ARTDIR/hz_reply.txt"; then
      reload_landed=1
      break
    fi
    sleep 0.05
  done
  if [[ -z "$reload_landed" ]]; then
    echo "FAIL: healthz does not report epoch=2 after SIGHUP reload" >&2
    cat "$ARTDIR/hz_reply.txt" >&2
    exit 1
  fi
  "$HARNESS" --socket "$SOCK" --requests "$ARTDIR/chaos_requests.txt" \
    --shuffle $((t + 7)) --print sorted --shutdown-after \
    > "$ARTDIR/chaos_post.txt"
  if ! wait "$serve_pid"; then
    echo "FAIL: daemon exited non-zero after chaos drain (SMART_THREADS=$t)" >&2
    cat "$ARTDIR/serve_stderr.txt" >&2
    exit 1
  fi
  serve_pid=""
  if ! cmp -s "$ARTDIR/chaos_post.txt" "$ARTDIR/chaos_goldenB.txt"; then
    echo "FAIL: post-reload replies differ from the epoch-B golden set" >&2
    diff "$ARTDIR/chaos_goldenB.txt" "$ARTDIR/chaos_post.txt" >&2 || true
    exit 1
  fi
  echo "  SMART_THREADS=$t: 16 conns + abort + kill -9 + SIGHUP reload -> replies in union, post-reload == goldenB, rc 0"
done
unset SERVE_MODEL
echo "OK: chaos survivors byte-identical per answering epoch; daemon drains to rc 0"

echo "== serve daemon: overload shedding gate (tiny --max-queue) =="
# 600 requests flood a queue bounded at 2: most must be shed with the fixed
# structured busy reply, every served reply must still be a golden epoch-A
# byte pattern (ids normalized), stats must count the sheds, and the
# daemon's RSS must stay bounded (no hidden buffering).
: > "$ARTDIR/overload_requests.txt"
for i in $(seq 0 599); do
  # shellcheck disable=SC2059
  printf "${C_SPECS[$((i % 6))]}\n" "$(printf 'o%03d' "$i")" \
    >> "$ARTDIR/overload_requests.txt"
done
start_serve 1 --max-batch 1 --max-wait-us 0 --max-queue 2
"$HARNESS" --socket "$SOCK" --requests "$ARTDIR/overload_requests.txt" \
  --print sorted > "$ARTDIR/overload_replies.txt"
if ! kill -0 "$serve_pid" 2>/dev/null; then
  echo "FAIL: daemon died under overload" >&2
  cat "$ARTDIR/serve_stderr.txt" >&2
  exit 1
fi
rss_kb=$(awk '/^VmRSS:/ { print $2 }' "/proc/$serve_pid/status")
if (( rss_kb > 524288 )); then
  echo "FAIL: daemon RSS ${rss_kb}kB under overload (unbounded buffering?)" >&2
  exit 1
fi
busy_count=$(grep -c 'busy (admission queue full)$' "$ARTDIR/overload_replies.txt" || true)
ok_count=$(grep -c '^ok ' "$ARTDIR/overload_replies.txt" || true)
total_replies=$(wc -l < "$ARTDIR/overload_replies.txt")
echo "  replies: $total_replies total, $ok_count served, $busy_count shed busy, RSS ${rss_kb}kB"
if [[ "$total_replies" -ne 600 ]]; then
  echo "FAIL: expected exactly one reply per request (got $total_replies/600)" >&2
  exit 1
fi
if (( busy_count < 1 )) || (( ok_count < 1 )); then
  echo "FAIL: overload gate needs both served and shed replies to be non-vacuous" >&2
  exit 1
fi
# Normalize ids to '-' on both sides (sed keeps the payload bytes intact):
# every non-shed reply must be a golden epoch-A byte pattern; every shed
# reply must be the fixed busy string.
sed -E 's/^(ok|err) [^ ]+ /\1 - /' "$ARTDIR/chaos_goldenA.txt" | sort -u \
  > "$ARTDIR/overload_allowed.txt"
echo "err - busy (admission queue full)" >> "$ARTDIR/overload_allowed.txt"
sort -u -o "$ARTDIR/overload_allowed.txt" "$ARTDIR/overload_allowed.txt"
stray=$(sed -E 's/^(ok|err) [^ ]+ /\1 - /' "$ARTDIR/overload_replies.txt" \
  | grep -Fxv -f "$ARTDIR/overload_allowed.txt" || true)
if [[ -n "$stray" ]]; then
  echo "FAIL: overload replies outside the golden + busy set:" >&2
  echo "$stray" | head -5 >&2
  exit 1
fi
# stats must account for the sheds.
printf 'stats sx\n' > "$ARTDIR/stats_request.txt"
"$HARNESS" --socket "$SOCK" --requests "$ARTDIR/stats_request.txt" \
  --print raw > "$ARTDIR/stats_reply.txt"
if ! grep -Eq 'shed_busy=[1-9][0-9]*' "$ARTDIR/stats_reply.txt"; then
  echo "FAIL: stats does not report the busy sheds" >&2
  cat "$ARTDIR/stats_reply.txt" >&2
  exit 1
fi
"$HARNESS" --socket "$SOCK" --requests "$ARTDIR/hz_request.txt" \
  --print raw --shutdown-after >/dev/null
if ! wait "$serve_pid"; then
  echo "FAIL: daemon exited non-zero after the overload drain" >&2
  exit 1
fi
serve_pid=""
echo "OK: overload shed with structured busy errors; served bytes golden; RSS bounded"

echo "== sanitizer build (ASan+UBSan) over the unit suite =="
ASAN_DIR=${ASAN_BUILD_DIR:-build-asan}
cmake -B "$ASAN_DIR" -S . -DSMART_SANITIZE=ON >/dev/null
cmake --build "$ASAN_DIR" -j"$(nproc)" --target smart_tests smartctl serve_harness
(cd "$ASAN_DIR" && UBSAN_OPTIONS=halt_on_error=1 ctest --output-on-failure -j"$(nproc)" -L unit)
# The unit label already runs each SIMD kernel test sanitized in its own
# process; run the suite once more in one process, so what the kernels
# share across calls (the task pool's workers) is checked sanitized too.
echo "  sanitized equivalence pass"
UBSAN_OPTIONS=halt_on_error=1 "$ASAN_DIR/tests/smart_tests" \
  --gtest_brief=1 \
  --gtest_filter='SimdKernels.*' | sed 's/^/    /'
echo "OK: unit suite clean under AddressSanitizer + UBSan"

echo "== sanitized serve daemon vs the fuzz corpus =="
# The same black-box fuzz, but the daemon itself runs under ASan+UBSan:
# any parser over-read or lifetime bug in the batching path aborts the run.
rm -f "$SOCK"
UBSAN_OPTIONS=halt_on_error=1 "$ASAN_DIR/tools/smartctl" serve \
  --model "$ARTDIR/model.smart" --socket "$SOCK" \
  >/dev/null 2>"$ARTDIR/serve_stderr.txt" &
serve_pid=$!
"$ASAN_DIR/tools/serve_harness" --socket "$SOCK" --fuzz 200 --seed 9 \
  --connections 4 --shutdown-after | sed 's/^/  /'
if ! wait "$serve_pid"; then
  echo "FAIL: sanitized daemon exited non-zero (see $ARTDIR/serve_stderr.txt)" >&2
  cat "$ARTDIR/serve_stderr.txt" >&2
  exit 1
fi
serve_pid=""
echo "OK: sanitized daemon survived the malformed corpus and mutants over 4 connections"

echo "== ThreadSanitizer build over the concurrent serve path =="
# A TSan-instrumented daemon runs a compressed chaos leg: 8 concurrent
# jittered connections with a SIGHUP hot reload mid-traffic, then a full
# drain. Any data race in the session/batcher/reload interplay aborts the
# run (halt_on_error=1); replies must still land inside the two-epoch
# union, and the post-reload set must equal the epoch-B golden set.
TSAN_DIR=${TSAN_BUILD_DIR:-build-tsan}
cmake -B "$TSAN_DIR" -S . -DSMART_SANITIZE=thread >/dev/null
cmake --build "$TSAN_DIR" -j"$(nproc)" --target smartctl serve_harness
rm -f "$SOCK"
cp "$ARTDIR/model.smart" "$ARTDIR/model_live.smart"
TSAN_OPTIONS=halt_on_error=1 "$TSAN_DIR/tools/smartctl" serve \
  --model "$ARTDIR/model_live.smart" --socket "$SOCK" \
  --max-batch 8 --max-wait-us 500 --max-conns 32 \
  >/dev/null 2>"$ARTDIR/serve_stderr.txt" &
serve_pid=$!
for _ in $(seq 1 100); do
  [[ -S "$SOCK" ]] && break
  sleep 0.05
done
"$TSAN_DIR/tools/serve_harness" --socket "$SOCK" \
  --requests "$ARTDIR/chaos_requests.txt" --shuffle 3 --connections 8 \
  --jitter-us 8000 --print sorted > "$ARTDIR/tsan_out.txt" &
tsan_client=$!
sleep 0.05
cp "$ARTDIR/modelB.smart" "$ARTDIR/model_live.smart.tmp"
mv -f "$ARTDIR/model_live.smart.tmp" "$ARTDIR/model_live.smart"  # atomic swap
kill -HUP "$serve_pid"
if ! wait "$tsan_client"; then
  echo "FAIL: chaos client against the TSan daemon failed" >&2
  cat "$ARTDIR/serve_stderr.txt" >&2
  exit 1
fi
stray=$(grep -Fxv -f "$ARTDIR/chaos_union.txt" "$ARTDIR/tsan_out.txt" || true)
if [[ -n "$stray" ]]; then
  echo "FAIL: TSan daemon replies outside union(goldenA, goldenB):" >&2
  echo "$stray" | head -5 >&2
  exit 1
fi
# Wait for the reload to land (TSan stretches HUP-to-swap latency) before
# demanding the epoch-B golden set.
printf 'healthz hz\n' > "$ARTDIR/hz_request.txt"
reload_landed=""
for _ in $(seq 1 100); do
  "$TSAN_DIR/tools/serve_harness" --socket "$SOCK" \
    --requests "$ARTDIR/hz_request.txt" --print raw > "$ARTDIR/hz_reply.txt"
  if grep -q '^ok hz healthz epoch=2 ' "$ARTDIR/hz_reply.txt"; then
    reload_landed=1
    break
  fi
  sleep 0.05
done
if [[ -z "$reload_landed" ]]; then
  echo "FAIL: TSan daemon never reached epoch=2 after SIGHUP" >&2
  cat "$ARTDIR/hz_reply.txt" "$ARTDIR/serve_stderr.txt" >&2
  exit 1
fi
"$TSAN_DIR/tools/serve_harness" --socket "$SOCK" \
  --requests "$ARTDIR/chaos_requests.txt" --shuffle 11 --print sorted \
  --shutdown-after > "$ARTDIR/tsan_post.txt"
if ! wait "$serve_pid"; then
  echo "FAIL: TSan daemon exited non-zero (data race or drain failure)" >&2
  cat "$ARTDIR/serve_stderr.txt" >&2
  exit 1
fi
serve_pid=""
if ! cmp -s "$ARTDIR/tsan_post.txt" "$ARTDIR/chaos_goldenB.txt"; then
  echo "FAIL: TSan daemon post-reload replies differ from the epoch-B golden set" >&2
  diff "$ARTDIR/chaos_goldenB.txt" "$ARTDIR/tsan_post.txt" >&2 || true
  exit 1
fi
echo "OK: TSan daemon raced 8 jittered connections through a hot reload cleanly"

echo "== ThreadSanitizer build over the concurrent model fits =="
# `train` fits the regressor and the per-GPU classifiers side by side on
# the task pool; any data race between the fits aborts the run, and the
# sanitized artifact must equal the plain build's bytes.
"$SMARTCTL" profile --dims 2 --stencils 100 --samples 2 --seed 5 \
  --out "$ARTDIR/tsan_corpus.txt" >/dev/null
SMART_THREADS=4 "$SMARTCTL" train --corpus "$ARTDIR/tsan_corpus.txt" \
  --out "$ARTDIR/tsan_plain.smart" >/dev/null
if ! TSAN_OPTIONS=halt_on_error=1 SMART_THREADS=4 "$TSAN_DIR/tools/smartctl" \
     train --corpus "$ARTDIR/tsan_corpus.txt" --out "$ARTDIR/tsan_train.smart" \
     >/dev/null 2>"$ARTDIR/tsan_train_err.txt"; then
  echo "FAIL: TSan train exited non-zero (data race between the fits?)" >&2
  cat "$ARTDIR/tsan_train_err.txt" >&2
  exit 1
fi
if ! cmp -s "$ARTDIR/tsan_train.smart" "$ARTDIR/tsan_plain.smart"; then
  echo "FAIL: TSan-trained artifact differs from the plain build's" >&2
  exit 1
fi
echo "OK: concurrent fits ran clean under TSan at SMART_THREADS=4, same bytes"
