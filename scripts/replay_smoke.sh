#!/usr/bin/env bash
# Export-then-replay smoke for the telemetry dataset directory: a cooled
# 2 h raps run writes its dataset with -export-dir, and a second run
# replays it with -replay-dir. The replay must load the dataset and
# complete the same jobs the capture completed. This is the end-to-end
# path through Dataset.Save and telemetry.Load. Wired into
# `make replay-smoke` and CI's test job.
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "--- capture ---" >&2; cat "$TMP/capture.log" >&2 || true
  echo "--- replay ---" >&2; cat "$TMP/replay.log" >&2 || true
  exit 1
}

completed() { sed -n 's/^jobs completed *\([0-9][0-9]*\)$/\1/p' "$1"; }

go build -o "$TMP/raps" ./cmd/raps
"$TMP/raps" -cooling -horizon 2h -export-dir "$TMP/day" > "$TMP/capture.log" 2>&1 ||
  fail "capture run exited non-zero"
exported=$(sed -n 's/^telemetry written to .* (\([0-9][0-9]*\) jobs, .*/\1/p' "$TMP/capture.log")
[ -n "$exported" ] && [ "$exported" -gt 0 ] || fail "capture exported no jobs"

"$TMP/raps" -workload replay -horizon 2h -replay-dir "$TMP/day" > "$TMP/replay.log" 2>&1 ||
  fail "replay run exited non-zero"
want=$(completed "$TMP/capture.log")
got=$(completed "$TMP/replay.log")
[ -n "$want" ] && [ "$want" -gt 0 ] || fail "capture completed no jobs"
[ "$got" = "$want" ] || fail "replay completed ${got:-?} jobs, capture completed $want"
echo "replay-smoke: OK (exported $exported jobs; capture and replay each completed $want)"
