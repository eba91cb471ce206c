#!/usr/bin/env bash
# Loopback smoke for daemon mode: build race-enabled binaries, start
# squirreld, drive it end to end with ONE squirrelctl invocation
# (telemetry runs the full scenario, so one run covers register, boot,
# health drama, and telemetry scrape — a second run against the same
# long-lived daemon would hit ErrRegistered by design), then SIGTERM
# and assert a clean drain. The TWatch stream over the wire is pinned
# by squirrelctl's daemon-mode watch golden test instead.
set -euo pipefail

cd "$(dirname "$0")/.."
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT

go build -race -o "$bin/squirreld" ./cmd/squirreld
go build -race -o "$bin/squirrelctl" ./cmd/squirrelctl

"$bin/squirreld" -version
"$bin/squirrelctl" version

# Bind an ephemeral port — ask the kernel with :0, then parse the bound
# address out of the daemon's "listening on" log line. A fixed port
# would collide with a concurrent run (or anything else) on a shared CI
# host.
log="$bin/squirreld.log"
"$bin/squirreld" -addr 127.0.0.1:0 -peers -traced -metrics-addr 127.0.0.1:0 2>"$log" &
daemon=$!
trap 'rm -rf "$bin"; kill "$daemon" 2>/dev/null || true' EXIT

# Two listeners log their bound addresses: the control plane's
# "listening on" line and the HTTP surface's "metrics listening on".
addr= maddr=
for _ in $(seq 100); do
  addr="$(sed -n '/metrics listening/!s/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$log" | head -n1)"
  maddr="$(sed -n 's/.*metrics listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$log" | head -n1)"
  [ -n "$addr" ] && [ -n "$maddr" ] && break
  kill -0 "$daemon" 2>/dev/null || { echo "squirreld died before listening:"; cat "$log"; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "no 'listening on' line in squirreld log:"; cat "$log"; exit 1; }
[ -n "$maddr" ] || { echo "no 'metrics listening on' line in squirreld log:"; cat "$log"; exit 1; }
echo "squirreld bound $addr (metrics $maddr)"

out="$("$bin/squirrelctl" telemetry -addr "$addr" -vms 2)"
echo "$out"
grep -q 'registering ' <<<"$out"
grep -q 'boots done' <<<"$out"
grep -q 'health drama' <<<"$out"
grep -q 'squirrel_' <<<"$out"  # Prometheus export made it across the wire

# The live HTTP surface serves real counters: the boots the run just
# drove must be visible to a plain scrape.
metrics="$(curl -fsS "http://$maddr/metrics")"
grep -q '^squirrel_op_total{kind="boot"} [1-9]' <<<"$metrics" || {
  echo "metrics scrape missing boot counter:"; echo "$metrics" | head -20; exit 1; }
curl -fsS "http://$maddr/telemetry" | python3 -c 'import json,sys; d=json.load(sys.stdin); assert any(o["kind"]=="boot" and o["count"]>=1 for o in d["ops"]), d["ops"]'
echo "metrics scrape OK: boot counter live on /metrics and /telemetry"

# Exit-code fidelity over the wire: nothing listens on this port → 6.
set +e
"$bin/squirrelctl" run -addr 127.0.0.1:1 -vms 1 >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 6 ] || { echo "expected exit 6 for connect failure, got $code"; exit 1; }

kill -TERM "$daemon"
wait "$daemon"
echo "daemon smoke OK: clean SIGTERM drain"
