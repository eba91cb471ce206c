#!/usr/bin/env bash
# Loopback smoke for daemon mode: build race-enabled binaries, start
# squirreld, drive it end to end with ONE squirrelctl invocation
# (telemetry runs the full scenario, so one run covers register, boot,
# health drama, and telemetry scrape — a second run against the same
# long-lived daemon would hit ErrRegistered by design), then SIGTERM
# and assert a clean drain. A second daemon serves one `squirrelctl
# watch` run (watch also runs the full scenario, so it needs images
# nobody registered yet): the TWatch stream's frames and the scenario's
# unary replies share one connection and are read by the calls waiting
# on it, across two processes (squirrelctl's daemon-mode watch golden
# pins the same in one process). A third daemon runs the gossip index
# with its round ticker on, and one `squirrelctl peers` run must see
# rounds advance and a cold boot served entirely by peers.
set -euo pipefail

cd "$(dirname "$0")/.."
bin="$(mktemp -d)"
pids=()
trap 'rm -rf "$bin"; kill "${pids[@]}" 2>/dev/null || true' EXIT

go build -race -o "$bin/squirreld" ./cmd/squirreld
go build -race -o "$bin/squirrelctl" ./cmd/squirrelctl

"$bin/squirreld" -version
"$bin/squirrelctl" version

# Bind ephemeral ports — ask the kernel with :0, then parse the bound
# address out of the daemon's log. A fixed port would collide with a
# concurrent run (or anything else) on a shared CI host.
#
# logged_addr LOG PID PATTERN prints the 127.0.0.1:port that PATTERN's
# sed expression extracts from LOG, waiting for PID to log it.
logged_addr() {
  local log=$1 pid=$2 expr=$3 a=
  for _ in $(seq 100); do
    a="$(sed -n "$expr" "$log" | head -n1)"
    [ -n "$a" ] && { echo "$a"; return; }
    kill -0 "$pid" 2>/dev/null || { echo "squirreld died before listening:" >&2; cat "$log" >&2; return 1; }
    sleep 0.1
  done
  echo "no listening line in squirreld log:" >&2; cat "$log" >&2; return 1
}
ctl_expr='/metrics listening/!s/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p'

log="$bin/squirreld.log"
"$bin/squirreld" -addr 127.0.0.1:0 -peers -traced -metrics-addr 127.0.0.1:0 2>"$log" &
daemon=$!
pids+=("$daemon")

# Two listeners log their bound addresses: the control plane's
# "listening on" line and the HTTP surface's "metrics listening on".
addr="$(logged_addr "$log" "$daemon" "$ctl_expr")"
maddr="$(logged_addr "$log" "$daemon" 's/.*metrics listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p')"
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

# A fresh daemon for the watch run: its scenario registers every image.
wlog="$bin/squirreld-watch.log"
"$bin/squirreld" -addr 127.0.0.1:0 -traced 2>"$wlog" &
wdaemon=$!
pids+=("$wdaemon")
waddr="$(logged_addr "$wlog" "$wdaemon" "$ctl_expr")"
echo "watch squirreld bound $waddr"
wout="$("$bin/squirrelctl" watch -addr "$waddr" -n 2 -interval 10ms)"
echo "$wout"
grep -q 'boots done' <<<"$wout"
[ "$(grep -c '^watch #' <<<"$wout")" -eq 2 ] || { echo "watch did not stream 2 updates"; exit 1; }

# The gossip daemon's ticker runs rounds (the only thing that ages a
# lease) while the scenario registers and boots; live holders re-lease
# every round, so the cold boot still reads nothing from the PFS.
glog="$bin/squirreld-gossip.log"
"$bin/squirreld" -addr 127.0.0.1:0 -index gossip -gossip-interval 20ms 2>"$glog" &
gdaemon=$!
pids+=("$gdaemon")
gaddr="$(logged_addr "$glog" "$gdaemon" "$ctl_expr")"
echo "gossip squirreld bound $gaddr"
gout="$("$bin/squirrelctl" peers -addr "$gaddr")"
echo "$gout"
grep -q 'index source: gossip (round [1-9]' <<<"$gout" || { echo "gossip daemon ran no rounds"; exit 1; }
grep -q 'COLD (0 PFS bytes' <<<"$gout" || { echo "gossip cold boot not peer-served"; exit 1; }

kill -TERM "$daemon" "$wdaemon" "$gdaemon"
wait "$daemon"
wait "$wdaemon"
wait "$gdaemon"
echo "daemon smoke OK: clean SIGTERM drain"
