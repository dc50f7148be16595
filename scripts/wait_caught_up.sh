#!/usr/bin/env bash
# wait_caught_up.sh ADDR
#
# Polls the follower at ADDR with `siasload -stats-only` (the binary the CI
# jobs build at /tmp/siasload) until every shard has applied the primary's
# whole durable log: lag_bytes 0 and applied_lsn > 0. Polls 100 times, 0.2 s
# apart. Exits 0 once caught up, printing the applied LSNs; exits 1 with the
# last replication stats otherwise. The last STATS reply stays in
# /tmp/caught-up.json (removed first, so a stale one never counts) for the
# caller's own assertions.
set -u
addr=${1:?usage: wait_caught_up.sh ADDR}
out=/tmp/caught-up.json
rm -f "$out"
check="import json,sys; r=json.load(open('$out'))['repl']; ok=all(s['lag_bytes']==0 and s['applied_lsn']>0 for s in r['shards'])"

for _ in $(seq 1 100); do
  if /tmp/siasload -addr "$addr" -stats-only -json "$out" >/dev/null &&
     python3 -c "$check; sys.exit(0 if ok else 1)"; then
    python3 -c "$check; print('follower $addr caught up:', [s['applied_lsn'] for s in r['shards']])"
    exit 0
  fi
  sleep 0.2
done
python3 -c "$check; print('follower $addr not caught up:', r)" >&2 || true
exit 1
