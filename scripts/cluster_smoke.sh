#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke test of the sharded dvfsd cluster
# (DESIGN.md §12).
#
# Boots a 3-node ring with durable fs job stores and asserts:
#   1. a submission to a NON-owner node is forwarded to the key's ring
#      owner (job ID carries the owner's prefix; /metrics counts the
#      out/in forward pair) and the served strategy is byte-identical
#      to the cmd/dvfs-run batch path,
#   2. cache locality: a ring-aware resubmission (dvfsctl -ring) goes
#      straight to the owner and hits its strategy cache,
#   3. crash recovery: SIGKILL the owner mid-search, restart it over
#      the same store directory, and every acknowledged job still
#      reaches done — including jobs that never got to run,
#   4. ring-routed submissions after the restart finish done on their
#      owners, and a repeat is served from its owner's cache.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT

fail() { echo "cluster-smoke: FAIL: $*" >&2; exit 1; }

echo "cluster-smoke: building dvfsd, dvfsctl, dvfs-run, freeports"
go build -o "$tmp/dvfsd" ./cmd/dvfsd
go build -o "$tmp/dvfsctl" ./cmd/dvfsctl
go build -o "$tmp/dvfs-run" ./cmd/dvfs-run
go build -o "$tmp/freeports" ./scripts/freeports

echo "cluster-smoke: batch reference run (also saves the model bundle)"
"$tmp/dvfs-run" -model resnet50 -pop 16 -gens 8 -seed 7 \
    -save-models "$tmp/models.json" -save-strategy "$tmp/batch.json" -no-measure >/dev/null

# The ring file must exist before any daemon boots, so node addresses
# are fixed up front instead of dvfsd's usual port-0 + addr-file dance.
ports=($("$tmp/freeports" 3))
ring="$tmp/ring.json"
cat >"$ring" <<EOF
{
 "version": 1,
 "vnodes": 64,
 "nodes": [
  {"id": "n1", "addr": "http://127.0.0.1:${ports[0]}"},
  {"id": "n2", "addr": "http://127.0.0.1:${ports[1]}"},
  {"id": "n3", "addr": "http://127.0.0.1:${ports[2]}"}
 ]
}
EOF

# addr_of ID -> http URL from the ring file.
addr_of() { grep -o "\"id\": \"$1\", \"addr\": \"[^\"]*\"" "$ring" | sed 's/.*"addr": "//;s/"//'; }

start_node() { # start_node ID PORT
    "$tmp/dvfsd" -addr "127.0.0.1:$2" -workers 1 -ring "$ring" -node-id "$1" \
        -store "$tmp/store-$1" -load-models "$tmp/models.json" \
        >>"$tmp/$1.log" 2>&1 &
    pids="$pids $!"
    eval "pid_$1=$!"
}

wait_healthy() { # wait_healthy ID
    local url; url=$(addr_of "$1")
    for _ in $(seq 1 100); do
        "$tmp/dvfsctl" -addr "$url" metrics >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    cat "$tmp/$1.log" >&2
    fail "node $1 at $url never became healthy"
}

echo "cluster-smoke: starting 3 nodes"
start_node n1 "${ports[0]}"
start_node n2 "${ports[1]}"
start_node n3 "${ports[2]}"
for n in n1 n2 n3; do wait_healthy "$n"; done

echo "cluster-smoke: cluster endpoint sees all 3 members"
members=$("$tmp/dvfsctl" -addr "$(addr_of n1)" cluster | grep -c '"id": "n[123]"')
[ "$members" -eq 3 ] || fail "/v1/cluster reports $members members, want 3"

# Find the ring owner of the reference request, then deliberately
# submit through a different node to exercise the proxy path.
owner=$("$tmp/dvfsctl" -ring "$ring" owner -workload resnet50 -pop 16 -gens 8 -seed 7 \
    | sed -n 's/^owner: \(n[0-9]*\) .*/\1/p')
[ -n "$owner" ] || fail "dvfsctl owner printed no owner"
nonowner=$(printf 'n1\nn2\nn3\n' | grep -v "^$owner\$" | head -1)
echo "cluster-smoke: key owner is $owner; submitting via non-owner $nonowner"

submit_out=$("$tmp/dvfsctl" -addr "$(addr_of "$nonowner")" submit \
    -workload resnet50 -pop 16 -gens 8 -seed 7 -save "$tmp/served.json")
job_id=$(echo "$submit_out" | sed -n 's/^job \([^:]*\):.*/\1/p' | head -1)
case "$job_id" in
"$owner"-*) ;;
*) fail "job ID $job_id does not carry owner prefix $owner-" ;;
esac

diff -u "$tmp/batch.json" "$tmp/served.json" \
    || fail "strategy served through the cluster differs from the batch path"
echo "cluster-smoke: forwarded job $job_id matches the batch path byte-for-byte"

# forwards_of ID DIRECTION -> counter value (0 when never emitted).
# Submission and every status poll each count one forward, so the
# assertions compare values, not exact counts.
forwards_of() {
    "$tmp/dvfsctl" -addr "$(addr_of "$1")" metrics \
        | sed -n "s/^dvfsd_cluster_forwards_total{direction=\"$2\"} //p" | grep . || echo 0
}
out_before=$(forwards_of "$nonowner" out)
[ "$out_before" -ge 1 ] || fail "non-owner $nonowner does not count the outbound forward"
[ "$(forwards_of "$owner" in)" -ge 1 ] || fail "owner $owner does not count the inbound forward"

echo "cluster-smoke: ring-aware resubmission must hit the owner's cache"
resubmit=$("$tmp/dvfsctl" -ring "$ring" submit -workload resnet50 -pop 16 -gens 8 -seed 7)
echo "$resubmit" | grep -q 'served from cache' \
    || fail "ring-aware resubmission missed the cache:"$'\n'"$resubmit"
"$tmp/dvfsctl" -addr "$(addr_of "$owner")" metrics \
    | grep -q 'dvfsd_cache_hits_total 1' \
    || fail "owner $owner does not count the cache hit"
# Direct-to-owner submission: the non-owner's forward counter must not
# have moved again.
[ "$(forwards_of "$nonowner" out)" -eq "$out_before" ] \
    || fail "ring-aware submit went through $nonowner instead of straight to the owner"

# --- crash recovery -------------------------------------------------
# Two slow searches submitted straight to the owner (workers=1, so the
# second is still queued), then SIGKILL: no drain, no store close. The
# restarted daemon must finish both from its store. The seeds are
# chosen so $owner owns both keys — a seed owned elsewhere would be
# proxied away and run on a node we never kill.
slow_pop=1000 slow_gens=30000
slow_seeds=()
for seed in $(seq 100 160); do
    o=$("$tmp/dvfsctl" -ring "$ring" owner -workload resnet50 \
        -pop "$slow_pop" -gens "$slow_gens" -seed "$seed" \
        | sed -n 's/^owner: \(n[0-9]*\) .*/\1/p')
    [ "$o" = "$owner" ] && slow_seeds+=("$seed")
    [ "${#slow_seeds[@]}" -eq 2 ] && break
done
[ "${#slow_seeds[@]}" -eq 2 ] || fail "found no 2 seeds owned by $owner in 100..160"

echo "cluster-smoke: submitting 2 slow jobs (seeds ${slow_seeds[*]}) to $owner, then SIGKILL"
slow_a=$("$tmp/dvfsctl" -addr "$(addr_of "$owner")" submit -workload resnet50 \
    -pop "$slow_pop" -gens "$slow_gens" -seed "${slow_seeds[0]}" -wait=false \
    | sed -n 's/^job \([^:]*\):.*/\1/p')
slow_b=$("$tmp/dvfsctl" -addr "$(addr_of "$owner")" submit -workload resnet50 \
    -pop "$slow_pop" -gens "$slow_gens" -seed "${slow_seeds[1]}" -wait=false \
    | sed -n 's/^job \([^:]*\):.*/\1/p')
[ -n "$slow_a" ] && [ -n "$slow_b" ] || fail "slow submissions were not acknowledged"
sleep 1 # let the first search start and persist its running record

eval "victim=\$pid_$owner"
kill -KILL "$victim"
wait "$victim" 2>/dev/null || true
owner_port=$(addr_of "$owner" | sed 's/.*://')

echo "cluster-smoke: restarting $owner over the same store"
start_node "$owner" "$owner_port"
wait_healthy "$owner"

"$tmp/dvfsctl" -addr "$(addr_of "$owner")" metrics \
    | grep -q 'dvfsd_store_recovered_jobs [12]' \
    || fail "restarted $owner recovered no jobs from its store"

wait_done() { # wait_done JOB_ID
    for _ in $(seq 1 300); do
        state=$("$tmp/dvfsctl" -addr "$(addr_of "$owner")" status "$1" \
            | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
        case "$state" in
        done) return 0 ;;
        failed | cancelled) fail "recovered job $1 finished $state" ;;
        esac
        sleep 0.2
    done
    fail "recovered job $1 never finished"
}
wait_done "$slow_a"
wait_done "$slow_b"
echo "cluster-smoke: both interrupted jobs recovered to done"

# The pre-crash terminal record survived too: same job ID, same bytes.
# This relies on the store's retention bound, not on luck: each node
# keeps server.Retention(workers=1, queue=16) = 66 records and evicts
# terminal ones oldest-first, and $owner has written 4 so far ($job_id,
# the cache-hit resubmission, the two slow jobs). Anything that writes
# more than 62 further records through $owner — a cache hit writes a
# job record too — has to come after this.
"$tmp/dvfsctl" -addr "$(addr_of "$owner")" fetch -save "$tmp/refetched.json" "$job_id"
diff -u "$tmp/batch.json" "$tmp/refetched.json" \
    || fail "terminal record's strategy changed across the crash"
echo "cluster-smoke: pre-crash result still served byte-identically"

echo "cluster-smoke: ring-routed submissions (fresh seeds, then a repeat)"
# dvfsctl submit waits for the job and exits non-zero unless it is done.
for seed in 201 202 203 204 205; do
    out=$("$tmp/dvfsctl" -ring "$ring" submit -workload resnet50 -pop 16 -gens 8 -seed "$seed") \
        || fail "ring-routed submit of seed $seed failed:"$'\n'"$out"
done
repeat=$("$tmp/dvfsctl" -ring "$ring" submit -workload resnet50 -pop 16 -gens 8 -seed 205) \
    || fail "ring-routed repeat failed:"$'\n'"$repeat"
echo "$repeat" | grep -q 'served from cache' \
    || fail "ring-routed repeat missed its owner's cache:"$'\n'"$repeat"

echo "cluster-smoke: PASS"
