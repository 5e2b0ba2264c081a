# lib.sh — shared helpers for the smoke scripts. POSIX sh; source it:
#
#   . "$(dirname "$0")/lib.sh"
#
# Replaces the per-script sleep-and-hope polling loops with bounded
# waits that treat connection-refused during server start as the
# normal, retryable condition it is.

# wait_file FILE [TIMEOUT_S]
# Waits (up to TIMEOUT_S, default 10) for FILE to exist and be
# non-empty. Returns 1 on timeout.
wait_file() {
    _wf_file="$1"
    _wf_deadline=$(( $(date +%s) + ${2:-10} ))
    while [ ! -s "$_wf_file" ]; do
        if [ "$(date +%s)" -ge "$_wf_deadline" ]; then
            echo "wait_file: $_wf_file still missing after ${2:-10}s" >&2
            return 1
        fi
        sleep 0.05
    done
}

# wait_healthz BASE_URL [TIMEOUT_S]
# Polls BASE_URL/healthz (up to TIMEOUT_S, default 15) until it
# answers 200, with doubling backoff from 50ms. Connection refused —
# the daemon has the socket but not the handler yet, or the process
# is still booting — is retryable, not fatal. Returns 1 on timeout.
wait_healthz() {
    _wh_url="$1/healthz"
    _wh_deadline=$(( $(date +%s) + ${2:-15} ))
    _wh_backoff="0.05"
    while ! curl -sf -m 2 "$_wh_url" >/dev/null 2>&1; do
        if [ "$(date +%s)" -ge "$_wh_deadline" ]; then
            echo "wait_healthz: $_wh_url not healthy after ${2:-15}s" >&2
            return 1
        fi
        sleep "$_wh_backoff"
        case "$_wh_backoff" in
        0.05) _wh_backoff="0.1" ;;
        0.1) _wh_backoff="0.2" ;;
        0.2) _wh_backoff="0.4" ;;
        *) _wh_backoff="0.8" ;;
        esac
    done
}

# check_families FILE
# Fails if a metric family in the Prometheus text FILE is split: once a
# different family's lines start, the earlier family must not reappear
# (histogram _bucket/_sum/_count samples belong to their family).
check_families() {
    awk '
        /^# (HELP|TYPE) / { fam = $3; if ($2 == "TYPE") kind[fam] = $4 }
        /^#/ && !/^# (HELP|TYPE) / { next }
        !/^#/ && NF {
            fam = $1; sub(/[{].*/, "", fam)
            base = fam
            if (sub(/_(bucket|sum|count)$/, "", base) && kind[base] == "histogram") fam = base
        }
        NF && fam != cur {
            if (fam in done) { printf "metric family %s reappears after %s\n", fam, cur; bad = 1; exit }
            if (cur != "") done[cur] = 1
            cur = fam
        }
        END { exit bad }
    ' "$1"
}
