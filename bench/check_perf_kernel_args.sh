#!/bin/sh
# Usage: check_perf_kernel_args.sh PERF_KERNEL
# Runs PERF_KERNEL with arguments it must reject, each in an empty
# directory, and fails unless every run exits 2 and leaves the
# directory empty.
set -u
bin="$1"
status=0
for args in "--help" "--bogus" "--quick --unknown" "--out"; do
    dir="$(mktemp -d)"
    # shellcheck disable=SC2086
    (cd "$dir" && "$bin" $args >/dev/null 2>&1)
    rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "perf_kernel $args: exit $rc, want 2"
        status=1
    fi
    if [ -n "$(ls -A "$dir")" ]; then
        echo "perf_kernel $args: wrote $(ls -A "$dir")"
        status=1
    fi
    rm -rf "$dir"
done
exit "$status"
