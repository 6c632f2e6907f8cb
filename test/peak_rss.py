"""Run a command and fail when its largest process outgrows a memory limit.

Usage: python3 test/peak_rss.py LIMIT_MB -- COMMAND [ARGS...]

Prints the peak resident set size of the largest descendant the command
waited for (getrusage(RUSAGE_CHILDREN).ru_maxrss; under `dune runtest`
that is test_main), then exits with the command's status, or with 1
when the command passed but the peak is above LIMIT_MB.
"""
import resource
import subprocess
import sys


def main():
    if len(sys.argv) < 4 or sys.argv[2] != "--":
        sys.exit(__doc__)
    limit_mb = float(sys.argv[1])
    status = subprocess.call(sys.argv[3:])
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak RSS: {peak_mb:.0f} MB (limit {limit_mb:.0f} MB)")
    if status != 0:
        sys.exit(status)
    if peak_mb > limit_mb:
        print(f"peak RSS {peak_mb:.0f} MB is above {limit_mb:.0f} MB", file=sys.stderr)
        sys.exit(1)


main()
