"""Peak RSS of every catalogue job of one benchmark workload.

Run as a script, `python3 tests/peak_rss.py WORKLOAD [CHECKOUT]` runs each
job of WORKLOAD's pools in perfbench/catalog.json once, one after another,
through CHECKOUT's perfbench/proc.run_job (default: this checkout), so the
jobs run CHECKOUT's sources under the workload's time cap. The peak RSS is
the VmHWM each job reports as it exits. For each pool it prints the job
count, the median and maximum peak and the 5 largest jobs; it ends with the
workload's maximum and the job that set it. A job killed at the cap has no
peak and is counted apart. The perfbench modules are only imported.
"""

import statistics
import sys
from pathlib import Path

TOP = 5


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    workload = argv[1]
    root = Path(argv[2]) if len(argv) > 2 else Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root.resolve() / "perfbench"))
    from proc import run_job
    from workloads import WORKLOADS, load_catalog

    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r}; known: {', '.join(sorted(WORKLOADS))}",
              file=sys.stderr)
        return 1
    cap = WORKLOADS[workload].cap_s
    peak = (0.0, None)
    for pool, entries in load_catalog()[workload].items():
        sizes, capped = [], 0
        for entry in entries:
            result = run_job(entry["argv"], cap)
            if result.maxrss_kb is None:
                capped += 1
                continue
            sizes.append((result.maxrss_kb / 1024, " ".join(entry["argv"])))
        sizes.sort(reverse=True)
        values = [mb for mb, _ in sizes]
        print(f"{pool}: {len(entries)} jobs"
              + (f", {capped} killed at the {cap} s cap" if capped else ""))
        if not sizes:
            continue
        print(f"  median {statistics.median(values):.2f} MB, max {values[0]:.2f} MB")
        for mb, job in sizes[:TOP]:
            print(f"  {mb:7.2f} MB  {job}")
        peak = max(peak, sizes[0])
    print(f"{workload} max: {peak[0]:.2f} MB, set by {peak[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
