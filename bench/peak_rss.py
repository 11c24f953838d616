"""Run one coaodv-sim command line in a fresh process and report its peak
resident set size.

    python3 bench/peak_rss.py compare SCENARIO --flows ... --out CSV

The command's own output goes where it always does; the last stderr line is
`peak_rss_kb N`, read from VmHWM, which counts only this process image (unlike
ru_maxrss, which can carry the parent's peak across fork and exec).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coaodv_sim.cli import main  # noqa: E402

if __name__ == "__main__":
    rc = main(sys.argv[1:])
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    print(f"peak_rss_kb {peak}", file=sys.stderr)
    sys.exit(rc)
