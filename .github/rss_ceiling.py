"""Run Python in child processes and fail when a child's peak RSS passes its ceiling.

    python .github/rss_ceiling.py MB ARGS...

runs ``python ARGS`` for each ARGS (one shell-quoted string, e.g.
``"-m bakerlab gen-map --kind baker --d 64 --out m.json"``), each in its own
child, and fails when the largest child's peak RSS passes MB megabytes
(MiB, as ``ru_maxrss`` counts them).

    python .github/rss_ceiling.py estimate ARGS...

runs ``bakerlab.cli.main`` on each ARGS (bakerlab's arguments) in its own
child, which records the largest memory estimate its preflights compute
from ``bakerlab.entropy._STAGES``.  It fails when a child's peak RSS, less
that of a child that only imports ``bakerlab.cli``, passes that estimate.
"""

import os
import shlex
import subprocess
import sys
import tempfile

# the child of estimate mode: the CLI with a spy on the one test of memory
# that every preflight makes, writing the largest estimate to the file named first
SPY = """
import sys
import bakerlab.entropy as entropy
from bakerlab.cli import main

fits, needs = entropy._fits, []

def spy(*stages):
    needs.append(max(stages) + entropy._FIXED_BYTES)
    return fits(*stages)

entropy._fits = spy
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as f:
    f.write(str(max(needs, default=0)))
sys.exit(code)
"""


def peak_mb(*args):
    """Peak RSS of one ``python *args`` child, in MiB; exits if the child fails."""
    argv = [sys.executable, *args]
    child = subprocess.Popen(argv)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        sys.exit(f"{shlex.join(argv)} exited with {child.returncode}")
    return usage.ru_maxrss / 1024  # KiB on Linux


def main(mode, *commands):
    if mode != "estimate":
        peak = max(peak_mb(*shlex.split(command)) for command in commands)
        print(f"peak RSS {peak:.0f} MB")
        return f"peak RSS {peak:.0f} MB exceeds {mode} MB" if peak > float(mode) else 0
    base = peak_mb("-c", "import bakerlab.cli")
    print(f"import alone: peak RSS {base:.0f} MB")
    failed = []
    for command in commands:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "estimate")
            peak = peak_mb("-c", SPY, path, *shlex.split(command)) - base
            with open(path) as f:
                estimate = float(f.read()) / 2**20
        print(f"{command}: peak RSS {peak:.1f} MB beyond the import, estimate {estimate:.1f} MB")
        if peak > estimate:
            failed.append(command)
    return f"peak RSS beyond the estimate: {failed}" if failed else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
