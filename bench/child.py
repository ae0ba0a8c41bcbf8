"""Fresh-interpreter probe: import the CLI, run ops, report peak RSS.

Usage: ``python3 bench/child.py <ops.json>`` where the file holds a list
of argv lists. CLI output is discarded, so no benchmark buffer
adds to the resident set. Prints ``{"peak_rss_kb": ...}`` on stdout: the
high-water mark of this process's own memory map (``VmHWM``), which unlike
``ru_maxrss`` does not inherit the parent's resident set from before exec.
"""

import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qbrownian import cli  # noqa: E402


class Sink:
    """Text stream that discards what is written."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        argvs = json.load(fh)
    sink = Sink()
    for argv in argvs:
        with redirect_stdout(sink), redirect_stderr(sink):
            try:
                cli.main(argv)
            except (SystemExit, Exception):  # failures are counted by the parent's checker
                pass
    print(json.dumps({"peak_rss_kb": peak_rss_kb()}))


def peak_rss_kb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    main()
