#!/usr/bin/env python3
"""Line counts of the library sources, for tracking `src/` size per change.

    python3 scripts/src_loc.py

Prints one line per top-level directory under src/ and a total, counting
the lines of every src/**/*.h and src/**/*.cc file — the same total as
`find src -name '*.h' -o -name '*.cc' | xargs wc -l`. Report-only: the
exit code is 0 whenever src/ exists.
"""

from __future__ import annotations

import collections
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def count_lines(path: pathlib.Path) -> int:
    """Newline count, as `wc -l` reports it."""
    return path.read_bytes().count(b"\n")


def main() -> int:
    if not SRC.is_dir():
        print(f"src_loc: no source directory at {SRC}", file=sys.stderr)
        return 1
    per_dir: collections.Counter[str] = collections.Counter()
    for path in SRC.rglob("*"):
        if path.suffix in (".h", ".cc") and path.is_file():
            per_dir[path.relative_to(SRC).parts[0]] += count_lines(path)
    for name in sorted(per_dir):
        print(f"{per_dir[name]:8d}  src/{name}")
    print(f"{sum(per_dir.values()):8d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
