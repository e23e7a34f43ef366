#!/usr/bin/env python3
"""Print the C++ line count of each source tree as one JSON object.

    python3 scripts/loc.py

A line counts when it holds code: blank lines and lines that are only
comment (`//` or inside `/* */`) do not. Trees: src/, server/, bench/,
tests/ and examples/, relative to the repository root; "total" is their
sum. Standard library only.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ["src", "server", "bench", "tests", "examples"]
SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}


def code_lines(text):
    """Lines with something besides whitespace and comments on them."""
    count = 0
    in_block = False
    for line in text.splitlines():
        code = False
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    break
                in_block = False
                i = end + 2
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            else:
                code = code or not line[i].isspace()
                i += 1
        count += code
    return count


def main():
    counts = {}
    for tree in TREES:
        files = sorted(p for p in (ROOT / tree).rglob("*")
                       if p.suffix in SUFFIXES and p.is_file())
        counts[tree] = sum(code_lines(p.read_text(encoding="utf-8",
                                                  errors="replace"))
                           for p in files)
    counts["total"] = sum(counts[t] for t in TREES)
    json.dump(counts, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
