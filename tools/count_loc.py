#!/usr/bin/env python3
"""Print the net-lines-of-code figure for the C++ under src/ and tools/.

Two numbers, over every *.cpp and *.hpp file below src/ and tools/:

  total  every line;
  code   lines that are not blank, not a `//` comment line and not part
         of a `/* ... */` block (a line with code before a comment, or
         after a block's closing `*/`, counts as code).

A deletion reports both figures before and after the change.

Usage: tools/count_loc.py [repo_root]
"""

import os
import sys

DIRS = ("src", "tools")
SUFFIXES = (".cpp", ".hpp")


def count_file(path: str) -> tuple:
    total = code = 0
    in_block = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            total += 1
            rest = line.strip()
            if in_block:
                end = rest.find("*/")
                if end < 0:
                    continue
                in_block = False
                rest = rest[end + 2:].strip()
            # Block comments that open (and maybe close) before any code.
            while rest.startswith("/*"):
                end = rest.find("*/", 2)
                if end < 0:
                    in_block = True
                    rest = ""
                    break
                rest = rest[end + 2:].strip()
            if rest and not rest.startswith("//"):
                code += 1
    return total, code


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    total = code = 0
    for top in DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SUFFIXES):
                    t, c = count_file(os.path.join(dirpath, name))
                    total += t
                    code += c
    print(f"total {total}")
    print(f"code  {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
