#!/usr/bin/env python3
"""Line coverage per source directory from a `coverage` preset build.

    cmake --preset coverage && cmake --build --preset coverage
    ctest --preset coverage
    python3 scripts/coverage_summary.py build-coverage src serve obs

Runs gcov over every .gcda file under the build tree and counts a
source line as covered when any translation unit executed it, so a
header shared by many objects is counted once. Prints the total for
each directory named after the source root, then each of its files.
"""
import json
import os
import subprocess
import sys
from collections import defaultdict


def main():
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    build = os.path.realpath(sys.argv[1])
    src_root = os.path.realpath(sys.argv[2])
    executed = defaultdict(dict)  # source path -> {line: covered}
    for root, _, files in os.walk(build):
        for name in files:
            if not name.endswith('.gcda'):
                continue
            out = subprocess.run(
                ['gcov', '--json-format', '--stdout', name],
                cwd=root, capture_output=True, text=True, check=True)
            for doc in out.stdout.splitlines():
                if not doc.strip():
                    continue
                data = json.loads(doc)
                cwd = data['current_working_directory']
                for f in data['files']:
                    path = os.path.realpath(os.path.join(cwd, f['file']))
                    seen = executed[path]
                    for line in f['lines']:
                        n = line['line_number']
                        seen[n] = seen.get(n, False) or line['count'] > 0
    for d in sys.argv[3:]:
        prefix = os.path.join(src_root, d) + os.sep
        rows = [(os.path.relpath(p, src_root), sum(ls.values()), len(ls))
                for p, ls in sorted(executed.items())
                if p.startswith(prefix)]
        hit = sum(r[1] for r in rows)
        total = sum(r[2] for r in rows)
        print(f'{d}: {hit}/{total} lines = '
              f'{100.0 * hit / max(total, 1):.1f}%')
        for path, h, t in rows:
            print(f'  {path}: {h}/{t} = {100.0 * h / max(t, 1):.1f}%')


if __name__ == '__main__':
    main()
