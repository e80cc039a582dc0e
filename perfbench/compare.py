"""Compare two saved benchmark records metric by metric.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

The records are the ``--out`` files of ``perfbench/run.py``. Results
taken under different AES-GCM backends, fast-path profiles or Python
versions are not comparable (the pure-Python backend alone roughly
doubles host time), so the comparison is refused with exit status 2.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Environment fields two records must share to be compared.
MUST_MATCH = ("aes_gcm_backend", "fastpath_profile", "python")


def compare(base: dict, new: dict) -> int:
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"refused: {key} differs ({base[key]!r} vs {new[key]!r})")
            return 2
    for key in MUST_MATCH:
        if base["environment"][key] != new["environment"][key]:
            print(f"refused: {key} differs ({base['environment'][key]!r} vs "
                  f"{new['environment'][key]!r}); results are not comparable")
            return 2
    print(f"{base['workload']}: base seed {base['seed']}, new seed {new['seed']}")
    for name, entry in base["metrics"].items():
        old, cur = entry["value"], new["metrics"][name]["value"]
        change = f"{(cur - old) / old:+.1%}" if old else "n/a"
        print(f"  {name:<32} {old:>14.6g} {cur:>14.6g} {entry['unit']:<6} {change}")
    return 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in args)
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main())
