"""Output comparison: identical bytes, or the same text with every number
within 1e-9 relative (the repository's definition of "same output")."""
from __future__ import annotations

import gzip
import re
from pathlib import Path

REL_TOL = 1e-9
_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def same_output(actual: bytes, expected: bytes) -> bool:
    if actual == expected:
        return True
    if _NUMBER.sub(b"#", actual) != _NUMBER.sub(b"#", expected):
        return False
    for a, e in zip(_NUMBER.findall(actual), _NUMBER.findall(expected)):
        x, y = float(a), float(e)
        if abs(x - y) > REL_TOL * max(abs(x), abs(y)):
            return False
    return True


def _read(path: Path) -> bytes | None:
    """A file's bytes, from ``path`` or else from its gzip copy ``path.gz``."""
    if path.is_file():
        return path.read_bytes()
    packed = path.with_name(path.name + ".gz")
    return gzip.decompress(packed.read_bytes()) if packed.is_file() else None


def compare_dirs(actual: Path, expected: Path, names) -> list[str]:
    """One message per output file that is missing or differs."""
    problems = []
    for name in names:
        a, e = _read(actual / name), _read(expected / name)
        if a is None or e is None:
            missing = actual if a is None else expected
            problems.append(f"{name}: missing from {missing.name}")
        elif not same_output(a, e):
            problems.append(f"{name}: {actual.name} differs from {expected.name}")
    return problems
