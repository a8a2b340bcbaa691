"""Write every value of the quantile tables the benchmark builds.

    python3 tools/quantile_tables.py OUT

``latekit`` is imported from ``PYTHONPATH``. The tables are those of the
``rem_study`` workload (k = 5, p_a = 0.01) and of ``latekit analyze --design
rem --pa 0.1`` on the three-covariate strata input (k = 3, p_a = 0.1), each
at alpha 0.025 and 0.075. ``OUT`` gets, for each table, a header line and
each ``raw_values`` entry, then a header line and each ``lambda_values``
entry, one ``float.__repr__`` a line. ``tools/compare_outputs.py`` runs this
in two checkouts, so a table change shows to the bit, not only through
``table.csv``'s 10 digits or the k = 3 critical values.
"""
from __future__ import annotations

import sys

from latekit.mixture import MixtureParams, quantile_table, threshold_from_pa

TABLES = ((5, 0.01), (3, 0.1))
ALPHAS = (0.025, 0.075)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    lines = []
    for k, p_a in TABLES:
        for alpha in ALPHAS:
            table = quantile_table(MixtureParams(k=k, a=threshold_from_pa(p_a, k), alpha=alpha))
            for name in ("raw_values", "lambda_values"):
                lines.append(f"k={k} p_a={p_a} alpha={alpha} {name}")
                lines += map(repr, getattr(table, name).tolist())
    with open(argv[0], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
