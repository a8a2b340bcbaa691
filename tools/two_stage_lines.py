"""Run ``two_stage_set`` on every stratum of a ``latekit analyze`` input.

    python3 tools/two_stage_lines.py INPUT OUT [--design rem --pa P_A] [--adjust FLAVOR]

``latekit`` is imported from ``PYTHONPATH``. Each stratum of ``INPUT`` is read
by ``io.read_records``, its covariates are centred by ``center_covariates``,
and ``two_stage_set`` scores it with their means as offsets, under the
settings ``latekit analyze`` takes from the same options. ``OUT`` gets one
JSON line per stratum: its key and the result's ``to_json_dict()``, or the
type and message of the error it raised. ``tools/compare_outputs.py`` runs
this in two checkouts, since ``analyze`` sends no analysable stratum down
``two_stage_set``'s one-row path.
"""
from __future__ import annotations

import argparse
import json

from latekit.data_model import AnalysisConfig, Dataset, DesignSpec, center_covariates
from latekit.io import read_records
from latekit.two_stage import two_stage_set


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("input")
    parser.add_argument("out")
    parser.add_argument("--design", choices=("cre", "rem"), default="cre")
    parser.add_argument("--pa", type=float)
    parser.add_argument("--adjust", default="none")
    args = parser.parse_args(argv)
    strata = read_records(args.input)
    k = strata[0].x.shape[1]
    design = DesignSpec.rem(1, p_a=args.pa, k=k) if args.design == "rem" else DesignSpec.cre(1)
    config = AnalysisConfig(adjustment=args.adjust, design=design)
    with open(args.out, "w") as fh:
        for records in strata:
            x, means = center_covariates(records.x)
            try:
                out = two_stage_set(Dataset(records.z, records.w, records.y, x), config,
                                    means).to_json_dict()
            except Exception as exc:  # the error is the stratum's result
                out = {"error": [type(exc).__name__, str(exc)]}
            fh.write(json.dumps({"stratum": records.key, **out}) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
