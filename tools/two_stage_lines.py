"""Score every stratum of a ``latekit analyze`` input by the one-row calls.

    python3 tools/two_stage_lines.py INPUT OUT [--design rem --pa P_A] [--adjust FLAVOR]

``latekit`` is imported from ``PYTHONPATH``. Each stratum of ``INPUT`` is read
by ``io.read_records``, its covariates are centred by ``center_covariates``,
and ``two_stage_set`` scores it with their means as offsets, under the
settings ``latekit analyze`` takes from the same options. ``wald_ci``,
``far_set``, ``first_stage_test`` and ``f_screen`` then score it from public
components: ``sandwich_cov`` of ``fit_interacted_pair`` under adjustment, else
``variance_components`` of ``summarize`` (without the covariates under CRE,
which reads none). ``OUT`` gets one JSON line per stratum: its key, the
estimates and every field of those components (``components``: ``tau_y``,
``tau_w`` and each family triple), and, for each of the five calls, its
result (``two_stage_set``'s ``to_json_dict()``, every field of the others),
or in place of any of these the type and message of the error it raised.
``tools/compare_outputs.py`` runs this in two checkouts, since ``analyze``
sends no analysable stratum down these one-row paths.
"""
from __future__ import annotations

import argparse
import dataclasses
import json

from latekit.confidence_sets import far_set, wald_ci
from latekit.data_model import AnalysisConfig, Dataset, DesignSpec, center_covariates
from latekit.estimation import Estimates, variance_components
from latekit.io import read_records
from latekit.stats_core import fit_interacted_pair, sandwich_cov, summarize
from latekit.two_stage import f_screen, first_stage_test, two_stage_set


def _error(exc: Exception) -> dict:
    return {"error": [type(exc).__name__, str(exc)]}


def _result(run) -> dict:
    """The fields ``run()`` returns, or the type and message of its error."""
    try:
        return run()
    except Exception as exc:  # the error is the stratum's result
        return _error(exc)


def _components(ds: Dataset, config: AnalysisConfig):
    """The stratum's estimates and the public components its regime reads."""
    if config.regime == "adjusted":
        fit_y, fit_w = fit_interacted_pair(ds, ds.z)
        return (Estimates(fit_y.tau_hat, fit_w.tau_hat),
                sandwich_cov(fit_y, fit_w, config.adjustment))
    if config.regime == "cre":
        ds = Dataset(ds.z, ds.w, ds.y, ds.x[:, :0])
    summary = summarize(ds, ds.z)
    return Estimates(summary.tau_y, summary.tau_w), variance_components(summary)


def stratum_line(key: str, ds: Dataset, means, config: AnalysisConfig) -> dict:
    """One stratum's line: its key, its components and each call's result,
    or the error of each."""
    regime = config.regime
    line = {"stratum": key,
            "two_stage_set": _result(lambda: two_stage_set(ds, config, means).to_json_dict())}
    steps = ("wald_ci", "far_set", "first_stage_test", "f_screen")
    try:
        est, comp = _components(ds, config)
    except Exception as exc:  # the components' and each procedure's result
        return {**line, **dict.fromkeys(("components", *steps), _error(exc))}
    line["components"] = {**est._asdict(), **dataclasses.asdict(comp)}
    calls = (lambda: wald_ci(regime, est, comp, config),
             lambda: far_set(regime, est, comp, config),
             lambda: first_stage_test(regime, est, comp, config),
             lambda: f_screen(regime, est, comp))
    return {**line, **{name: _result(lambda: dataclasses.asdict(call()))
                       for name, call in zip(steps, calls)}}


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
            ds = Dataset(records.z, records.w, records.y, x)
            fh.write(json.dumps(stratum_line(records.key, ds, means, config)) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
