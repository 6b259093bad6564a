"""The experiment registry: every experiment id is a sweep spec.

Every experiment id (T1-D-opt-E, FIG1, SEC4, ...) is backed by a
:class:`~repro.runtime.spec.SweepSpec` built by one of
:data:`repro.analysis.experiments.SWEEP_FACTORIES`; ``sweep_specs()``
exposes them to the ``python -m repro`` CLI and the parallel engine.
Run one with :func:`~repro.runtime.executor.sweep_cells`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List


def sweep_specs() -> Dict[str, "SweepSpec"]:
    """Every spec-backed experiment id, in reporting order: the suite of
    :mod:`repro.analysis.experiments` (imported lazily to avoid a
    cycle)."""
    from . import experiments

    return dict(experiments.SWEEPS)


def sweep_ids() -> List[str]:
    return list(sweep_specs())


def resolve_sweeps(tokens: Iterable[str]) -> List["SweepSpec"]:
    """Match each token against sweep ids, exactly or as a prefix.

    ``T1`` selects every Table-1 sweep; ``FIG1`` selects just Fig. 1.
    The special token ``report`` selects the *entire* default suite in
    reporting order — it is how ``python -m repro report --shard K/N``
    and ``shard plan/run/merge report`` name the full-suite split.
    Matching is case-insensitive; order follows the registry (reporting
    order), with duplicates dropped.  Unknown tokens raise ``KeyError``.
    """
    specs = sweep_specs()
    by_upper = {sweep_id.upper(): sweep_id for sweep_id in specs}
    selected: Dict[str, "SweepSpec"] = {}
    for token in tokens:
        upper = token.upper()
        if upper == "REPORT":
            for sweep_id, spec in specs.items():
                selected.setdefault(sweep_id, spec)
            continue
        matches = (
            [by_upper[upper]]
            if upper in by_upper
            else [
                sweep_id
                for sweep_id in specs
                if sweep_id.upper().startswith(upper)
            ]
        )
        if not matches:
            raise KeyError(
                f"unknown experiment {token!r}; known: {sweep_ids()}"
            )
        for sweep_id in matches:
            selected.setdefault(sweep_id, specs[sweep_id])
    return list(selected.values())
