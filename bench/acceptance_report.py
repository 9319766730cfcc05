"""Once-off report of the acceptance suite: time, value, threshold, margin.

    python3 bench/acceptance_report.py [--out PATH]

Runs ``ibrownian.acceptance.run_all`` (all twelve checks take about
11 minutes on two cores) and writes one JSON record per check plus the
run's metadata.  The margin is the distance from the value to the gate,
positive on the passing side; it is not part of the repeated benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import warm

# how each check's value meets its threshold, as in ibrownian.acceptance
PASS_RULES = {
    "ginibre-bulk-intensity": "at_most",
    "airy-edge-density": "at_most",
    "airy-special-function": "at_most",
    "bessel-kernel-identity": "at_most",
    "dyson-stationarity": "at_most",
    "ito-square-root-consistency": "at_most",
    "airy-drift-truncation-trend": "at_most",
    "ginibre-variant-gap": "below",
    "non-collision": "at_most",
    "holder-moment-slope": (1.8, 2.2),
    "tail-sum-decay": "at_least",
    "sampler-closed-forms": "at_most",
}


def margin(name: str, value: float, threshold: float) -> tuple[float | None, float | None]:
    """(absolute, relative) margin; relative is None for a zero threshold."""
    rule = PASS_RULES.get(name)
    if rule is None:
        return None, None
    if isinstance(rule, tuple):
        lo, hi = rule
        m = min(value - lo, hi - value)
        return m, m / (0.5 * (hi - lo))
    m = value - threshold if rule == "at_least" else threshold - value
    return m, (m / abs(threshold) if threshold else None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(run.OUT_DIR / "acceptance.json"))
    args = parser.parse_args(argv)
    try:
        warm.load()
    except warm.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from ibrownian import acceptance

    records = []
    for res in acceptance.run_all():
        print(res.line(), flush=True)
        value, threshold = float(res.value), float(res.threshold)
        abs_m, rel_m = margin(res.name, value, threshold)
        records.append(
            {
                "name": res.name,
                # some checks return numpy scalars, which json cannot write
                "passed": bool(res.passed),
                "value": value,
                "threshold": threshold,
                "rule": PASS_RULES.get(res.name),
                "margin": abs_m,
                "relative_margin": rel_m,
                "wall_s": res.wall_time,
                "detail": res.detail,
            }
        )
    out = {"meta": run.environment(), "checks": records, "total_wall_s": sum(r["wall_s"] for r in records)}
    run.OUT_DIR.mkdir(exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(f"wrote {args.out}")
    return 0 if all(r["passed"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
