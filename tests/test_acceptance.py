"""Release gate: every acceptance check must pass at its stated tolerance.

Each test runs exactly one named check from ibrownian.acceptance and
prints its one-line verdict (run pytest with -s or look at the captured
output of failures).  The twelve tests mirror the registry order; all
seeds are frozen inside the checks, so the printed numbers are stable.
"""

import math

import pytest

from ibrownian import acceptance as A
from ibrownian.acceptance import CHECKS


def _run(name: str):
    result = CHECKS[name]()
    print(result.line())
    assert result.passed, result.line()
    assert result.margin >= 0.0, result.line()
    # the margin is measured from the threshold the line reports
    assert abs(result.margin) == abs(result.value - result.threshold), result.line()


@pytest.mark.acceptance
def test_criterion_01_ginibre_bulk_intensity():
    _run("ginibre-bulk-intensity")


@pytest.mark.acceptance
def test_criterion_02_airy_edge_density():
    _run("airy-edge-density")


@pytest.mark.acceptance
def test_criterion_03_airy_special_function():
    _run("airy-special-function")


@pytest.mark.acceptance
def test_criterion_04_bessel_kernel_identity():
    _run("bessel-kernel-identity")


@pytest.mark.acceptance
def test_criterion_05_dyson_stationarity():
    _run("dyson-stationarity")


@pytest.mark.acceptance
def test_criterion_06_ito_square_root_consistency():
    _run("ito-square-root-consistency")


@pytest.mark.acceptance
def test_criterion_07_airy_drift_truncation_trend():
    _run("airy-drift-truncation-trend")


@pytest.mark.acceptance
def test_criterion_08_ginibre_variant_gap():
    _run("ginibre-variant-gap")


@pytest.mark.acceptance
def test_criterion_09_non_collision():
    _run("non-collision")


@pytest.mark.acceptance
def test_criterion_10_holder_moment_slope():
    _run("holder-moment-slope")


@pytest.mark.acceptance
def test_criterion_11_tail_sum_decay():
    _run("tail-sum-decay")


@pytest.mark.acceptance
def test_criterion_12_sampler_closed_forms():
    _run("sampler-closed-forms")


def test_registry_covers_every_criterion():
    # twelve criteria, twelve named checks in criterion order, no extras
    assert list(CHECKS) == [
        "ginibre-bulk-intensity",
        "airy-edge-density",
        "airy-special-function",
        "bessel-kernel-identity",
        "dyson-stationarity",
        "ito-square-root-consistency",
        "airy-drift-truncation-trend",
        "ginibre-variant-gap",
        "non-collision",
        "holder-moment-slope",
        "tail-sum-decay",
        "sampler-closed-forms",
    ]


def test_run_all_runs_the_named_checks_in_the_order_given(monkeypatch):
    ran = []

    def fake(name):
        def check():
            ran.append(name)
            return A.CheckResult(name, True, 1.0, 0.5, "fake", 0.0, 0.5)

        return check

    monkeypatch.setattr(A, "CHECKS", {name: fake(name) for name in CHECKS})
    names = ["tail-sum-decay", "ginibre-bulk-intensity", "non-collision"]
    # each check runs as its result is read
    results = A.run_all(names)
    assert ran == []
    assert next(results).name == "tail-sum-decay" and ran == names[:1]
    assert [names[0]] + [r.name for r in results] == ran == names
    # an unknown name is refused by name before any check runs
    known = ", ".join(CHECKS)
    with pytest.raises(ValueError, match=f"^checks bogus, other are not registered \\(one of: {known}\\)$"):
        A.run_all(["tail-sum-decay", "bogus", "other"])
    assert ran == names
    assert [r.name for r in A.run_all()] == list(CHECKS)


def test_runner_builds_the_result_from_the_rule():
    try:
        check = A._check("probe")(lambda: (1.9, A._within(1.9, 1.8, 2.2), "probe detail"))
        assert A.CHECKS["probe"] is check
        res = check()
    finally:
        A.CHECKS.pop("probe", None)
    assert (res.name, res.passed, res.value, res.threshold, res.detail) == ("probe", True, 1.9, 1.8, "probe detail")
    assert res.margin == 1.9 - 1.8
    assert res.wall_time >= 0.0


@pytest.mark.parametrize(
    "rule, value, want",
    [
        (lambda v: A._at_most(v, 0.15), 0.1353, (True, 0.15 - 0.1353)),
        (lambda v: A._at_most(v, 0.15), 0.15, (True, 0.0)),
        (lambda v: A._at_most(v, 0.15), 0.2, (False, 0.15 - 0.2)),
        (lambda v: A._below(v, 0.0), -0.01, (True, 0.01)),
        (lambda v: A._below(v, 0.0), 0.0, (False, 0.0)),
        (lambda v: A._at_least(v, 10.0), 12.0, (True, 2.0)),
        (lambda v: A._at_least(v, 10.0), 9.0, (False, -1.0)),
        (lambda v: A._above(v, 0.0), 0.5, (True, 0.5)),
        (lambda v: A._within(v, 1.8, 2.2), 1.9, (True, 1.9 - 1.8)),
        (lambda v: A._within(v, 1.8, 2.2), 2.3, (False, 2.2 - 2.3)),
        (lambda v: A._within(v, 1.8, 2.2), math.nan, (False, math.nan)),
    ],
)
def test_pass_rules_sign_their_margin(rule, value, want):
    passed, margin, _ = rule(value)
    assert passed is want[0]
    assert margin == pytest.approx(want[1], nan_ok=True)


@pytest.mark.parametrize(
    "rule, value, ends",
    [
        (lambda v: A._at_most(v, 0.15), 0.1353, {0.15}),
        (lambda v: A._at_most(v, 0.15), 0.2, {0.15}),
        (lambda v: A._below(v, 0.0), -0.01, {0.0}),
        (lambda v: A._below(v, 0.0), 0.0, {0.0}),
        (lambda v: A._at_least(v, 10.0), 12.0, {10.0}),
        (lambda v: A._at_least(v, 10.0), 9.0, {10.0}),
        (lambda v: A._above(v, 0.0), 0.5, {0.0}),
        (lambda v: A._above(v, 0.0), -0.5, {0.0}),
        # the interval reports its nearer end, on either side of the midpoint
        (lambda v: A._within(v, 1.8, 2.2), 1.9649, {1.8}),
        (lambda v: A._within(v, 1.8, 2.2), 2.1, {2.2}),
        (lambda v: A._within(v, 1.8, 2.2), 1.7, {1.8}),
        (lambda v: A._within(v, 1.8, 2.2), 2.3, {2.2}),
        (lambda v: A._within(v, 1.8, 2.2), math.nan, {1.8, 2.2}),
        # side rules that hold leave the first rule's threshold and margin
        (lambda v: A._all_of(A._at_least(v, 10.0), A._at_most(-1.0, 1e-12)), 30.0, {10.0}),
        (lambda v: A._all_of(A._at_most(v, 0.0), A._above(0.02, 0.0)), 3.0, {0.0}),
    ],
)
def test_margin_is_signed_distance_to_reported_threshold(rule, value, ends):
    passed, margin, threshold = rule(value)
    assert threshold in ends
    if math.isnan(value):
        assert math.isnan(margin) and not passed
        return
    assert abs(margin) == abs(value - threshold)
    # positive on the passing side, negative on the failing side
    assert margin == 0.0 or passed == (margin > 0.0)


def test_side_rule_margin_counts_only_when_it_fails():
    # the margin stays in the units of the reported value while the side
    # rules hold, and turns negative as soon as one fails; the threshold is
    # always the first rule's
    assert A._all_of(A._at_least(30.0, 10.0), A._at_most(-1.0, 1e-12)) == (True, 20.0, 10.0)
    assert A._all_of(A._at_least(30.0, 10.0), A._at_most(0.5, 1e-12)) == (False, 1e-12 - 0.5, 10.0)
    assert A._all_of(A._at_most(0.0, 0.0), A._above(0.02, 0.0)) == (True, 0.0, 0.0)
    assert A._all_of(A._at_most(3.0, 0.0), A._above(-0.1, 0.0)) == (False, -3.0, 0.0)


def test_line_shows_the_margin():
    res = A.CheckResult("x", True, 0.1, 0.15, "detail", 1.0, 0.05)
    assert "margin 0.05" in res.line()
