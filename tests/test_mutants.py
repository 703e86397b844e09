"""The mutation table: one wrong geometric constant per row, and the suite
checks it must FAIL (R. A. DeMillo, R. J. Lipton and F. G. Sayward, *Hints
on test data selection*, IEEE Computer 11, 1978).

Each row monkeypatches one constant in every module that binds it, runs
`suite.run_suite()`, and expects exit 1 with exactly the named FAILs, per
criterion.  A criterion that raises reports one FAIL, "runs to its
verdict", shown here with the exception's type.  A FAIL the suite should
report but does not yet is an `xfail(strict=True)` naming the roadmap item
that mends it, so that the mending change has to flip it.
"""

from fractions import Fraction

import numpy as np
import pytest

from qkcomp import cli, comparison, quaternionic, riccati, spectral, suite
from qkcomp.riccati import ComparisonFunction

LAPLACIAN_FAILS = {
    "delta=-1: laplacian = line + (n-1) transversal blocks",
    "delta=1: laplacian = line + (n-1) transversal blocks",
    "(d/dr) log J = laplacian at 20 grid points (1e-8)",
}


def line_block_9_4(delta):
    """The line block with K = (9/4) delta in place of 4 delta."""
    return ComparisonFunction(Fraction(3), Fraction(9, 4) * delta)


def transversal_block_4(delta):
    """A transversal block with K = 4 delta in place of delta."""
    return ComparisonFunction(Fraction(4), Fraction(4 * delta))


def kato_weights_5(m):
    """Kato's row weight 5 in place of 4: 3|h|^2 - 5|h e_1|^2."""
    rows, cols, _ = quaternionic._upper_triangle(m)
    return 3 * np.where(rows == cols, 1, 2) - 5 * (rows == 0)


def area_density_lowered(g, r, density=comparison.area_density):
    """J with the exponent of sinh r (sin r, r) lowered by 2: 4(n-1) ->
    4n-6, and 4n-1 -> 4n-3 at delta = 0."""
    s = {-1: np.sinh, 0: np.asarray, 1: np.sin}[g.delta]
    return density(g, r) / np.power(s(r), 2)


def patch_block(monkeypatch, name, mutant):
    for module in (riccati, comparison, suite):
        monkeypatch.setattr(module, f"{name}_block", mutant)
    monkeypatch.setitem(suite.BLOCKS, name, mutant)


DENSITY_FAILS = {
    4: {"(d/dr) log J = laplacian at 20 grid points (1e-8)",
        "volume ratio equality case within 1e-10"},
    7: {"n=2: lambda1(r_max=12, mesh 20000) in (25, 26)",
        "n=2: estimates decrease in r_max and stay above 25",
        "n=3: lambda1(r_max=12, mesh 20000) in (49, 50)"},
}

# mutant: (how to plant it, {criterion: the checks it must FAIL})
TABLE = {
    "line block K = 4 delta -> (9/4) delta":
        (lambda mp: patch_block(mp, "line", line_block_9_4), {4: LAPLACIAN_FAILS}),
    "transversal block K = delta -> 4 delta":
        (lambda mp: patch_block(mp, "transversal", transversal_block_4),
         {3: {"runs to its verdict (DomainError)"}, 4: LAPLACIAN_FAILS}),
    "Kato row weight 4 -> 5":
        (lambda mp: mp.setattr(quaternionic, "_kato_weights", kato_weights_5),
         {8: {"runs to its verdict (RuntimeError)"}}),
    "density exponent 4(n-1) -> 4n-6":
        (lambda mp: [mp.setattr(module, "area_density", area_density_lowered)
                     for module in (comparison, suite, spectral, cli)], DENSITY_FAILS),
}


def suite_fails(monkeypatch, mutant: str) -> dict[int, set[str]]:
    """{criterion: its FAIL names} of one suite run under `mutant`; the
    run must exit 1."""
    TABLE[mutant][0](monkeypatch)
    status, _, reports = suite.run_suite()
    assert status == 1
    fails = {}
    for k, rep in enumerate(reports, start=1):
        names = {c.name if c.name != "runs to its verdict"
                 else f"{c.name} ({str(c.actual).split(':')[0]})" for c in rep.failures()}
        if names:
            fails[k] = names
    return fails


@pytest.mark.parametrize("mutant", TABLE)
def test_mutant_fails_the_named_checks(monkeypatch, mutant):
    assert suite_fails(monkeypatch, mutant) == TABLE[mutant][1]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: criterion 3 tests each barrier "
                                       "against its own (m, K), not the model's")
def test_criterion_3_fails_the_line_block_mutant(monkeypatch):
    assert 3 in suite_fails(monkeypatch, "line block K = 4 delta -> (9/4) delta")
