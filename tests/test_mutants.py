"""The mutation table: one wrong geometric constant per row, and the suite
checks it must FAIL (R. A. DeMillo, R. J. Lipton and F. G. Sayward, *Hints
on test data selection*, IEEE Computer 11, 1978).

Each row monkeypatches one constant in every module that binds it, runs
`suite.run_suite()`, and expects exit 1 with exactly the named FAILs, per
criterion.  A criterion that raises reports one FAIL, "runs to its
verdict", shown here with the exception's type.  A FAIL the suite should
report but does not yet is an `xfail(strict=True)` naming the roadmap item
that mends it, so that the mending change has to flip it.  Rows that touch
the model empty its caches before and after their run.

No row FAILs these 147 of the suite's 224 checks by name: the names of an
unmutated run less every row's FAILs, which
`test_unkilled_checks_are_the_listed_ones` recounts per criterion (a
criterion that raises FAILs only "runs to its verdict"):

- criterion 1: all 72 operator identities;
- criterion 2: all 11, the defect form's per-line, zero and linearity
  checks and both star commutation samples;
- criterion 3: all 16, the 12 barrier residuals and the 4 trajectory
  instances;
- criterion 4: "quaternionic bound (2n+1)^2, n=2" and the sharpening check;
- criterion 5, at n = 2 and 3: "einstein off-diagonal entries vanish",
  "K(e1,e_p) = -4 and K(e1,e_a) = -1" and "commutator extractions
  consistent across I, J, K";
- criterion 6, at n = 2 and 3 (33 checks): the second fundamental form,
  "K^N vanishes on the center planes", the across-lines K^N sum, the Gauss
  equation's v-block, plain, "mixed +2 (i=l in z)" and "mixed -2 (j=l in
  z)" slots at both scales, the shape operator's off-diagonal, the
  Busemann radial row and column, and the total, line-block and
  transversal-block shape traces;
- criterion 7: "n=2: gap at r_max=12 below 1", the Rayleigh quotient of
  the e^{-5r} trial and the sharpening check;
- criterion 8: the 1e5-sample gap scan, both equality-case shapes and the
  zero Hessian gap.
"""

from fractions import Fraction

import numpy as np
import pytest

from qkcomp import cli, comparison, levelset, model, quaternionic, riccati, spectral, suite
from qkcomp.forms import ExactArray
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


def line_block_m4(delta):
    """The line block with m = 4 in place of 3."""
    return ComparisonFunction(Fraction(4), Fraction(4 * delta))


def negated_connection_entry(init=model.StructureConstants.__init__):
    """StructureConstants.__init__ with the first nonzero connection entry,
    Gamma[1, 0, 1] = -2, negated after the bracket scale is derived: in
    levi_civita_table the mutant would also reach the Einstein sweep,
    which then finds no scale."""
    def mutant(self, n, c, table):
        init(self, n, c, table)
        num = self.connection.num.copy()
        num[1, 0, 1] *= -1
        self.connection = ExactArray.of(num, self.connection.den)
    return mutant


def busemann_hessian_z3(n):
    """The Busemann Hessian with -3 in place of -2 on I e_1, J e_1, K e_1."""
    diag = [0, -3, -3, -3] + [-1] * (4 * n - 4)
    return quaternionic.HessianMatrix(ExactArray.of(np.diag(diag)))


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

# mutant: (how to plant it, {criterion: the checks it must FAIL, or how
# many when they are dozens})
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
    "bracket scale 2 -> 3":
        (lambda mp: mp.setattr(model, "_derive_bracket_scale", lambda: Fraction(3)),
         {5: 34, 6: {f"[n={n}] {name}" for n in (2, 3) for name in (
             "K^N(center, transversal) = 1", "mixed z-z-v-v display with s = 1/4 weighting",
             "sum_i K^N(e_p, e_{4s-i}) = 4", "sum_i K^N(e_{4s}, e_{4s-i}) = -9")}}),
    "connection entry Gamma[1, 0, 1] negated":
        (lambda mp: mp.setattr(model.StructureConstants, "__init__",
                               negated_connection_entry()), {5: 26, 6: 14}),
    "line block m = 3 -> 4":
        (lambda mp: patch_block(mp, "line", line_block_m4),
         {4: LAPLACIAN_FAILS | {
             "delta=0: laplacian = line + (n-1) transversal blocks",
             "delta=0 coefficient is 4n-1 (printed 4n-3 flagged as erratum)"}}),
    "Busemann z-block -2 -> -3":
        (lambda mp: [mp.setattr(module, "busemann_hessian", busemann_hessian_z3)
                     for module in (quaternionic, levelset, suite)],
         {6: {f"[n={n}] shape operator = -(Busemann Hessian restriction)" for n in (2, 3)},
          8: {f"n={n}: {name}" for n in (2, 3) for name in (
              "Busemann Hessian trace = -2(2n+1)", "Busemann |H|^2 = 4(n+2)",
              "Busemann line-1 diagonal sum = -6",
              "Busemann eigenvalues {0, -2 x3, -1 x(4n-4)}")}}),
}

# the caches that a mutant of the model reaches, bound before any row
# patches a name: the rows that touch the model empty them before and
# after their run, so that no model built under a mutant outlives it
MODEL_CACHES = (model.build_model, model.model_curvature, model._derive_bracket_scale)
MODEL_ROWS = {"bracket scale 2 -> 3", "connection entry Gamma[1, 0, 1] negated"}


def suite_fails(monkeypatch, mutant: str) -> dict[int, set[str]]:
    """{criterion: its FAIL names} of one suite run under `mutant`; the
    run must exit 1."""
    caches = MODEL_CACHES if mutant in MODEL_ROWS else ()
    for cache in caches:
        cache.cache_clear()
    try:
        TABLE[mutant][0](monkeypatch)
        status, _, reports = suite.run_suite()
    finally:
        for cache in caches:
            cache.cache_clear()
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
    expected = TABLE[mutant][1]
    fails = suite_fails(monkeypatch, mutant)
    assert {k: len(names) if isinstance(expected.get(k), int) else names
            for k, names in fails.items()} == expected


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: criterion 3 tests each barrier "
                                       "against its own (m, K), not the model's")
def test_criterion_3_fails_the_line_block_mutant(monkeypatch):
    assert 3 in suite_fails(monkeypatch, "line block K = 4 delta -> (9/4) delta")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10")
def test_criterion_3_fails_the_line_block_width_mutant(monkeypatch):
    assert 3 in suite_fails(monkeypatch, "line block m = 3 -> 4")


# per criterion, how many of its checks no row FAILs by name: the list of
# the module docstring
UNKILLED = {1: 72, 2: 11, 3: 16, 4: 2, 5: 6, 6: 33, 7: 3, 8: 4}


def test_unkilled_checks_are_the_listed_ones(monkeypatch):
    _, _, reports = suite.run_suite()
    unkilled = {k: {c.name for c in rep.checks} for k, rep in enumerate(reports, start=1)}
    for mutant in TABLE:
        with monkeypatch.context() as patched:
            for k, names in suite_fails(patched, mutant).items():
                unkilled[k] -= names
    assert {k: len(names) for k, names in unkilled.items()} == UNKILLED
