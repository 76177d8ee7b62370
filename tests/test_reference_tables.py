"""The oscillator-monomial tables of `qaffine.reference` against the
ladder-matrix products they replace (`product_builders`): every rendered
L-operator equals the product builder's, and tau on a table equals the
metric-weighted transpose at reflected argument."""

import pytest

from qaffine.rational import ZetaRational
from qaffine.reference import (
    exponent_tuple, l_table, list_variants, reference_matrix, render,
)
from product_builders import _l_a1, _l_a2, tau_matrix
from oracles import map_ops, subs_zeta

pytestmark = pytest.mark.oracle

L_VARIANTS = [(algebra, v) for kind, algebra, v in list_variants()
              if kind == "l"]
TABLED = [(algebra, v) for algebra, v in L_VARIANTS if v != "hat-2-inv"]
SPECTRAL = (1, -1, 2, -2, 3, -3)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
@pytest.mark.parametrize("algebra, variant", TABLED)
def test_rendered_tables_equal_the_ladder_products(algebra, variant, d):
    for s in SPECTRAL:
        for s1, s2 in ((0, 0), (1, 0), (-1, 2), (2, -1)):
            ref = reference_matrix("l", algebra, variant, s, s1, s2, d=d)
            old = (_l_a1(variant, s, s1, d) if algebra == "a1"
                   else _l_a2(variant, s, s1, s2, d))
            assert ref.matrix == old.matrix
            assert (ref.tag, ref.l_type, ref.exps, ref.copies) == (
                old.tag, old.l_type, old.exps, old.copies)


@pytest.mark.parametrize("algebra, variant", TABLED)
def test_tau_of_a_table_is_the_metric_weighted_transpose(algebra, variant):
    for d in (4, 5):
        for s, s1, s2 in ((1, 0, 0), (-2, 1, -1), (3, -1, 2)):
            ref = reference_matrix("l", algebra, variant, s, s1, s2, d=d)
            want = map_ops(ref.matrix,
                           lambda m: tau_matrix(m, d, ref.copies)).map_values(
                lambda v: subs_zeta(v, -1), ZetaRational.ONE)
            image = l_table(algebra, variant, ref.exps).tau()
            assert render(image.ring(), d) == want


@pytest.mark.parametrize("algebra, variant", TABLED)
def test_tau_is_an_involution_on_every_table(algebra, variant):
    for s in SPECTRAL:
        table = l_table(algebra, variant, exponent_tuple(algebra, s, 1, -1))
        image = table.tau()
        assert image.tau() == table
        # the divisor 1 - zeta^s goes to 1 - zeta^-s
        assert image.divisor == (None if table.divisor is None
                                 else -table.divisor)
        assert image.terms != table.terms
