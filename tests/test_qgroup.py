import itertools

import pytest

from qaffine.scalars import QScalar, q_power
from qaffine.linalg import OpMatrix
from qaffine.qgroup import phi_zeta, dynkin_twist
from qaffine.oscillator import chi_images, psi_images
from product_builders import render
from oracles import (
    check_defining_relations, check_omega_transfer, commutator,
    diagonal_matrix, e_op, f_op,
)

ONE = QScalar.ONE


def test_a1_images_match_fundamental():
    img = phi_zeta("a1", 2, 1)
    assert img.e_mats[1] == OpMatrix.unit(2, 1, 2, ONE)
    assert img.e_mats[0] == OpMatrix.unit(2, 2, 1, ONE)
    assert img.exps == (1, 1)  # (s - s1, s1) = (1, 1)
    e = e_op(img, 1)
    assert e.zexp == 1 and e.mat == OpMatrix.unit(2, 1, 2, ONE)
    f = f_op(img, 0)
    assert f.zexp == -1


def test_a2_images_match_fundamental():
    img = phi_zeta("a2", 1, 0, 0)
    assert img.e_mats[0] == OpMatrix.unit(3, 3, 1, ONE)
    assert img.f_mats[0] == OpMatrix.unit(3, 1, 3, ONE)
    assert img.exps == (1, 0, 0)
    assert img.h_diags[0] == (-1, 0, 1)


def test_defining_relations_hold():
    for algebra, exps in (("a1", (1, 0)), ("a1", (3, 2)), ("a2", (1, 0, 0)),
                          ("a2", (2, -1, 1))):
        img = phi_zeta(algebra, *exps)
        assert check_defining_relations(img) == []


def test_e_f_commutator_is_forced():
    img = phi_zeta("a1", 1, 0)
    lhs = commutator(img.e_mats[1], img.f_mats[1])
    assert lhs == diagonal_matrix([ONE, -ONE], ONE)


def test_omega_transfer():
    assert check_omega_transfer(phi_zeta("a1", 2, 1))
    assert check_omega_transfer(phi_zeta("a2", 1, 0, 0))


def test_twist_is_group_action_and_preserves_relations():
    # the engine twists oscillator images; rendered on d states per copy, a
    # twisted image keeps the defining relations
    for build in (chi_images, psi_images):
        img = build("a2", 1, 0, 0)
        perms = list(itertools.permutations(range(3)))
        for s in perms:
            twisted = dynkin_twist(img, s)
            assert check_defining_relations(render(twisted, 4), (4, 2)) == []
            for t in perms:
                st = tuple(s[t[i]] for i in range(3))
                lhs = dynkin_twist(dynkin_twist(img, s), t)
                rhs = dynkin_twist(img, st)
                assert lhs.e_ops == rhs.e_ops and lhs.f_ops == rhs.f_ops
                assert lhs.h_forms == rhs.h_forms


def test_identity_twist_is_identity():
    img = chi_images("a1", 1, 0)
    same = dynkin_twist(img, (0, 1))
    assert same.e_ops == img.e_ops and same.f_ops == img.f_ops
    assert list(same.h_forms) == list(img.h_forms)
    with pytest.raises(ValueError):
        dynkin_twist(img, (0, 0))


def test_twist_keeps_zeta_dressing_on_node():
    img = chi_images("a1", 1, 0)
    sw = dynkin_twist(img, (1, 0))
    # after the swap, node 1 carries the old node-0 monomial but still
    # zeta^s1
    assert sw.e_ops[1] == img.e_ops[0] != img.e_ops[1]
    assert sw.exps == img.exps and sw.exps[1] == 0
