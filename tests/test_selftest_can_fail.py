"""Every selftest check can fail: each one reports ``passed: False`` when one
routine it relies on is replaced by a plausible wrong one.

A fault is patched in the namespace the check reaches the routine through
(``acceptance`` imports its names directly, ``correlator`` and ``geometry``
theirs).  The per-process caches (``lie._po``, ``geometry._degeneration``,
``correlator._schur_action``) are cleared before and after each case, so no
result computed before the patch hides the fault and none computed under it
outlives the case.  The check runs alone through ``run_all``, which reports a
raised ``ProjlimError`` as a failure; any other exception escapes and fails
the test.  Each check has one fault; a few have more, one for each part of
the check that reports its own failure.
"""

import dataclasses

import pytest

from projlim import acceptance, correlator, geometry, lie, linalg, parsing, projective, young
from projlim.lie import BracketTable
from projlim.projective import ProjMatrix


def _source_table(h, t_indices):
    return h if isinstance(h, BracketTable) else h.structure_constants()


def _every_point_to_boundary(deg, x):
    return dataclasses.replace(geometry.classify_point_limit(deg, x), kind="boundary")


def _point_unchanged(seq, coords):
    return list(coords)


def _flipped_statistics(pair):
    return {"bosonic": "fermionic", "fermionic": "bosonic"}[young.statistics(pair)]


def _pad_the_source_algebra(alg, m_target):
    return lie.pad_span(lie.build_po(((4, 1),)), m_target)


def _branch_the_conjugate(pair):
    return young.branch_to_lorentz(tuple(young.conjugate_diagram(d) for d in pair))


_limit_rows = projective._limit_rows
_rows_of = correlator._SchurAction.rows_of


def _transposed_rows_of(self, g):
    return projective.transpose_rows(_rows_of(self, g))


# (check, namespace, name, wrong routine)
FAULTS = [
    (acceptance.check_galilei_boost, ProjMatrix, "limit", lambda self: self),
    (acceptance.check_example_limits, geometry, "conjugacy_limit", lambda alg, seq: alg),
    (acceptance.check_contraction_chain, acceptance, "contract", _source_table),
    (acceptance.check_sigma_chain, lie, "conjugacy_limit", lambda alg, seq: alg),
    (acceptance.check_sigma_chain, lie, "contract", _source_table),
    (acceptance.check_sigma_chain, lie, "_min_grade_projection", lambda v, u, m: v),
    (acceptance.check_invariant_profiles, BracketTable, "center_dim", lambda self: 0),
    (acceptance.check_figure1, correlator, "classify_point_limit", _every_point_to_boundary),
    (acceptance.check_uv_ir, geometry, "rational_limit", _point_unchanged),
    (acceptance.check_uv_ir, correlator, "classify_point_limit", _every_point_to_boundary),
    (
        acceptance.check_uv_ir,
        correlator,
        "surviving_components",
        lambda rep, rho_inf: tuple(range(1, rho_inf.ncols + 1)),
    ),
    (acceptance.check_schur_dimensions, acceptance, "schur_dim", lambda pair: young.schur_dim(pair) + 1),
    (
        acceptance.check_lorentz_branching,
        acceptance,
        "exterior_power_spins",
        lambda p: young.exterior_power_spins(p)[:1],
    ),
    (acceptance.check_lorentz_branching, acceptance, "branch_to_lorentz", _branch_the_conjugate),
    (acceptance.check_poincare_irreducibility, acceptance, "statistics", _flipped_statistics),
    (acceptance.check_property_suites, BracketTable, "satisfies_jacobi", lambda self: False),
    (acceptance.check_property_suites, acceptance, "mat_mul", lambda a, b: linalg.mat_mul(b, a)),
    (acceptance.check_property_suites, acceptance, "parse_scalar", lambda text: -parsing.parse_scalar(text)),
    (
        acceptance.check_property_suites,
        acceptance,
        "parse_signature",
        lambda text: tuple(reversed(parsing.parse_signature(text))),
    ),
    (
        acceptance.check_property_suites,
        acceptance,
        "parse_diagram",
        lambda text: young.conjugate_diagram(parsing.parse_diagram(text)),
    ),
    (acceptance.check_ambient_embedding, acceptance, "pad_span", _pad_the_source_algebra),
    (
        acceptance.check_representation_limit_commutation,
        projective,
        "_limit_rows",
        lambda rows: _limit_rows(rows)[:-1] + ((),),
    ),
    (acceptance.check_representation_limit_commutation, correlator._SchurAction, "rows_of", _transposed_rows_of),
]


def _clear_caches():
    lie._po.cache_clear()
    geometry._degeneration.cache_clear()
    correlator._schur_action.cache_clear()


@pytest.fixture
def fresh_caches():
    _clear_caches()
    yield
    _clear_caches()


def test_every_check_has_a_fault():
    assert sorted({check for check, *_ in FAULTS}, key=acceptance.CHECKS.index) == acceptance.CHECKS


@pytest.mark.parametrize(
    "check, namespace, name, wrong",
    FAULTS,
    ids=[f"{check.__name__.removeprefix('check_').replace('_', '-')}-{name}" for check, _, name, _ in FAULTS],
)
def test_check_fails_under_its_fault(check, namespace, name, wrong, fresh_caches, monkeypatch):
    monkeypatch.setattr(namespace, name, wrong)
    monkeypatch.setattr(acceptance, "CHECKS", [check])
    [result] = acceptance.run_all()
    assert result.passed is False, result.detail
    assert result.detail
