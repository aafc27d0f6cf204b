"""Correlator degeneration: component survival, scale limits, functoriality."""

import functools
import importlib.resources
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlim import correlator as correlator_module
from projlim.errors import DimError, NotInvertible, ProjlimError, TooLarge
from projlim.correlator import (
    FUNDAMENTAL,
    RIGHT_ACTION,
    RepTag,
    deform_correlator,
    degenerate,
    figure1_json,
    figure1_table,
    make_correlator,
    rep_limit_commute_check,
    rep_matrix,
    rho_infinity,
    surviving_components,
    uv_ir_report,
)
from projlim.laurent import LaurentScalar
from projlim.lie import build_po
from projlim.linalg import identity, mat_mul, transpose
from projlim.parsing import parse_sequence
from projlim.projective import FactoredSequence, ProjMatrix, permutation_matrix
from projlim.young import symmetrizer_basis

from _reference import reference_inverse, reference_rank

FLAT = ((1, 0), (3, 1))
DS_SEQ = parse_sequence("diag(t^4,t^-1,t^-1,t^-1,t^-1)")
GALILEI_SEQ = parse_sequence("diag(t,1,1,1,t)")


class TestRepTags:
    def test_schur_requires_pair(self):
        with pytest.raises(ProjlimError):
            RepTag("schur")

    def test_plain_tags_take_no_pair(self):
        with pytest.raises(ProjlimError):
            RepTag("fundamental", ((1,), ()))

    def test_unknown_kind(self):
        with pytest.raises(ProjlimError):
            RepTag("adjoint-ish")

    def test_tag_strings(self):
        assert FUNDAMENTAL.tag_str() == "fundamental"
        assert RepTag("schur", ((1, 1), ())).tag_str() == "schur([1,1],[])"


class TestSurvival:
    def test_positive_curvature_row(self):
        fund = surviving_components(FUNDAMENTAL, rho_infinity(FUNDAMENTAL, DS_SEQ))
        right = surviving_components(RIGHT_ACTION, rho_infinity(RIGHT_ACTION, DS_SEQ))
        assert fund == (1,)
        assert right == (2, 3, 4, 5)

    def test_survival_partitions_components_for_two_level_weights(self):
        # fundamental keeps the top weight level, the right action the bottom
        seq = FactoredSequence.diagonal([2, 2, -1, -1, -1])
        fund = surviving_components(FUNDAMENTAL, rho_infinity(FUNDAMENTAL, seq))
        right = surviving_components(RIGHT_ACTION, rho_infinity(RIGHT_ACTION, seq))
        assert fund == (1, 2)
        assert right == (3, 4, 5)

    @given(st.lists(st.integers(-3, 3), min_size=5, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_two_level_partition_property(self, weights):
        levels = sorted(set(weights))
        if len(levels) != 2:
            return
        seq = FactoredSequence.diagonal(weights)
        fund = set(surviving_components(FUNDAMENTAL, rho_infinity(FUNDAMENTAL, seq)))
        right = set(surviving_components(RIGHT_ACTION, rho_infinity(RIGHT_ACTION, seq)))
        assert fund | right == {1, 2, 3, 4, 5}
        assert fund & right == set()

    @given(
        st.lists(st.integers(-3, 3), min_size=5, max_size=5),
        st.sets(st.integers(0, 4), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_survival_monotone_under_weight_raising(self, weights, raised):
        """Raising non-maximal weights to the maximum only grows the
        fundamental survival set (monotonicity under degeneration rank)."""
        top = max(weights)
        if all(w == top for w in weights):
            return
        raised_weights = [top if i in raised else w for i, w in enumerate(weights)]
        before = set(
            surviving_components(
                FUNDAMENTAL, rho_infinity(FUNDAMENTAL, FactoredSequence.diagonal(weights))
            )
        )
        after = set(
            surviving_components(
                FUNDAMENTAL,
                rho_infinity(FUNDAMENTAL, FactoredSequence.diagonal(raised_weights)),
            )
        )
        assert before <= after


class TestFigure:
    def test_six_cells(self):
        table = figure1_table()
        cells = {
            (row["name"], rep): tuple(row["cells"][rep]["surviving"])
            for row in table["rows"]
            for rep in ("fundamental", "right_action")
        }
        assert cells == {
            ("ds_to_poincare", "fundamental"): (1,),
            ("ds_to_poincare", "right_action"): (2, 3, 4, 5),
            ("ads_to_poincare", "fundamental"): (1,),
            ("ads_to_poincare", "right_action"): (2, 3, 4, 5),
            ("poincare_to_galilei", "fundamental"): (1, 2),
            ("poincare_to_galilei", "right_action"): (3, 4, 5),
        }

    def test_cells_partition_components(self):
        for row in figure1_table()["rows"]:
            fund = set(row["cells"]["fundamental"]["surviving"])
            right = set(row["cells"]["right_action"]["surviving"])
            assert fund | right == {1, 2, 3, 4, 5}
            assert not (fund & right)

    def test_golden_bytes(self):
        golden = (
            importlib.resources.files("projlim.data")
            .joinpath("figure1_golden.json")
            .read_text()
        )
        assert figure1_json() == golden

    def test_json_is_deterministic_and_parseable(self):
        first, second = figure1_json(), figure1_json()
        assert first == second
        doc = json.loads(first)
        assert doc["schema_version"] == "1"
        assert len(doc["rows"]) == 3


class TestDegenerate:
    def test_report_fields(self):
        spec = make_correlator(FLAT, [FUNDAMENTAL, RIGHT_ACTION])
        report = degenerate(spec, GALILEI_SEQ, None, [[1, 2, 3, 4, 5]])
        assert report.limit_signature == ((1, 0), (1, 0), (3, 0))
        # raw sequence: weights (1,0,0,0,1) keep slots {1,5} / {2,3,4}
        assert report.surviving == ((1, 5), (2, 3, 4))
        assert "boundary" in report.support_kinds
        d = report.as_dict()
        assert set(d) >= {"limit_signature", "surviving", "samples", "rho_inf"}

    def test_composed_permutation_relabels_components(self):
        spec = make_correlator(FLAT, [FUNDAMENTAL, RIGHT_ACTION])
        report = degenerate(spec, GALILEI_SEQ, (0, 2, 3, 4, 1), [[1, 2, 3, 4, 5]])
        assert report.permutation == (0, 1, 2, 3, 4)
        assert report.surviving == ((1, 2), (3, 4, 5))

    def test_schur_factor(self):
        spec = make_correlator(FLAT, [RepTag("schur", ((1, 1), ()))])
        report = degenerate(spec, GALILEI_SEQ, None, None)
        [surv] = report.surviving
        assert len(surv) >= 1
        assert all(1 <= c <= 10 for c in surv)

    def test_mixed_pair_too_large(self):
        spec = make_correlator(FLAT, [RepTag("schur", ((1,), (1,)))])
        with pytest.raises(TooLarge):
            degenerate(spec, GALILEI_SEQ, None, None)


class TestDeform:
    def test_identity_is_neutral(self):
        spec = make_correlator(FLAT, [FUNDAMENTAL])
        assert deform_correlator(spec, identity(5)) == spec

    def test_functoriality(self):
        spec = make_correlator(FLAT, [FUNDAMENTAL, RIGHT_ACTION])
        g = [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 2, 0], [0, 0, 0, 0, 1]]
        h = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 3], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
        assert deform_correlator(deform_correlator(spec, g), h) == deform_correlator(
            spec, mat_mul(h, g)
        )

    def test_inverse_recovers_original(self):
        from projlim.linalg import inverse

        spec = make_correlator(FLAT, [FUNDAMENTAL])
        g = [[2, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
        assert deform_correlator(deform_correlator(spec, g), inverse(g)) == spec

    def test_singular_deformation_rejected(self):
        spec = make_correlator(FLAT, [FUNDAMENTAL])
        with pytest.raises(NotInvertible):
            deform_correlator(spec, [[0] * 5 for _ in range(5)])

    def test_smear_labels_show_transform(self):
        spec = make_correlator(FLAT, [FUNDAMENTAL])
        g = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 1, 1]]
        deformed = deform_correlator(spec, g)
        assert any("g^-1" in label for label in deformed.smear_labels())


class TestScaleLimits:
    def test_uv_and_ir_keep_first_component(self):
        for mode in ("uv", "ir"):
            report = uv_ir_report(3, mode)
            assert report.surviving == ((1,), (1,), (1,))
            assert report.fixed_points == ("[1, 0, 0, 0, 0]",)
            assert set(report.support_kinds) == {"boundary", "interior_lower_dim"}

    def test_points_with_spatial_part_reach_boundary(self):
        report = uv_ir_report(1, "uv", [[1, 2, 0, 0, 0], [3, 0, 0, 0, 1]])
        kinds = [s.kind for s in report.samples[:2]]
        assert kinds == ["boundary", "boundary"]

    def test_bad_mode(self):
        with pytest.raises(ProjlimError):
            uv_ir_report(1, "lateral")

    def test_factor_count_over_the_cap_raises_before_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the correlator was built")

        monkeypatch.setattr(correlator_module, "make_correlator", refuse)
        with pytest.raises(TooLarge):
            uv_ir_report(correlator_module._MAX_FACTORS + 1, "ir")


class TestCommutation:
    def test_rotation_sample_commutes(self):
        po = build_po(FLAT)
        rotation = [[Fraction(0)] * 5 for _ in range(5)]
        rotation[1][2], rotation[2][1] = Fraction(1), Fraction(-1)
        assert rep_limit_commute_check(
            po, GALILEI_SEQ, RepTag("schur", ((1, 1), ())), [rotation]
        )

    def test_fundamental_commutes(self):
        po = build_po(FLAT)
        mixed = [[Fraction(0)] * 5 for _ in range(5)]
        mixed[3][4] = mixed[4][3] = Fraction(1)
        mixed[1][0] = Fraction(1)
        assert rep_limit_commute_check(po, GALILEI_SEQ, FUNDAMENTAL, [mixed])

    def test_non_member_rejected(self):
        po = build_po(FLAT)
        not_in_algebra = [[Fraction(0)] * 5 for _ in range(5)]
        not_in_algebra[0][1] = Fraction(1)  # upper-left mixing not in the flat algebra
        with pytest.raises(ProjlimError):
            rep_limit_commute_check(po, GALILEI_SEQ, FUNDAMENTAL, [not_in_algebra])


class TestSchurDimensions:
    """Schur tags act through symmetrizers on C^5 only."""

    @pytest.mark.parametrize("seq", ["diag(t,1,t)", "diag(t,1,1,t)", "diag(t,1,1,1,1,t)"])
    def test_rho_infinity_refuses_other_m(self, seq):
        with pytest.raises(DimError):
            rho_infinity(RepTag("schur", ((1, 1), ())), parse_sequence(seq))

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_rep_matrix_refuses_other_m(self, m):
        with pytest.raises(DimError):
            rep_matrix(RepTag("schur", ((1,), ())), identity(m))

    def test_m5_keeps_the_symmetrizer_dimension(self):
        rho = rho_infinity(RepTag("schur", ((1, 1), ())), GALILEI_SEQ)
        assert len(rho.rows) == len(rho.rows[0]) == 10


# -- the dense-left-inverse Schur action, kept as an oracle ----------------------


def _dense_is_zero(value):
    return value.is_zero() if isinstance(value, LaurentScalar) else value == 0


def _dense_sparse_columns(matrix):
    out = [dict() for _ in matrix[0]]
    for i, row in enumerate(matrix):
        for j, value in enumerate(row):
            if not _dense_is_zero(value):
                out[j][i] = value
    return out


@functools.cache
def _dense_setup(lam):
    basis, tuples = symmetrizer_basis(lam)
    left_inverse = mat_mul(reference_inverse(mat_mul(transpose(basis), basis)), transpose(basis))
    return basis, tuples, left_inverse


def reference_matrix_of(lam, g, laurent):
    """The induced action with a dense d x 5^p left inverse: every coordinate
    scans the whole tensor image and tests each weight for zero."""
    basis, tuples, left_inverse = _dense_setup(lam)
    p = len(tuples[0]) if tuples else 0
    dim = len(basis[0])
    index_of = {tup: k for k, tup in enumerate(tuples)}
    zero = LaurentScalar.zero() if laurent else Fraction(0)
    if p == 0:
        return [[LaurentScalar.one() if laurent else Fraction(1)]]
    g_cols = _dense_sparse_columns(g)
    columns = []
    for col in _dense_sparse_columns(basis):
        image = {}
        for flat, coeff in col.items():
            partial = {(): LaurentScalar.constant(coeff) if laurent else coeff}
            for j in tuples[flat]:
                nxt = {}
                for prefix, value in partial.items():
                    for i, gij in g_cols[j].items():
                        key = prefix + (i,)
                        nxt[key] = nxt[key] + value * gij if key in nxt else value * gij
                partial = nxt
            for tup_out, value in partial.items():
                flat_out = index_of[tup_out]
                image[flat_out] = image[flat_out] + value if flat_out in image else value
        coords = []
        for i in range(dim):
            total = zero
            for r, value in image.items():
                c = left_inverse[i][r]
                if c == 0:
                    continue
                total = total + (value.scale(c) if laurent else c * value)
            coords.append(total)
        columns.append(coords)
    return [[columns[j][i] for j in range(dim)] for i in range(dim)]


def reference_rho_infinity(lam, dual, b):
    base = transpose(b.matrix().rows) if dual else b.inverse().matrix().rows
    return ProjMatrix(reference_matrix_of(lam, base, laurent=True))


SMALL_TAGS = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def _dense_pm1(rng):
    while True:
        m = [[Fraction(rng.choice((-1, 1))) if rng.random() < 0.6 else Fraction(0) for _ in range(5)]
             for _ in range(5)]
        if reference_rank(m) == 5:
            return m


def schur_sequences(seed=9):
    """Seeded diagonal, permuted and dense +-1 sequences at m = 5."""
    rng = random.Random(seed)

    def weights():
        return [rng.randint(-3, 3) for _ in range(5)]

    eye = identity(5)
    out = [FactoredSequence.diagonal(weights()) for _ in range(3)]
    for _ in range(2):
        perm = list(range(5))
        rng.shuffle(perm)
        out.append(FactoredSequence.build(permutation_matrix(tuple(perm)), weights(), eye))
    out.append(FactoredSequence.build(_dense_pm1(rng), [rng.randint(-1, 1) for _ in range(5)], eye))
    return out, [_dense_pm1(rng) for _ in range(2)] + [permutation_matrix((1, 2, 0, 4, 3))]


SEQUENCES, RATIONAL_GS = schur_sequences()


class TestSchurActionAgainstReference:
    @pytest.mark.parametrize("lam", SMALL_TAGS)
    @pytest.mark.parametrize("dual", [False, True])
    def test_rho_infinity(self, lam, dual):
        tag = RepTag("schur", ((), lam) if dual else (lam, ()))
        for b in SEQUENCES:
            rho = rho_infinity(tag, b)
            expected = reference_rho_infinity(lam, dual, b)
            assert rho == expected
            assert str(rho) == str(expected)
            assert str(rho.limit()) == str(expected.limit())

    @pytest.mark.parametrize("lam", SMALL_TAGS)
    @pytest.mark.parametrize("dual", [False, True])
    def test_rep_matrix(self, lam, dual):
        tag = RepTag("schur", ((), lam) if dual else (lam, ()))
        for g in RATIONAL_GS:
            base = transpose(reference_inverse(g)) if dual else g
            got = rep_matrix(tag, g)
            assert got == reference_matrix_of(lam, base, laurent=False)
            assert all(type(x) is Fraction for row in got for x in row)
