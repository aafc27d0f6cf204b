"""Correlator degeneration: component survival, scale limits, functoriality."""

import functools
import hashlib
import importlib.resources
import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlim import correlator as correlator_module
from projlim import laurent, linalg, projective
from projlim.errors import DimError, ExponentOverflow, NotInvertible, ProjlimError, TooLarge
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
from projlim.laurent import MAX_EXPONENT, LaurentScalar, rational_combination
from projlim.lie import LieAlgebraSpan, build_po, truncated_exp
from projlim.linalg import dense_rows, identity, mat_mul, transpose
from projlim.parsing import parse_sequence
from projlim.projective import FactoredSequence, ProjMatrix, invert_permutation

from _reference import (
    permutation_matrix,
    reference_inverse,
    reference_rank,
    reference_rref,
    reference_symmetrizer_matrix,
)

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

    @pytest.mark.parametrize("perm", [(0, 0, 2, 3, 4), (0, 1, 2, 3, 7), (-1, 0, 1, 2, 3)])
    def test_a_non_permutation_is_refused(self, perm):
        spec = make_correlator(FLAT, [FUNDAMENTAL])
        with pytest.raises(NotInvertible, match=rf"^{re.escape(str(perm))} is not a permutation of 0\.\.4$"):
            degenerate(spec, GALILEI_SEQ, perm, None)

    def test_a_permutation_of_another_length_is_refused(self):
        spec = make_correlator(FLAT, [FUNDAMENTAL])
        with pytest.raises(DimError, match="^permutation of length 4 for a sequence of dimension 5$"):
            degenerate(spec, GALILEI_SEQ, (1, 0, 2, 3), None)

    def test_composed_permutation_equals_the_dense_premultiplied_sequence(self):
        """The relabelled rows equal the constant sequence of the dense
        P(perm)^-1 composed with b, factors and inverses, over seeded
        sequences with identity, permutation and dense factors at m = 3..7."""
        rng = random.Random(43)
        for b in plain_sequences(seed=43):
            perm = tuple(rng.sample(range(b.dim), b.dim))
            composed = correlator_module._compose_permutation(b, perm)
            expected = FactoredSequence.constant(permutation_matrix(invert_permutation(perm))).compose(b)
            assert composed == expected
            assert (composed.left_inv, composed.right_inv) == (expected.left_inv, expected.right_inv)

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

    @pytest.mark.parametrize("dual", [False, True])
    def test_schur_path_feeds_the_sparse_rows(self, monkeypatch, dual):
        """The induced action gets the sparse rows of b h b^-1 and of its
        limit (their transposes on the dual side), and no dense matrix of
        either is formed: no ``ProjMatrix.__init__`` or ``ProjMatrix.rows``
        call, and no ``dense_rows`` or ``sparse_rows`` call on Laurent
        entries (watched by code object; the rational samples h are checked
        for invertibility through the dense ``linalg.inverse``, a view of the
        sparse inverse)."""
        po = build_po(FLAT)
        rotation = [[Fraction(0)] * 5 for _ in range(5)]
        rotation[1][2], rotation[2][1] = Fraction(1), Fraction(-1)
        boost = [[Fraction(0)] * 5 for _ in range(5)]
        boost[3][4] = boost[4][3] = boost[1][0] = Fraction(1)
        fed = []
        rows_of = correlator_module._SchurAction.rows_of

        def recording(self, g):
            fed.append(g)
            return rows_of(self, g)

        watched = {
            ProjMatrix.__init__.__code__,
            ProjMatrix.rows.fget.__code__,
            linalg.dense_rows.__code__,
            linalg.sparse_rows.__code__,
        }
        dense = []

        def laurent(rows):
            return any(isinstance(v, LaurentScalar) for row in rows for e in row for v in (e if isinstance(e, tuple) else (e,)))

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                rows = frame.f_locals.get("rows")
                if not isinstance(rows, (list, tuple)) or laurent(rows):
                    dense.append(frame.f_code.co_name)

        monkeypatch.setattr(correlator_module._SchurAction, "rows_of", recording)
        tag = _schur_tag((2, 1), dual)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            assert rep_limit_commute_check(po, GALILEI_SEQ, tag, [rotation, boost])
        finally:
            sys.setprofile(previous)
        assert dense == []
        expected = []
        for x in (rotation, boost):
            conj = GALILEI_SEQ.conjugate(truncated_exp(x, 3))
            for pm in (conj, conj.limit()):
                expected.append(projective.transpose_rows(pm.sparse) if dual else pm.sparse)
        assert fed == expected and expected[0] != projective.transpose_rows(expected[0])

    def test_right_action_compares_the_inverse_limit(self):
        """rho(g) = g^-1.  A rotation of the spatial block commutes with
        diag(t,1,1,1,t), so both sides are the reference inverse of its
        truncated exponential h.  A boost whose conjugate tends to a
        singular matrix has no inverse limit, and the check refuses it."""
        rotation = [[Fraction(0)] * 5 for _ in range(5)]
        rotation[1][2], rotation[2][1] = Fraction(1), Fraction(-1)
        h_inv = reference_inverse(truncated_exp(rotation, 3))
        assert GALILEI_SEQ.conjugate(h_inv).limit() == ProjMatrix(h_inv) != ProjMatrix(identity(5))
        assert rep_limit_commute_check(build_po(FLAT), GALILEI_SEQ, RIGHT_ACTION, [rotation])
        boost = [[Fraction(0)] * 5 for _ in range(5)]
        boost[3][4] = boost[4][3] = boost[1][0] = Fraction(1)
        with pytest.raises(NotInvertible):
            rep_limit_commute_check(build_po(FLAT), GALILEI_SEQ, RIGHT_ACTION, [boost])

    @pytest.mark.parametrize("lam", [(1, 1), (2, 1)], ids=str)
    @pytest.mark.parametrize("dual", [False, True])
    def test_identity_conjugates_commute(self, lam, dual):
        """A zero sample (h = 1, so b h b^-1 is the identity) and a sample
        whose conjugate b h b^-1 = 1 + t E_43 tends to the identity both
        commute: the induced action of the Laurent identity rows stays
        Laurent on both sides of the comparison."""
        tag = _schur_tag(lam, dual)
        zero = [[Fraction(0)] * 5 for _ in range(5)]
        assert rep_limit_commute_check(build_po(FLAT), GALILEI_SEQ, tag, [zero])
        contracted = [[Fraction(0)] * 5 for _ in range(5)]
        contracted[4][3] = Fraction(1)
        assert GALILEI_SEQ.conjugate(truncated_exp(contracted, 3)).limit() == ProjMatrix(identity(5))
        assert rep_limit_commute_check(LieAlgebraSpan(5, [contracted]), GALILEI_SEQ, tag, [contracted])

    @pytest.mark.parametrize("rep", [FUNDAMENTAL, RIGHT_ACTION, RepTag("schur", ((1, 1), ()))], ids=str)
    def test_sequence_of_another_dimension_is_refused(self, rep):
        """An m = 4 algebra with a 6-dimensional sequence is refused on every
        path, before any sample is looked at."""
        rotation = [[Fraction(0)] * 4 for _ in range(4)]
        rotation[0][1], rotation[1][0] = Fraction(1), Fraction(-1)
        b = FactoredSequence.diagonal([1, 0, 0, 0, 0, 0])
        with pytest.raises(DimError) as caught:
            rep_limit_commute_check(build_po(((3, 1),)), b, rep, [rotation])
        assert str(caught.value) == "sequence dimension 6 != algebra ambient 4"

    @pytest.mark.parametrize(
        "rep", [FUNDAMENTAL, RIGHT_ACTION, RepTag("schur", ((1, 1), ())), RepTag("schur", ((1,), (1,)))], ids=str
    )
    def test_empty_sample_list_is_refused(self, rep):
        with pytest.raises(DimError) as caught:
            rep_limit_commute_check(build_po(FLAT), GALILEI_SEQ, rep, [])
        assert str(caught.value) == "the check needs at least one sample element"


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
    """The pivot columns of the dense symmetrizer matrix, as a 5^p x d
    matrix, found by the dense Gauss-Jordan (no code shared with the sparse
    builder), the index tuples and a dense left inverse of the basis."""
    matrix, tuples = reference_symmetrizer_matrix(lam)
    _, pivots = reference_rref(matrix)
    basis = [[row[j] for j in pivots] for row in matrix]
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


SMALL_TAGS = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def _dense_pm1(rng):
    while True:
        m = [[Fraction(rng.choice((-1, 1))) if rng.random() < 0.6 else Fraction(0) for _ in range(5)]
             for _ in range(5)]
        if reference_rank(m) == 5:
            return m


def schur_sequences(seed=9):
    """Seeded m = 5 sequences: diagonal, a permuted or dense +-1 left factor,
    a permuted right factor, dense +-1 factors on both sides, and weights up
    to +-MAX_EXPONENT/3."""
    rng = random.Random(seed)

    def weights(bound=3):
        return [rng.randint(-bound, bound) for _ in range(5)]

    def perm():
        order = list(range(5))
        rng.shuffle(order)
        return permutation_matrix(tuple(order))

    eye = identity(5)
    out = [FactoredSequence.diagonal(weights()) for _ in range(3)]
    for _ in range(2):
        out.append(FactoredSequence.build(perm(), weights(), eye))
    out.append(FactoredSequence.build(_dense_pm1(rng), weights(1), eye))
    gs = [_dense_pm1(rng) for _ in range(2)] + [permutation_matrix((1, 2, 0, 4, 3))]
    big = MAX_EXPONENT // 3
    out += [
        FactoredSequence.build(eye, weights(), perm()),
        FactoredSequence.build(perm(), weights(), perm()),
        FactoredSequence.build(_dense_pm1(rng), weights(1), _dense_pm1(rng)),
        FactoredSequence.diagonal(weights(big)),
        FactoredSequence.build(perm(), [rng.randint(0, big) for _ in range(5)], perm()),
        FactoredSequence.build(_dense_pm1(rng), weights(big), _dense_pm1(rng)),
    ]
    return out, gs


SEQUENCES, RATIONAL_GS = schur_sequences()


def _schur_tag(lam, dual):
    return RepTag("schur", ((), lam) if dual else (lam, ()))


def _column_exponents(lam, dual, b):
    """The exponent of t on each symmetrizer basis column under the diagonal
    factor of b^-1 (of b^T on the dual side), less the least of them: the
    exponents of the canonical rho-infinity."""
    basis, tuples, _ = _dense_setup(lam)
    signed = b.weights if dual else [-w for w in b.weights]
    out = []
    for j in range(len(basis[0])):
        tup = next(tuples[r] for r, row in enumerate(basis) if row[j] != 0)
        out.append(sum(signed[i] for i in tup))
    return [e - min(out) for e in out]


def reference_surviving(rep, rho):
    """Survivors read off the limit matrix, as surviving_components did."""
    limit = rho.limit().constant_rows()
    if rep.kind == "right_action":
        return tuple(i + 1 for i, row in enumerate(limit) if any(x != 0 for x in row))
    return tuple(j + 1 for j in range(len(limit[0])) if any(row[j] != 0 for row in limit))


class TestSchurActionAgainstReference:
    @pytest.mark.parametrize("lam", SMALL_TAGS)
    @pytest.mark.parametrize("dual", [False, True])
    def test_rho_infinity(self, lam, dual, monkeypatch):
        """Equal to the dense Laurent action of b(t)^-1 (of b(t)^T on the dual
        side), with the same survivors as the limit matrix gives.  The
        factored action raises ExponentOverflow exactly when a canonical
        exponent exceeds the bound, and the reference raises then too.  The
        reference multiplies canonical factors, whose exponents can exceed
        those of the result (the diagonal sequence with weights up to
        MAX_EXPONENT/3 and lam = (1, 1, 1) does), so there it is compared
        with the bound lifted."""
        tag = _schur_tag(lam, dual)
        for b in SEQUENCES:
            if max(_column_exponents(lam, dual, b)) > MAX_EXPONENT:
                with pytest.raises(ExponentOverflow):
                    rho_infinity(tag, b)
                with pytest.raises(ExponentOverflow):
                    reference_rho_infinity(lam, dual, b)
                continue
            rho = rho_infinity(tag, b)
            try:
                expected = reference_rho_infinity(lam, dual, b)
            except ExponentOverflow:
                with monkeypatch.context() as lifted:
                    lifted.setattr(laurent, "MAX_EXPONENT", 3 * MAX_EXPONENT)
                    expected = reference_rho_infinity(lam, dual, b)
            assert rho == expected and hash(rho) == hash(expected)
            assert str(rho) == str(expected)
            assert str(rho.limit()) == str(expected.limit())
            assert surviving_components(tag, rho) == reference_surviving(tag, rho)

    @pytest.mark.parametrize("lam", SMALL_TAGS)
    @pytest.mark.parametrize("dual", [False, True])
    def test_rep_matrix(self, lam, dual):
        tag = _schur_tag(lam, dual)
        for g in RATIONAL_GS:
            base = transpose(reference_inverse(g)) if dual else g
            got = rep_matrix(tag, g)
            assert got == reference_matrix_of(lam, base, laurent=False)
            assert all(type(x) is Fraction for row in got for x in row)

    @pytest.mark.parametrize("lam", SMALL_TAGS)
    def test_weight_shift_changes_nothing(self, lam):
        """rho(t^k b) = t^(pk) rho(b) is the same projective matrix, also when
        the shifted weights exceed the exponent bound (the dense action of
        b^-1 builds t^-w and raised there)."""
        for dual in (False, True):
            tag = _schur_tag(lam, dual)
            for b in SEQUENCES[:3]:
                shifted = FactoredSequence.diagonal([w + MAX_EXPONENT for w in b.weights])
                assert str(rho_infinity(tag, shifted)) == str(rho_infinity(tag, b))

    @pytest.mark.parametrize("rep", [FUNDAMENTAL, RIGHT_ACTION])
    def test_plain_survivors(self, rep):
        for b in SEQUENCES:
            rho = rho_infinity(rep, b)
            assert surviving_components(rep, rho) == reference_surviving(rep, rho)


def plain_sequences(seed=26):
    """Seeded sequences at m = 3..7 with identity, permutation and dense
    0/+-1/2 factors on either side and weights in -3..3."""
    rng = random.Random(seed)

    def factor(kind, m):
        if kind == "identity":
            return identity(m)
        if kind == "permutation":
            return permutation_matrix(tuple(rng.sample(range(m), m)))
        while True:
            rows = [[Fraction(rng.choice((0, 0, 1, -1, 2))) for _ in range(m)] for _ in range(m)]
            if reference_rank(rows) == m:
                return rows

    kinds = ("identity", "permutation", "dense")
    for m in range(3, 8):
        for left in kinds:
            for right in kinds:
                yield FactoredSequence.build(factor(left, m), [rng.randint(-3, 3) for _ in range(m)], factor(right, m))


class TestPlainTagsAgainstSequence:
    """fundamental and right_action act through the module of (1); their
    rho-infinity is still the sequence's own inverse and matrix, and rho(g)
    is still g and g^-1."""

    def test_rho_infinity(self):
        for b in plain_sequences():
            assert str(rho_infinity(FUNDAMENTAL, b)) == str(b.inverse().matrix())
            assert str(rho_infinity(RIGHT_ACTION, b)) == str(b.matrix())

    def test_rep_matrix(self):
        for b in plain_sequences(seed=27):
            g = dense_rows(b.left)
            fundamental, right = rep_matrix(FUNDAMENTAL, g), rep_matrix(RIGHT_ACTION, g)
            assert fundamental == g and right == reference_inverse(g)
            assert all(type(x) is Fraction for rows in (fundamental, right) for row in rows for x in row)

    def test_rep_matrix_makes_no_dense_inverse(self, monkeypatch):
        """rho(g) inverts the sparse rows of g: no ``linalg.inverse`` call,
        for any tag, an invertible g or a singular one."""
        calls = []
        for home in (linalg, correlator_module):
            monkeypatch.setattr(home, "inverse", lambda a: calls.append(a))
        g = dense_rows(parse_sequence("compose([[1,1,0,0,0],[0,1,0,0,0],[0,0,1,0,0],[0,0,0,0,1],[0,0,0,1,0]],diag(t,1,1,1,t))").left)
        for rep in (FUNDAMENTAL, RIGHT_ACTION, RepTag("schur", ((1, 1), ())), RepTag("schur", ((), (2,)))):
            assert rep_matrix(rep, g)
            with pytest.raises(NotInvertible):
                rep_matrix(rep, [[1, 0, 0, 0, 0]] * 5)
        assert calls == []

    def test_module_of_one_acts_by_g_itself(self):
        """The module of (1) has the unit basis: ``rows_of(g)`` is g, equal to
        the tensor action it skips, for rational and Laurent g at n = 2-7."""
        rng = random.Random(28)
        t = LaurentScalar.t
        for n in range(2, 8):
            action = correlator_module._schur_action((1,), n)
            tensor = correlator_module._SchurAction((1,), n)
            tensor.fundamental = False  # the general path: tensor image and coordinates
            for _ in range(4):
                rational = [[Fraction(rng.choice((0, 0, 1, -1, 2)), rng.choice((1, 3))) for _ in range(n)] for _ in range(n)]
                laurent_g = [[rng.choice((0, 1, -2)) * t(rng.randint(-3, 3)) + rng.choice((0, 1)) for _ in range(n)] for _ in range(n)]
                for g in (projective.sparse_rows(rational), projective.sparse_rows(laurent_g)):
                    assert action.rows_of(g) == g == tensor.rows_of(g), g


def digest_sequences(seed=2027):
    """Seeded m = 5 sequences: diagonal, and a permutation on the left, on
    the right or on both sides, with weights in -4..4."""
    rng = random.Random(seed)

    def weights():
        return [rng.randint(-4, 4) for _ in range(5)]

    def perm():
        return permutation_matrix(tuple(rng.sample(range(5), 5)))

    eye = identity(5)
    out = [FactoredSequence.diagonal(weights()) for _ in range(8)]
    out += [FactoredSequence.build(perm(), weights(), eye) for _ in range(4)]
    out += [FactoredSequence.build(eye, weights(), perm()) for _ in range(4)]
    out += [FactoredSequence.build(perm(), weights(), perm()) for _ in range(4)]
    return out


# sha256 (first 16 hex digits) over digest_sequences() of the lines
# "<rho-infinity>|<its limit>|<survivors>", as printed when ProjMatrix stored
# its dense canonical rows.
RHO_DIGESTS = {
    "fundamental": "500667479237e298",
    "right_action": "895027c202faba28",
    "schur([1],[])": "500667479237e298",
    "schur([],[1])": "86b6e1a3f1140145",
    "schur([2],[])": "bb9933f2a64c9bc3",
    "schur([],[2])": "eb13eb07ad16b6dd",
    "schur([1,1],[])": "e3cde26f2579211d",
    "schur([],[1,1])": "0993cf0e3b9e6817",
    "schur([3],[])": "7953cc478ef4dbd5",
    "schur([],[3])": "3a3b19c9ddc00b5a",
    "schur([2,1],[])": "0108e5a424a70b88",
    "schur([],[2,1])": "f7584dcd8a8736c0",
    "schur([1,1,1],[])": "801d5b0591ad0db4",
    "schur([],[1,1,1])": "62aab547c6f42cb4",
}


class TestRhoInfinityBytes:
    @pytest.mark.parametrize(
        "tag",
        [FUNDAMENTAL, RIGHT_ACTION] + [_schur_tag(lam, dual) for lam in SMALL_TAGS[1:] for dual in (False, True)],
        ids=str,
    )
    def test_printed_bytes_unchanged(self, tag):
        h = hashlib.sha256()
        for b in digest_sequences():
            rho = rho_infinity(tag, b)
            h.update(f"{rho}|{rho.limit()}|{surviving_components(tag, rho)}\n".encode())
        assert h.hexdigest()[:16] == RHO_DIGESTS[str(tag)]


class TestSchurBasisBuild:
    """Building a schur action makes one elimination of the symmetrized
    tensors and never a dense symmetrizer: no ``linalg.rref`` and no
    ``linalg.zeros`` call (watched by code object, so an import under
    another name is seen too)."""

    def test_one_sparse_elimination_per_diagram(self, monkeypatch):
        watched = {linalg.rref.__code__: "rref", linalg.zeros.__code__: "zeros"}
        dense_calls = []
        counts = {"echelons": 0, "inserts": 0}
        init, insert = linalg.Echelon.__init__, linalg.Echelon.insert

        def counted_init(self, order=None):
            counts["echelons"] += 1
            init(self, order)

        def counted_insert(self, v):
            counts["inserts"] += 1
            return insert(self, v)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                dense_calls.append(watched[frame.f_code])

        monkeypatch.setattr(linalg.Echelon, "__init__", counted_init)
        monkeypatch.setattr(linalg.Echelon, "insert", counted_insert)
        previous = sys.getprofile()
        correlator_module._schur_action.cache_clear()
        try:
            for lam in SMALL_TAGS:
                counts.update(echelons=0, inserts=0)
                sys.setprofile(profile)
                try:
                    action = correlator_module._schur_action(lam, 5)
                finally:
                    sys.setprofile(previous)
                # One echelon of the 5^p symmetrized tensors, one for the
                # inverse of the pivot block (a row per basis column).
                assert action.dim == len(_dense_setup(lam)[0][0])
                assert counts == {"echelons": 2, "inserts": 5 ** sum(lam) + action.dim}, lam
        finally:
            correlator_module._schur_action.cache_clear()
        assert dense_calls == []


_MIXED = ("mixed diagram pairs need the traceless composite module; "
          "only single-sided schur tags are supported")
_CAPPED = "symmetrizer construction is capped at 3 boxes"
_NOT_5X5 = "schur tags act on 5x5 matrices only"


class TestSchurRefusalOrder:
    """One resolver refuses schur tags, in this order: a mixed pair, a
    diagram over the symmetrizer cap, then an ambient dimension other than 5,
    with the same texts from rho_infinity, rep_matrix and
    rep_limit_commute_check."""

    CASES = [
        (((2, 2), (1,)), TooLarge, _MIXED),
        (((1,), (1, 1, 1)), TooLarge, _MIXED),
        (((2, 2), ()), TooLarge, _CAPPED),
        (((), (4,)), TooLarge, _CAPPED),
        (((2, 1), ()), DimError, _NOT_5X5),
        (((), (1, 1, 1)), DimError, _NOT_5X5),
    ]

    @staticmethod
    def requests(m):
        rotation = [[Fraction(0)] * m for _ in range(m)]
        rotation[0][1], rotation[1][0] = Fraction(1), Fraction(-1)
        b = FactoredSequence.diagonal([1] + [0] * (m - 1))
        po = build_po(((m - 1, 1),))
        return {
            "rho_infinity": lambda rep: rho_infinity(rep, b),
            "rep_matrix": lambda rep: rep_matrix(rep, identity(m)),
            "rep_limit_commute_check": lambda rep: rep_limit_commute_check(po, b, rep, [rotation]),
        }

    @pytest.mark.parametrize("m", [4, 6])
    @pytest.mark.parametrize("pair, error, text", CASES)
    def test_refusal(self, m, pair, error, text):
        for name, request in self.requests(m).items():
            with pytest.raises(ProjlimError) as caught:
                request(RepTag("schur", pair))
            assert type(caught.value) is error, name
            assert str(caught.value) == text, name


class TestRepMatrixRefusesSingular:
    @pytest.mark.parametrize(
        "rep",
        [FUNDAMENTAL, RIGHT_ACTION, RepTag("schur", ((1, 1), ())), RepTag("schur", ((), (1, 1)))],
        ids=str,
    )
    def test_one_refusal_for_every_kind(self, rep):
        g = [[1, 0, 0, 0, 0]] * 5
        with pytest.raises(NotInvertible) as caught:
            rep_matrix(rep, g)
        assert str(caught.value) == (
            "rho(g) needs an invertible group element g, got g = "
            "[[1, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0]]"
        )


    def test_a_non_square_g_is_refused_alike(self):
        with pytest.raises(NotInvertible) as caught:
            rep_matrix(FUNDAMENTAL, [[1, 0, 0], [0, 1, 0]])
        assert str(caught.value) == "rho(g) needs an invertible group element g, got g = [[1, 0, 0], [0, 1, 0]]"


class TestSchurWorkBound:
    """Call counts of rho_infinity for schur tags, so that a return to the
    Laurent tensor product fails on any host: the diagonal factor never gets
    the tensor action, and a rational factor gets it once per basis column."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"laurent_mul": 0, "tensor_image": 0, "rings": set()}
        mul = LaurentScalar.__mul__
        image = correlator_module._SchurAction._tensor_image

        def counted_mul(self, other):
            counts["laurent_mul"] += 1
            return mul(self, other)

        def counted_image(self, g_cols, col):
            counts["tensor_image"] += 1
            counts["rings"].update(type(x) for column in g_cols for _, x in column)
            return image(self, g_cols, col)

        monkeypatch.setattr(LaurentScalar, "__mul__", counted_mul)
        monkeypatch.setattr(LaurentScalar, "__rmul__", counted_mul)
        monkeypatch.setattr(correlator_module._SchurAction, "_tensor_image", counted_image)
        return counts

    @pytest.mark.parametrize("lam", SMALL_TAGS)
    @pytest.mark.parametrize("dual", [False, True])
    def test_diagonal_sequence(self, calls, lam, dual):
        tag = _schur_tag(lam, dual)
        rho = rho_infinity(tag, FactoredSequence.diagonal([3, -1, 0, 2, -2]))
        surviving_components(tag, rho)
        assert calls == {"laurent_mul": 0, "tensor_image": 0, "rings": set()}

    @staticmethod
    def _built(tag, b):
        """The exponents of the ``LaurentScalar.t`` calls and the number of
        ``rational_combination`` calls made by rho_infinity and
        surviving_components (watched by code object)."""
        watched = {LaurentScalar.t.__func__.__code__: "t", rational_combination.__code__: "combination"}
        seen = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                seen.append((watched[frame.f_code], frame.f_locals.get("exponent")))

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            surviving_components(tag, rho_infinity(tag, b))
        finally:
            sys.setprofile(previous)
        return [e for kind, e in seen if kind == "t"], sum(kind == "combination" for kind, _ in seen)

    @pytest.mark.parametrize("lam", SMALL_TAGS)
    @pytest.mark.parametrize("dual", [False, True])
    def test_diagonal_sequence_builds_each_power_once(self, lam, dual):
        """Along a diagonal sequence no product is formed, and each distinct
        column exponent gets one t^e."""
        b = FactoredSequence.diagonal([3, -1, 0, 2, -2])
        powers, combinations = self._built(_schur_tag(lam, dual), b)
        assert combinations == 0
        assert sorted(powers) == sorted(set(_column_exponents(lam, dual, b)))

    @pytest.mark.parametrize("rep", [FUNDAMENTAL, RIGHT_ACTION], ids=str)
    def test_diagonal_sequence_builds_each_power_once_plain_tags(self, rep):
        weights = [3, -1, 3, 0, -1]
        signed = [-w for w in weights] if rep is FUNDAMENTAL else weights
        powers, combinations = self._built(rep, FactoredSequence.diagonal(weights))
        assert combinations == 0
        assert sorted(powers) == sorted({e - min(signed) for e in signed})

    @pytest.mark.parametrize("rep", [FUNDAMENTAL, RIGHT_ACTION], ids=str)
    @pytest.mark.parametrize("m", range(3, 8))
    def test_diagonal_sequence_plain_tags(self, calls, rep, m):
        rho = rho_infinity(rep, FactoredSequence.diagonal([(3 * i) % 5 - 2 for i in range(m)]))
        surviving_components(rep, rho)
        assert calls == {"laurent_mul": 0, "tensor_image": 0, "rings": set()}

    @pytest.mark.parametrize("lam", SMALL_TAGS)
    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_one_rational_factor(self, calls, lam, dual, side):
        eye = identity(5)
        factor = [[1, 2, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, -1, 0, 0, 3]]
        left, right = (factor, eye) if side == "left" else (eye, factor)
        rho_infinity(_schur_tag(lam, dual), FactoredSequence.build(left, [3, -1, 0, 2, -2], right))
        if lam == (1,):
            # The module of (1) has the unit basis: its action is the factor itself.
            assert calls["tensor_image"] == 0 and calls["rings"] == set()
            return
        assert calls["tensor_image"] == len(_dense_setup(lam)[0][0])
        assert calls["rings"] == {Fraction}
