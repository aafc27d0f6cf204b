"""Model spaces, their degenerations, and point-limit classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlim.errors import DimError, ProjlimError
from projlim.geometry import (
    GAUGE_DIRECTION,
    classify_point_limit,
    gauge_equivalent,
    geometry_limit,
    in_model_space,
    limit_signature,
    scale_matrix,
    transform_vector,
)
from projlim.parsing import parse_sequence
from projlim.projective import ProjPoint

FLAT = ((1, 0), (3, 1))
GALILEI_SEQ = parse_sequence("diag(t,1,1,1,t)")


class TestModelSpace:
    def test_interior_boundary_outside(self):
        assert in_model_space((4, 1), [1, 0, 0, 0, 0]) == "interior"
        assert in_model_space((4, 1), [1, 0, 0, 0, 1]) == "boundary"
        assert in_model_space((4, 1), [1, 0, 0, 0, 2]) == "outside"

    def test_flat_geometry_uses_first_block(self):
        # first block (1,0): interior iff the first coordinate is nonzero
        assert in_model_space(FLAT, [1, 9, 9, 9, 9]) == "interior"
        assert in_model_space(FLAT, [0, 1, 0, 0, 0]) == "boundary"

    def test_accepts_proj_points(self):
        assert in_model_space((4, 1), ProjPoint([2, 0, 0, 0, 0])) == "interior"


class TestLimitSignature:
    def test_single_split_preserves_totals(self):
        assert limit_signature(3, 2, {4}) == ((3, 1), (0, 1))

    def test_two_splits(self):
        assert limit_signature(4, 1, {1, 4}) == ((1, 0), (3, 0), (0, 1))

    def test_no_split_is_identity(self):
        assert limit_signature(4, 1, set()) == ((4, 1),)

    @given(
        st.integers(1, 4),
        st.integers(0, 3),
        st.sets(st.integers(1, 6), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_totals_always_preserved(self, p, q, splits):
        m = p + q
        splits = {s for s in splits if 0 < s < m}
        sig = limit_signature(p, q, splits)
        assert sum(pp for pp, qq in sig) == p
        assert sum(qq for pp, qq in sig) == q
        assert len(sig) == len(splits) + 1


class TestGeometryLimit:
    def test_flat_to_galilei(self):
        assert geometry_limit(FLAT, GALILEI_SEQ) == (
            ((1, 0), (1, 0), (3, 0)),
            (0, 2, 3, 4, 1),
        )

    def test_positive_curvature_to_flat(self):
        seq = parse_sequence("diag(t^4,t^-1,t^-1,t^-1,t^-1)")
        assert geometry_limit((4, 1), seq) == (((1, 0), (3, 1)), (0, 1, 2, 3, 4))


class TestClassifyPointLimit:
    def test_generic_interior_point_hits_boundary(self):
        report = classify_point_limit(FLAT, GALILEI_SEQ, ProjPoint([1, 2, 3, 4, 5]))
        assert report.kind == "boundary"
        assert report.point == ProjPoint([0, 2, 3, 4, 0])

    def test_time_axis_point_stays_interior(self):
        report = classify_point_limit(FLAT, GALILEI_SEQ, ProjPoint([1, 0, 0, 0, 7]))
        assert report.kind == "interior_lower_dim"
        assert report.point == ProjPoint([1, 0, 0, 0, 7])

    def test_origin_is_fixed(self):
        report = classify_point_limit(FLAT, GALILEI_SEQ, ProjPoint([1, 0, 0, 0, 0]))
        assert report.kind == "interior_lower_dim"
        assert report.vanishing  # some coordinates are pinned to zero

    def test_interior_precondition(self):
        with pytest.raises(ProjlimError):
            classify_point_limit(FLAT, GALILEI_SEQ, ProjPoint([0, 1, 0, 0, 0]))

    def test_generic_kind_requires_full_rank(self):
        # an invertible constant sequence keeps interior points generic
        from projlim.projective import FactoredSequence

        seq = FactoredSequence.constant(
            [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        )
        report = classify_point_limit(FLAT, seq, ProjPoint([1, 2, 0, 0, 0]))
        assert report.kind == "interior_generic"

    def test_as_dict_shape(self):
        report = classify_point_limit(FLAT, GALILEI_SEQ, ProjPoint([1, 2, 3, 4, 5]))
        d = report.as_dict()
        assert set(d) >= {"kind", "point", "vanishing", "limit_signature"}

    @pytest.mark.parametrize(
        "sig, seq, point",
        [
            (((2, 1),), "diag(t,1,1)", [1, 0, 0]),
            (((3, 1),), "diag(t,1,1,1)", [1, 0, 0, 0]),
            (((5, 1),), "diag(t,1,1,1,1,t)", [2, 0, 0, 0, 0, 1]),
        ],
    )
    def test_other_dimensions(self, sig, seq, point):
        report = classify_point_limit(sig, parse_sequence(seq), ProjPoint(point))
        assert report.kind == "interior_lower_dim"
        assert report.point == ProjPoint(point)


class TestTransformAndGauge:
    def test_transform_vector_matches_point_limit(self):
        assert transform_vector([1, 2, 3, 4, 5], GALILEI_SEQ) == ProjPoint([0, 2, 3, 4, 0])

    def test_gauge_direction_is_lightlike_combination(self):
        assert GAUGE_DIRECTION == (1, 1, 1, 1, -1)

    def test_gauge_equivalence_basics(self):
        g = list(GAUGE_DIRECTION)
        assert gauge_equivalent(g, [2 * c for c in g])
        assert gauge_equivalent([1, 0, 0, 0, 0], [1, 0, 0, 0, 0])
        # shifting by the gauge direction is allowed
        w = [1, 1, 0, 0, 0]
        shifted = [w[i] - GAUGE_DIRECTION[i] for i in range(5)]
        assert gauge_equivalent(w, shifted)

    def test_gauge_needs_five_components(self):
        with pytest.raises(DimError):
            gauge_equivalent([1, 0, 0, 0], [1, 0, 0, 0])

    def test_gauge_inequivalence(self):
        assert not gauge_equivalent([1, 0, 0, 0, 0], [0, 1, 0, 0, 0])

    @given(st.lists(st.integers(-3, 3), min_size=5, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_gauge_relation_is_reflexive_and_symmetric(self, w):
        if all(c == 0 for c in w):
            return
        assert gauge_equivalent(w, w)
        shifted = [w[i] + GAUGE_DIRECTION[i] for i in range(5)]
        if any(c != 0 for c in shifted):
            assert gauge_equivalent(w, shifted) == gauge_equivalent(shifted, w)


class TestScaleMatrix:
    def test_uv_and_ir_weights(self):
        assert scale_matrix("uv").weights == (0, 1, 1, 1, 1)
        assert scale_matrix("ir").weights == (0, -1, -1, -1, -1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ProjlimError):
            scale_matrix("sideways")
