"""Young-diagram representation theory for sl(5,R).

Irreducible tensor modules are labeled by pairs of Young diagrams
``(lam, lam_bar)`` — symmetrization patterns for covariant and contravariant
tensor slots.  This module computes their dimensions (Weyl formula),
Littlewood-Richardson products, skew quotients, the branching to the Lorentz
subalgebra via division by the formal sum Delta of even-row diagrams (King,
J. Phys. A 8 (1975) 429), exterior-power spin content, spin and statistics
assignments, and the classifier deciding which modules stay irreducible under
the flat-limit (Poincare) structure algebra.

Littlewood-Richardson numbers come from one enumerator of the LR tableaux of
a skew shape, pruned cell by cell as they are filled: the quotient lam/mu is
the tally over lam/mu (c^lam_{mu,nu} = c^lam_{nu,mu}), and the product
s_lam * s_mu the tally over lam * mu, with mu set north-east of lam
(s_{lam * mu} = s_lam * s_mu).  Their work is capped by ``_LR_CAP``.

The Young symmetrizer of a diagram of at most 3 boxes has one sparse weight
basis of its image on the tensor power of C^n (``symmetrizer_basis``; n = 5
unless asked, and the fundamental module is that of (1) on C^n): the
symmetrized tensors c e_T that raise the rank of one ``Echelon``, which are
the pivot columns of the symmetrizer's matrix.  That matrix is never formed.

Diagrams are tuples of weakly decreasing positive row lengths; ``()`` denotes
the empty diagram.  Half-integer spins are carried as doubled integers
internally and surfaced as exact :class:`fractions.Fraction` values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .errors import DimError, NotColumnOnly, ShapeError, TooLarge
from .linalg import Echelon, exact, integers

__all__ = [
    "Diagram",
    "DiagramPair",
    "validate_diagram",
    "validate_pair",
    "boxes",
    "height",
    "conjugate_diagram",
    "diagram_str",
    "pair_str",
    "schur_dim",
    "lr_decompose",
    "skew_divide",
    "BranchSummand",
    "BranchResult",
    "branch_to_lorentz",
    "LorentzIrrep",
    "exterior_power_spins",
    "spin_total",
    "statistics",
    "IrreducibilityVerdict",
    "is_poincare_irreducible",
    "symmetrizer_basis",
    "symmetrizer_image_dim",
    "tensor_power_decompose",
    "spin_statistics_obeyed",
]

Diagram = Tuple[int, ...]
DiagramPair = Tuple[Diagram, Diagram]

RANK = 4  # sl(5) has rank 4
DIM_FUND = 5

_SYMMETRIZER_CAP = 3  # boxes of the explicit Young symmetrizers

#: Cells one LR computation may set up or fill.  The tableaux count grows
#: exponentially; at this cap the slowest input takes ~1.5 s (Python 3.11).
_LR_CAP = 1_000_000


def validate_diagram(rows: Iterable[int]) -> Diagram:
    """Normalize a diagram to a tuple of weakly decreasing positive rows; a
    row that is not an integer is refused (NotExact), not truncated."""
    out = integers(rows, "row lengths")
    for r in out:
        if r < 1:
            raise ShapeError(f"row lengths must be positive, got {r}")
    for a, b in zip(out, out[1:]):
        if a < b:
            raise ShapeError(f"row lengths must weakly decrease, got {out}")
    return out


def validate_pair(pair: Sequence[Iterable[int]]) -> DiagramPair:
    if len(pair := tuple(pair)) != 2:
        raise ShapeError(f"a diagram pair has two diagrams, got {len(pair)}")
    lam, lam_bar = pair
    return validate_diagram(lam), validate_diagram(lam_bar)


def boxes(lam: Diagram) -> int:
    return sum(lam)


def height(lam: Diagram) -> int:
    return len(lam)


def conjugate_diagram(lam: Diagram) -> Diagram:
    """Transpose rows and columns."""
    if not lam:
        return ()
    return tuple(sum(1 for r in lam if r > c) for c in range(lam[0]))


def diagram_str(lam: Diagram) -> str:
    return "[" + ",".join(str(r) for r in lam) + "]"


def pair_str(pair: DiagramPair) -> str:
    lam, lam_bar = pair
    return f"({diagram_str(lam)},{diagram_str(lam_bar)})"


def _strip_full_columns(lam: Diagram) -> Diagram:
    """Remove columns of height 5 (they carry the trivial determinant factor)."""
    if height(lam) < DIM_FUND:
        return lam
    cut = lam[DIM_FUND - 1]
    return tuple(r - cut for r in lam[:DIM_FUND] if r > cut)


def _dynkin_labels(pair: DiagramPair) -> tuple[int, ...]:
    """Highest-weight Dynkin labels of the module with covariant pattern lam
    and contravariant pattern lam_bar, both reduced to height <= 4."""
    lam, lam_bar = pair

    def row(d: Diagram, i: int) -> int:  # 1-based, zero beyond height
        return d[i - 1] if 1 <= i <= len(d) else 0

    return tuple(
        (row(lam, i) - row(lam, i + 1)) + (row(lam_bar, RANK + 1 - i) - row(lam_bar, RANK + 2 - i))
        for i in range(1, RANK + 1)
    )


def _weyl_dimension(labels: Sequence[int]) -> int:
    """Weyl dimension formula for sl(5): product over positive root segments."""
    num = 1
    den = 1
    for i in range(RANK):
        for j in range(i, RANK):
            num *= sum(labels[i : j + 1]) + (j - i + 1)
            den *= j - i + 1
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("Weyl dimension did not come out integral")
    return dim


def schur_dim(pair: Sequence[Iterable[int]]) -> int:
    """Dimension of the sl(5) module labeled by a diagram pair.

    Diagrams of height 6 or more label the zero module; height-5 columns are
    stripped (each is a full antisymmetrization, projectively trivial).  The
    empty pair labels the trivial one-dimensional module.

    >>> schur_dim(((1,), ()))
    5
    >>> schur_dim(((1,), (1,)))
    24
    >>> schur_dim(((1, 1, 1, 1, 1, 1), ()))
    0
    """
    lam, lam_bar = validate_pair(pair)
    if height(lam) > DIM_FUND or height(lam_bar) > DIM_FUND:
        return 0
    lam = _strip_full_columns(lam)
    lam_bar = _strip_full_columns(lam_bar)
    return _weyl_dimension(_dynkin_labels((lam, lam_bar)))


# ---------------------------------------------------------------------------
# Littlewood-Richardson combinatorics
# ---------------------------------------------------------------------------


def _partitions_of(n: int, max_first: int | None = None) -> Iterable[Diagram]:
    """All partitions of n, largest part first, lexicographically descending."""
    if n == 0:
        yield ()
        return
    first_cap = n if max_first is None else min(n, max_first)
    for first in range(first_cap, 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def _lr_tableaux(
    outer: Diagram, inner: Diagram, budget: int
) -> tuple[Dict[Diagram, int], int]:
    """LR tableaux of the skew shape outer/inner, tallied by content nu:
    ``{nu: c^outer_{inner,nu}}`` in descending order, and the work done.

    Cells are filled in reverse reading order (rows top to bottom, each row
    right to left), and each placement is checked at once: weak along the
    row, strict down the column, lattice reading word.  Raises
    :class:`TooLarge` once the work exceeds ``budget`` cells.
    """
    if len(inner) > len(outer) or any(i > o for o, i in zip(outer, inner)):
        return {}, 0
    rows = len(outer)
    inner = inner + (0,) * (rows - len(inner))
    right: list[int] = []  # index of the cell to the right, or -1
    above: list[int] = []  # index of the cell above, or -1
    index: dict[tuple[int, int], int] = {}
    for r in range(rows):
        for c in range(outer[r] - 1, inner[r] - 1, -1):
            index[r, c] = len(right)
            right.append(index.get((r, c + 1), -1))
            above.append(index.get((r - 1, c), -1))
    n = len(right)
    if not n:
        return {(): 1}, 0
    count = [n + 1] + [0] * rows  # count[v]: times v is placed; count[0] never binds
    vals = [0] * n
    tally: Dict[Diagram, int] = {}
    work = n  # setting up the shape costs one unit per cell
    k, v = 0, 1
    while True:
        hi = vals[right[k]] if right[k] >= 0 else rows
        while v <= hi and count[v] >= count[v - 1]:
            v = v + 1 if count[v - 1] else hi + 1
        if v > hi:  # no value left for cell k: step back
            k -= 1
            if k < 0:
                break
            v = vals[k]
            count[v] -= 1
            v += 1
            continue
        work += 1
        if work > budget:
            raise TooLarge(f"Littlewood-Richardson work is capped at {_LR_CAP} cells")
        count[v] += 1
        if k == n - 1:
            nu = tuple(c for c in count[1:] if c)
            tally[nu] = tally.get(nu, 0) + 1
            count[v] -= 1
            v += 1
        else:
            vals[k] = v
            k += 1
            v = vals[above[k]] + 1 if above[k] >= 0 else 1
    return dict(sorted(tally.items(), reverse=True)), work


def lr_decompose(lam: Iterable[int], mu: Iterable[int]) -> Dict[Diagram, int]:
    """Littlewood-Richardson product: s_lam * s_mu = sum c^nu_{lam,mu} s_nu.

    Returns the full GL decomposition (no height cap); callers working in
    sl(5) discard heights above 5 via :func:`schur_dim`.

    >>> sorted(lr_decompose((1,), (1,)).items())
    [((1, 1), 1), ((2,), 1)]
    """
    lam = validate_diagram(lam)
    mu = validate_diagram(mu)
    if not mu:
        return {lam: 1}
    if not lam:
        return {mu: 1}
    # s_lam * s_mu is the skew Schur function of lam * mu: mu set north-east
    # of lam, sharing no row or column.
    outer = tuple(lam[0] + r for r in mu) + lam
    return _lr_tableaux(outer, (lam[0],) * len(mu), _LR_CAP)[0]


def skew_divide(lam: Iterable[int], mu: Iterable[int]) -> Dict[Diagram, int]:
    """Skew quotient lam/mu = sum over nu of c^lam_{nu,mu} nu.

    >>> skew_divide((1, 1, 1), (2,))
    {}
    >>> sorted(skew_divide((2, 1), (1,)).items())
    [((1, 1), 1), ((2,), 1)]
    """
    return _lr_tableaux(validate_diagram(lam), validate_diagram(mu), _LR_CAP)[0]


def _delta_terms_in(lam: Diagram) -> Iterable[Diagram]:
    """The terms of the formal sum Delta (every diagram with even row
    lengths) contained in lam, generated lazily."""
    stack: list[Diagram] = [()]
    while stack:
        delta = stack.pop()
        yield delta
        if len(delta) < len(lam):
            top = min(lam[len(delta)], delta[-1]) if delta else lam[0]
            stack.extend(delta + (r,) for r in range(2, top + 1, 2))


def _divide_by_delta(lam: Diagram) -> Dict[Diagram, int]:
    """lam / Delta; all quotients together share one ``_LR_CAP`` budget."""
    out: Dict[Diagram, int] = {}
    budget = _LR_CAP
    for delta in _delta_terms_in(lam):
        quotient, work = _lr_tableaux(lam, delta, budget)
        budget -= work
        for nu, coeff in quotient.items():
            out[nu] = out.get(nu, 0) + coeff
    return out


@dataclass(frozen=True)
class BranchSummand:
    lam: Diagram
    lam_bar: Diagram
    multiplicity: int


@dataclass(frozen=True)
class BranchResult:
    """Expansion of (lam/Delta) tensor (lam_bar/Delta)."""

    summands: tuple[BranchSummand, ...]
    single_summand: bool

    def as_dict(self) -> dict:
        return {
            "summands": [
                {
                    "lam": list(s.lam),
                    "lam_bar": list(s.lam_bar),
                    "multiplicity": s.multiplicity,
                }
                for s in self.summands
            ],
            "single_summand": self.single_summand,
        }


def branch_to_lorentz(pair: Sequence[Iterable[int]]) -> BranchResult:
    """Branch an sl(5) module label to the Lorentz subalgebra.

    Both diagrams are divided by the formal sum Delta of even-row diagrams;
    the result is the expanded tensor sum.  The branching collapses to a
    single summand exactly when both diagrams are empty or consist of
    columns only (no horizontal even strip fits into a single column).

    >>> branch_to_lorentz(((1, 1, 1), ())).single_summand
    True
    >>> len(branch_to_lorentz(((2,), ())).summands)
    2
    """
    lam, lam_bar = validate_pair(pair)
    left = _divide_by_delta(lam)
    right = _divide_by_delta(lam_bar)
    summands = tuple(
        BranchSummand(nu, nu_bar, c1 * c2)
        for nu, c1 in sorted(left.items())
        for nu_bar, c2 in sorted(right.items())
    )
    single = left == {lam: 1} and right == {lam_bar: 1}
    return BranchResult(summands=summands, single_summand=single)


# ---------------------------------------------------------------------------
# Spin content
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LorentzIrrep:
    """Lorentz irrep (a, b) with multiplicity; spins stored doubled."""

    a2: int  # 2a
    b2: int  # 2b
    multiplicity: int

    @property
    def a(self) -> Fraction:
        return Fraction(self.a2, 2)

    @property
    def b(self) -> Fraction:
        return Fraction(self.b2, 2)

    @property
    def dimension(self) -> int:
        return (self.a2 + 1) * (self.b2 + 1)

    def __str__(self) -> str:
        return f"({self.a},{self.b})x{self.multiplicity}"


# Exterior powers of the single factor C^2: spin content by degree.
_EXT_C2 = {0: 0, 1: 1, 2: 0}  # degree -> doubled spin of the 1-dim'l or 2-dim'l piece


def exterior_power_spins(p: int) -> list[LorentzIrrep]:
    """Spin content of the p-th exterior power of C^2 + conj(C^2).

    >>> [str(ir) for ir in exterior_power_spins(1)]
    ['(1/2,0)x1', '(0,1/2)x1']
    >>> sum(ir.dimension * ir.multiplicity for ir in exterior_power_spins(2))
    6
    """
    [p] = integers([p], "exterior power degrees")
    if p < 0:
        raise ShapeError("exterior power degree must be nonnegative")
    if p >= 5:
        return []
    tally: Dict[tuple[int, int], int] = {}
    for a_deg in range(0, 3):
        b_deg = p - a_deg
        if not 0 <= b_deg <= 2:
            continue
        key = (_EXT_C2[a_deg], _EXT_C2[b_deg])
        tally[key] = tally.get(key, 0) + 1
    return [
        LorentzIrrep(a2, b2, mult)
        for (a2, b2), mult in sorted(tally.items(), reverse=True)
    ]


#: total spin (doubled) contributed by a single column with 0..4 boxes
_COLUMN_SPIN2 = (0, 1, 2, 1, 0)


def _column_boxes(lam: Diagram) -> int:
    """Box count of a column-only diagram, after stripping height-5 columns.
    A diagram of height > 5 labels the zero module, which has no spin."""
    if height(lam) > DIM_FUND:
        raise NotColumnOnly(f"diagram {diagram_str(lam)} has height > {DIM_FUND}: the module is zero")
    lam = _strip_full_columns(lam)
    if any(r != 1 for r in lam):
        raise NotColumnOnly(f"diagram {diagram_str(lam)} is not a single column")
    return len(lam)


def spin_total(pair: Sequence[Iterable[int]]) -> Fraction:
    """Total spin s(lam) + s(lam_bar) of a column-only pair.

    Columns with 0..4 boxes carry spin 0, 1/2, 1, 1/2, 0; height-5 columns
    are trivial and are stripped first.  A side of height > 5 labels the
    zero module: NotColumnOnly, as for a side that is not a column.

    >>> spin_total(((1,), ()))
    Fraction(1, 2)
    >>> spin_total(((1, 1), (1, 1, 1)))
    Fraction(3, 2)
    """
    lam, lam_bar = validate_pair(pair)
    s2 = _COLUMN_SPIN2[_column_boxes(lam)] + _COLUMN_SPIN2[_column_boxes(lam_bar)]
    return Fraction(s2, 2)


def statistics(pair: Sequence[Iterable[int]]) -> str:
    """Statistics flag from box-count parity: fermionic iff the total number
    of boxes is odd.

    >>> statistics(((1,), ()))
    'fermionic'
    >>> statistics(((1, 1), ()))
    'bosonic'
    """
    lam, lam_bar = validate_pair(pair)
    return "fermionic" if (boxes(lam) + boxes(lam_bar)) % 2 else "bosonic"


@dataclass(frozen=True)
class IrreducibilityVerdict:
    accepted: bool
    reason: str

    def __bool__(self) -> bool:
        return self.accepted


def is_poincare_irreducible(pair: Sequence[Iterable[int]]) -> IrreducibilityVerdict:
    """Decide whether the module stays irreducible under the flat-limit
    structure algebra.

    Accepted labels are exactly the single columns of 1..4 boxes on one side
    with the other side empty: branching must keep a single summand (columns
    only) and exactly one slot may be populated.

    >>> bool(is_poincare_irreducible(((1, 1, 1), ())))
    True
    >>> bool(is_poincare_irreducible(((1,), (1,))))
    False
    """
    lam, lam_bar = validate_pair(pair)
    if not lam and not lam_bar:
        return IrreducibilityVerdict(False, "empty pair labels the trivial module")
    if lam and lam_bar:
        return IrreducibilityVerdict(
            False, "both diagrams nonempty: the branching mixes the two slots"
        )
    side = lam if lam else lam_bar
    if any(r != 1 for r in side):
        return IrreducibilityVerdict(
            False, "diagram is not a single column: branching has several summands"
        )
    if len(side) > RANK:
        return IrreducibilityVerdict(
            False, "column height exceeds 4: module is trivial or zero"
        )
    return IrreducibilityVerdict(True, "single column on one side")


# ---------------------------------------------------------------------------
# Young symmetrizers on small tensor powers: one sparse weight basis
# ---------------------------------------------------------------------------


def _diagram_cells(lam: Diagram) -> list[tuple[int, int]]:
    return [(r, c) for r, row_len in enumerate(lam) for c in range(row_len)]


def _perm_sign(perm: Sequence[int]) -> int:
    """Sign of a rearrangement of an increasing sequence."""
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
    return -1 if inversions % 2 else 1


def _group_permutations(groups: list[list[int]], p: int) -> list[tuple[tuple[int, ...], int]]:
    """All permutations of 0..p-1 that permute within the given index groups,
    together with their signs."""
    per_group = [
        [(dict(zip(group, images)), _perm_sign(images)) for images in itertools.permutations(group)]
        for group in groups  # each group is increasing
    ]
    perms: list[tuple[tuple[int, ...], int]] = []
    for combo in itertools.product(*per_group):
        mapping = {i: i for i in range(p)}
        sign = 1
        for sub_map, sub_sign in combo:
            mapping.update(sub_map)
            sign *= sub_sign
        perms.append((tuple(mapping[i] for i in range(p)), sign))
    return perms


def symmetrizer_basis(
    lam: Iterable[int], n: int = DIM_FUND
) -> tuple[list[Dict[int, Fraction]], list[int], list[tuple[int, ...]]]:
    """A rational weight basis of the image of the Young symmetrizer
    c = (row symmetrize) o (column antisymmetrize) on (C^n) tensor power
    boxes(lam): sparse columns {flat index: value}, the ``Echelon`` pivots
    they add, and the ordered index tuples over range(n) (flat index k is
    ``tuples[k]``).

    c e_T is kept exactly when it raises the rank of one ``Echelon``, T in
    order; a column is an RREF pivot exactly when it is not in the span of
    the columns before it, so these are the pivot columns of c's matrix.  c
    only permutes the slots of T, so each column is a weight vector.
    Capped at 3 boxes (the n^3-dimensional cube).
    """
    lam = validate_diagram(lam)
    p = boxes(lam)
    if p > _SYMMETRIZER_CAP:
        raise TooLarge(f"symmetrizer construction is capped at {_SYMMETRIZER_CAP} boxes")
    tuples = list(itertools.product(range(n), repeat=p))
    index_of = {tup: k for k, tup in enumerate(tuples)}
    number = {cell: k for k, cell in enumerate(_diagram_cells(lam))}
    rows = [[number[(r, c)] for c in range(row_len)] for r, row_len in enumerate(lam)]
    cols = [
        [number[(r, c)] for r in range(col_len)]
        for c, col_len in enumerate(conjugate_diagram(lam))
    ]
    row_perms = _group_permutations(rows, p)
    col_perms = _group_permutations(cols, p)

    echelon = Echelon()
    columns: list[Dict[int, Fraction]] = []
    for tup in tuples:
        # Apply b (antisymmetrize columns with signs), then a (symmetrize rows).
        b_image: Dict[tuple[int, ...], int] = {}
        for perm, sign in col_perms:
            moved = tuple(tup[perm[k]] for k in range(p))
            b_image[moved] = b_image.get(moved, 0) + sign
        image: Dict[int, int] = {}
        for mid, coeff in b_image.items():
            if coeff == 0:
                continue
            for perm, _ in row_perms:
                flat = index_of[tuple(mid[perm[k]] for k in range(p))]
                image[flat] = image.get(flat, 0) + coeff
        column = {flat: Fraction(x) for flat, x in sorted(image.items()) if x}
        if echelon.insert(column):
            columns.append(column)
    return columns, list(echelon.rows), tuples


def symmetrizer_image_dim(lam: Iterable[int], on_power: int) -> int:
    """Rank of the Young symmetrizer acting on (C^5) tensor power ``on_power``:
    the number of columns of :func:`symmetrizer_basis`, capped at 3 boxes.

    >>> symmetrizer_image_dim((2,), 2)
    15
    >>> symmetrizer_image_dim((1, 1), 2)
    10
    """
    lam = validate_diagram(lam)
    p = boxes(lam)
    if p != on_power:
        raise DimError(f"diagram has {p} boxes but the power is {on_power}")
    return len(symmetrizer_basis(lam)[0])


def _hook_lengths(lam: Diagram) -> list[int]:
    conj = conjugate_diagram(lam)
    return [
        lam[r] - c + conj[c] - r - 1
        for r, row_len in enumerate(lam)
        for c in range(row_len)
    ]


def standard_tableaux_count(lam: Diagram) -> int:
    """Hook length formula for the number of standard tableaux."""
    lam = validate_diagram(lam)
    n = boxes(lam)
    if n == 0:
        return 1
    denom = 1
    for h in _hook_lengths(lam):
        denom *= h
    count, rem = divmod(factorial(n), denom)
    if rem:
        raise ArithmeticError("hook length product does not divide n!")
    return count


def tensor_power_decompose(p: int) -> list[tuple[Diagram, int]]:
    """Decompose (C^5) tensor power p into Schur modules with multiplicities
    equal to standard-tableau counts.

    >>> tensor_power_decompose(2)
    [((1, 1), 1), ((2,), 1)]
    >>> sum(f * schur_dim((lam, ())) for lam, f in tensor_power_decompose(3))
    125
    """
    [p] = integers([p], "tensor power degrees")
    if p < 0 or p > 5:
        raise TooLarge("tensor powers are supported up to p = 5")
    return [(lam, standard_tableaux_count(lam)) for lam in sorted(_partitions_of(p))]


# ---------------------------------------------------------------------------
# Spin-statistics check on explicit coefficient arrays
# ---------------------------------------------------------------------------


def spin_statistics_obeyed(
    coeffs: Mapping[tuple, object], p: int, q: int, stat: str
) -> bool:
    """Check the (anti)symmetry of an indexed coefficient array.

    Keys are ``(gamma, alphas, betas)`` with ``alphas`` a p-tuple and
    ``betas`` a q-tuple of indices in 1..5; ``gamma`` is a spectator label.
    Bosonic coefficients must be invariant under S_p x S_q acting on the two
    index groups; fermionic ones must transform with the product of sign
    characters.  Missing keys are zero.

    >>> spin_statistics_obeyed({("g", (1, 2), ()): Fraction(1),
    ...                         ("g", (2, 1), ()): Fraction(-1)}, 2, 0, "fermionic")
    True
    """
    if stat not in ("fermionic", "bosonic"):
        raise ShapeError(f"unknown statistics {stat!r}")
    table: Dict[tuple, Fraction] = {}
    for key, value in coeffs.items():
        if len(key) != 3:
            raise ShapeError("keys must be (gamma, alphas, betas)")
        gamma, alphas, betas = key
        alphas = tuple(alphas)
        betas = tuple(betas)
        if len(alphas) != p or len(betas) != q:
            raise ShapeError(f"index shape mismatch: expected ({p},{q})")
        for idx in alphas + betas:
            if not isinstance(idx, int) or not 1 <= idx <= DIM_FUND:
                raise ShapeError(f"index {idx!r} outside 1..5")
        table[(gamma, alphas, betas)] = exact(value, "coefficients")

    fermionic = stat == "fermionic"
    for (gamma, alphas, betas), value in table.items():
        for sigma in itertools.permutations(range(p)):
            for rho in itertools.permutations(range(q)):
                moved = (
                    gamma,
                    tuple(alphas[i] for i in sigma),
                    tuple(betas[i] for i in rho),
                )
                sign = _perm_sign(sigma) * _perm_sign(rho) if fermionic else 1
                if table.get(moved, Fraction(0)) != sign * value:
                    return False
    return True
