"""End-to-end command-line behavior: output, determinism, and exit codes."""

import contextlib
import importlib.resources
import io
import json
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from projlim.cli import main

DS_SEQ = "diag(t^4,t^-1,t^-1,t^-1,t^-1)"
GALILEI_SEQ = "diag(t,1,1,1,t)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLimit:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "limit", "--algebra", "po((4,1))", "--seq", DS_SEQ)
        assert code == 0
        assert "po((1),(3,1))" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "limit", "--algebra", "po((4,1))", "--seq", DS_SEQ, "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["limit_signature"] == "((1),(3,1))"
        assert doc["permutation"] == [0, 1, 2, 3, 4]
        assert doc["schema_version"] == "1"
        assert len(doc["basis"]) == 10

    def test_undegenerated_m7_limit(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "limit", "--algebra", "po(6,1)", "--seq", "diag(1,1,1,1,1,1,1)")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert "permutation:      (0 1 2 3 4 5 6)" in out

    def test_no_match_exits_1(self, capsys):
        code, out, err = run(
            capsys,
            "limit",
            "--algebra",
            "po(2,1)",
            "--seq",
            "compose([[1,1,0],[0,1,0],[0,0,1]],diag(t,1,t^-1))",
        )
        assert (code, out) == (1, "")
        assert err == "error: limit span is not a permuted orthogonal block algebra\n"

    def test_perm_sequence_at_the_algebra_dimension(self, capsys):
        code, out, _ = run(capsys, "limit", "--algebra", "po(2,1)", "--seq", "perm((0 1))")
        assert code == 0
        assert "dimension:        3" in out

    def test_composed_perm_at_m6(self, capsys):
        code, out, _ = run(
            capsys, "limit", "--algebra", "po(5,1)", "--seq", "compose(perm((0 1)),diag(t,1,1,1,1,1))"
        )
        assert code == 0
        assert "limit signature:  po((1),(4,1))" in out

    def test_json_deterministic(self, capsys):
        args = ("limit", "--algebra", "po((3,2))", "--seq", "diag(t^-1,t^-1,t^-1,t^-1,t^4)", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestContractAndInvariants:
    def test_contract_table(self, capsys):
        code, out, _ = run(
            capsys, "contract", "--algebra", "po((3))", "--indices", "2"
        )
        assert code == 0
        assert "[e0, e2]" in out

    def test_contract_output_bytes(self, capsys):
        _, out, _ = run(capsys, "contract", "--algebra", "po(2,1)", "--indices", "0")
        assert out == (
            "contraction of po(2,1) along indices [0]:\n"
            "[e0, e1] = -1*e2\n[e0, e2] = e1\nabelian: False\ncenter dim: 0\n"
        )
        _, out, _ = run(capsys, "contract", "--algebra", "po(3)", "--indices", "")
        assert out == "contraction of po(3) along indices []:\nall brackets vanish\nabelian: True\ncenter dim: 3\n"
        _, out, _ = run(capsys, "contract", "--algebra", "po(2,1)", "--indices", "0", "--format", "json")
        assert json.loads(out)["structure_constants"] == [
            {"coeff": "-1", "i": 0, "j": 1, "k": 2},
            {"coeff": "1", "i": 0, "j": 2, "k": 1},
        ]

    def test_invariants_json(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--algebra", "po((4,1))", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["invariants"]["dim"] == 10
        assert doc["invariants"]["killing_signature"] == [4, 6, 0]

    def test_contracted_invariants(self, capsys):
        code, out, _ = run(
            capsys,
            "invariants",
            "--algebra",
            "po((3))",
            "--indices",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["invariants"]["is_nilpotent"] is False


class TestSigmaChain:
    def test_chain_verifies(self, capsys):
        code, out, _ = run(
            capsys, "sigma-chain", "--signature", "(3)", "--weights", "0,-1,-2"
        )
        assert code == 0
        assert "all steps verified: True" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "sigma-chain",
            "--signature",
            "(3)",
            "--weights",
            "0,-1,-2",
            "--format",
            "json",
        )
        doc = json.loads(out)
        assert doc["splits"] == [1, 2]
        assert all(step["verified"] for step in doc["steps"])


class TestEmbedAndClassify:
    def test_embed_check(self, capsys):
        code, out, _ = run(
            capsys,
            "embed-check",
            "--algebra",
            "po((4,1))",
            "--seq",
            "diag(t^4,t^-1,t^-1,t^-1,t^-1,1)",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["limit_unchanged"] is True

    def test_classify_points(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--algebra",
            "po((1),(3,1))",
            "--seq",
            GALILEI_SEQ,
            "--points",
            "[1,2,3,4,5];[1,0,0,0,7]",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        kinds = [p["kind"] for p in doc["points"]]
        assert kinds == ["boundary", "interior_lower_dim"]

    def test_classify_at_m4(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--signature",
            "(3,1)",
            "--seq",
            "diag(t,1,1,1)",
            "--points",
            "[1,0,0,0]",
        )
        assert code == 0
        assert "[1, 0, 0, 0] -> [1, 0, 0, 0] [interior_lower_dim]" in out


class TestSchur:
    def test_column_pair(self, capsys):
        code, out, _ = run(capsys, "schur", "--pair", "([1,1],[])", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 10
        assert doc["spin"] == "1"
        assert doc["statistics"] == "bosonic"
        assert doc["poincare_irreducible"] is True

    def test_non_column_pair(self, capsys):
        code, out, _ = run(capsys, "schur", "--pair", "([2,1],[1])", "--format", "json")
        doc = json.loads(out)
        assert doc["spin"] is None
        assert doc["poincare_irreducible"] is False

    def test_zero_module_has_no_spin(self, capsys):
        code, out, _ = run(capsys, "schur", "--pair", "([1],[1,1,1,1,1,1])", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["dimension"], doc["spin"]) == (0, None)
        code, out, _ = run(capsys, "schur", "--pair", "([],[1,1,1,1,1,1,1])")
        assert code == 0
        assert "dimension:  0" in out and "spin:       undefined" in out


class TestCorrelator:
    def test_uv_mode(self, capsys):
        code, out, _ = run(
            capsys, "correlator", "--mode", "uv", "--ell", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["surviving"] == [[1], [1]]

    def test_sequence_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "correlator",
            "--geometry",
            "((1),(3,1))",
            "--reps",
            "fundamental,right_action",
            "--seq",
            GALILEI_SEQ,
            "--format",
            "json",
        )
        doc = json.loads(out)
        assert doc["surviving"] == [[1, 5], [2, 3, 4]]


    def test_schur_tags_on_both_sides(self, capsys):
        reps = ",".join(SCHUR_TAGS)
        code, out, _ = run(
            capsys, "correlator", "--geometry", "((1),(3,1))", "--reps", reps, "--seq", GALILEI_SEQ,
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["surviving"]) == 12
        assert set(doc["rho_inf"]) == set(SCHUR_TAGS)

    def test_four_box_tag_exits_1(self, capsys):
        code, out, err = run(
            capsys, "correlator", "--geometry", "((1),(3,1))", "--reps", FOUR_BOX_TAG, "--seq", GALILEI_SEQ
        )
        assert (code, out) == (1, "")
        assert "capped at 3 boxes" in err

    def test_factor_count_over_the_cap_exits_1_at_once(self, capsys):
        for mode in ("uv", "ir"):
            start = time.perf_counter()
            code, out, err = run(capsys, "correlator", "--mode", mode, "--ell", "1000000")
            assert time.perf_counter() - start < 0.1
            assert (code, out) == (1, "")
            assert err == "error: a scale-limit correlator is capped at 8192 factors, got 1000000\n"


class TestFigure1:
    def test_json_matches_golden(self, capsys):
        code, out, _ = run(capsys, "figure1", "--format", "json")
        assert code == 0
        golden = (
            importlib.resources.files("projlim.data")
            .joinpath("figure1_golden.json")
            .read_text()
        )
        assert out == golden

    def test_table_lists_rows(self, capsys):
        code, out, _ = run(capsys, "figure1")
        assert code == 0
        for name in ("ds_to_poincare", "ads_to_poincare", "poincare_to_galilei"):
            assert name in out


class TestPlumbing:
    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys,
            "schur",
            "--pair",
            "([1],[])",
            "--format",
            "json",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["dimension"] == 5

    def test_at_file_indirection(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text(DS_SEQ + "\n")
        code, out, _ = run(
            capsys, "limit", "--algebra", "po((4,1))", "--seq", f"@{seq_file}"
        )
        assert code == 0
        assert "po((1),(3,1))" in out

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "limit", "--algebra", "po((4,1)", "--seq", DS_SEQ)
        assert code == 2
        assert "syntax error" in err

    def test_domain_error_exits_1(self, capsys):
        code, _, err = run(
            capsys, "limit", "--algebra", "po((4,1))", "--seq", "diag(t,1)"
        )
        assert code == 1
        assert "error" in err

    def test_dimension_mismatch_is_refused_before_the_algebra_is_built(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "limit", "--algebra", "po(30)", "--seq", "diag(t,1)")
        assert time.perf_counter() - start < 0.2
        assert (code, out) == (1, "")
        assert err == "error: sequence dimension 2 != algebra ambient 30\n"

    def test_outside_point_exits_1(self, capsys):
        code, _, err = run(
            capsys,
            "classify",
            "--algebra",
            "po((1),(3,1))",
            "--seq",
            GALILEI_SEQ,
            "--points",
            "[0,1,0,0,0]",
        )
        assert code == 1


# -- fuzzing argument text -------------------------------------------------------

# Inserted or substituted characters carry no digits, and the grammar never
# puts two digits side by side in a signature or a sequence, so every number
# stays as drawn (an index list may only lose digits): m <= 5, m <= 6 for
# ``contract``, ``invariants`` and ``sigma-chain``, or m <= 7 for ``limit``.
PUNCTUATION = "()[],;^t-* "
SECONDS_PER_RUN = 5.0


@st.composite
def mutated(draw, text):
    """Grammar-built text, kept, cut short, or with one punctuation character
    inserted or substituted."""
    text = draw(text)
    action = draw(st.sampled_from(("keep",) * 5 + ("cut", "insert", "replace")))
    if action == "keep" or not text:
        return text
    i = draw(st.integers(0, len(text) - 1))
    if action == "cut":
        return text[:i]
    ch = draw(st.sampled_from(PUNCTUATION))
    return text[:i] + ch + text[i + (action == "replace") :]


@st.composite
def signature_text(draw, max_m=5):
    blocks = draw(
        st.lists(st.tuples(st.integers(1, max_m), st.integers(0, 2)), min_size=1, max_size=3).filter(
            lambda bs: sum(p + q for p, q in bs) <= max_m
        )
    )
    if len(blocks) == 1 and draw(st.booleans()):
        p, q = blocks[0]
        return f"({p},{q})"
    return "(" + ",".join(f"({p})" if q == 0 else f"({p},{q})" for p, q in blocks) + ")"


def _dim(sig_text: str, fallback: int, max_m: int = 5) -> int:
    digits = [int(c) for c in sig_text if c.isdigit()]
    return sum(digits) if 1 <= sum(digits) <= max_m else fallback


@st.composite
def sequence_text(draw, m):
    n = draw(st.sampled_from((m, m, m, 1, 2, 3, 4, 5)))
    entry = st.sampled_from(("1", "t", "-t", "2*t", "t^-1", "t^2", "t^-2", "t^4", "t^-4"))
    text = "diag(" + ",".join(draw(entry) for _ in range(n)) + ")"
    factor = draw(st.sampled_from(("none", "none", "perm", "dense")))
    if factor == "perm" and n == 5:
        text = f"compose(perm((0 4)),{text})"
    elif factor == "dense":
        cell = st.sampled_from(("0", "1", "-1", "1", "-1", "2"))
        rows = ("[" + ",".join(draw(cell) for _ in range(n)) + "]" for _ in range(n))
        text = "compose([" + ",".join(rows) + f"],{text})"
    return text


@st.composite
def points_text(draw, m):
    coords = st.integers(-3, 3)
    count = draw(st.integers(1, 3))
    points = []
    for _ in range(count):
        n = draw(st.sampled_from((m, m, m, 1, 2, 3, 4, 5)))
        points.append("[" + ",".join(str(draw(coords)) for _ in range(n)) + "]")
    return ";".join(points)


@st.composite
def classify_argv(draw):
    sig = draw(signature_text())
    m = _dim(sig, 5)
    flag = draw(st.sampled_from(("--algebra", "--signature")))
    return [
        "classify",
        flag,
        draw(mutated(st.just("po" + sig if flag == "--algebra" else sig))),
        "--seq",
        draw(mutated(sequence_text(m))),
        "--points",
        draw(mutated(points_text(m))),
    ]


# Every single-sided diagram of at most three boxes, on either side.
SCHUR_TAGS = tuple(
    f"schur({lam},[])" if side == 0 else f"schur([],{lam})"
    for lam in ("[1]", "[2]", "[1,1]", "[3]", "[2,1]", "[1,1,1]")
    for side in (0, 1)
)
FOUR_BOX_TAG = "schur([2,1,1],[])"


@st.composite
def correlator_argv(draw):
    if draw(st.booleans()):
        argv = ["correlator", "--mode", draw(st.sampled_from(("uv", "ir"))), "--ell", str(draw(st.integers(0, 4)))]
        if draw(st.booleans()):
            argv += ["--points", draw(mutated(points_text(5)))]
        return argv
    sig = draw(signature_text())
    m = _dim(sig, 5)
    reps = st.sampled_from(("fundamental", "right_action", "schur([2],[1])", FOUR_BOX_TAG) + SCHUR_TAGS)
    argv = [
        "correlator",
        "--geometry",
        draw(mutated(st.just(sig))),
        "--reps",
        draw(mutated(st.lists(reps, min_size=1, max_size=2).map(",".join))),
        "--seq",
        draw(mutated(sequence_text(m))),
    ]
    if draw(st.booleans()):
        argv += ["--perm", draw(mutated(st.sampled_from(("id", "(0 1)", "(1 2 3)", "(0 4)(1 2)"))))]
    if draw(st.booleans()):
        argv += ["--points", draw(mutated(points_text(m)))]
    return argv


@st.composite
def limit_sequence_text(draw, m):
    """A diag, perm, constant-matrix or composed sequence, mostly of size m."""
    kind = draw(st.sampled_from(("diag", "diag", "perm", "matrix", "compose")))
    if kind == "perm":
        cycle = draw(st.lists(st.integers(0, 6), min_size=2, max_size=3, unique=True))
        return "perm((" + " ".join(map(str, cycle)) + "))"
    if kind == "compose":
        return f"compose({draw(limit_sequence_text(m))},{draw(limit_sequence_text(m))})"
    n = draw(st.sampled_from((m, m, m, 1, 3, 5, 6, 7)))
    if kind == "diag":
        entry = st.sampled_from(("1", "t", "-t", "2*t", "t^-1", "t^2", "t^-2", "t^3", "t^-3"))
        return "diag(" + ",".join(draw(entry) for _ in range(n)) + ")"
    entry = st.sampled_from(("0", "0", "1", "-1", "2"))
    return "[" + ",".join("[" + ",".join(draw(entry) for _ in range(n)) + "]" for _ in range(n)) + "]"


@st.composite
def limit_argv(draw):
    sig = draw(signature_text(max_m=7))
    m = _dim(sig, 5, max_m=7)
    return [
        "limit",
        "--algebra",
        draw(mutated(st.just("po" + sig))),
        "--seq",
        draw(mutated(limit_sequence_text(m))),
    ]


@st.composite
def algebra_argv(draw):
    """``contract`` or ``invariants`` of po(sig) at m <= 6, with index lists
    that may leave the range, repeat, or not span a subalgebra."""
    command = draw(st.sampled_from(("contract", "invariants")))
    sig = draw(signature_text(max_m=6))
    m = _dim(sig, 5, max_m=6)
    argv = [command, "--algebra", draw(mutated(st.just("po" + sig)))]
    if command == "contract" or draw(st.booleans()):
        indices = st.lists(st.integers(-1, m * (m - 1) // 2), max_size=4).map(lambda xs: ",".join(map(str, xs)))
        argv += ["--indices", draw(mutated(indices))]
    return argv + ["--format", draw(st.sampled_from(("table", "json")))]


@st.composite
def sigma_chain_argv(draw):
    """``sigma-chain`` at m <= 6: mostly weakly decreasing weights of the
    right length, sometimes too few, too many or out of order."""
    m = draw(st.integers(1, 6))
    q = draw(st.integers(0, m // 2))
    sig = draw(st.sampled_from((f"({m - q},{q})",) * 4 + (f"({m})", f"(({m - q}),({q}))")))
    n = draw(st.sampled_from((m,) * 6 + (m - 1, m + 1)))
    weights = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    if draw(st.integers(0, 3)):
        weights = sorted(weights, reverse=True)
    return [
        "sigma-chain",
        "--signature",
        draw(mutated(st.just(sig))),
        "--weights",
        draw(mutated(st.just(",".join(map(str, weights))))),
        "--format",
        draw(st.sampled_from(("table", "json"))),
    ]


def run_isolated(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, err.getvalue(), time.perf_counter() - start


class TestFuzz:
    """Any argument text gives an answer, a domain error (1) or a syntax
    error (2): no traceback, and each run ends in bounded time."""

    @given(classify_argv())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_classify(self, argv):
        code, err, seconds = run_isolated(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert seconds < SECONDS_PER_RUN

    @given(correlator_argv())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_correlator(self, argv):
        code, err, seconds = run_isolated(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert seconds < SECONDS_PER_RUN
        if "--reps" in argv and FOUR_BOX_TAG in argv[argv.index("--reps") + 1]:
            assert code != 0  # the symmetrizers stop at three boxes

    @given(limit_argv())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_limit(self, argv):
        code, err, seconds = run_isolated(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert seconds < SECONDS_PER_RUN

    @given(algebra_argv())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_contract_and_invariants(self, argv):
        code, err, seconds = run_isolated(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert seconds < SECONDS_PER_RUN

    @given(sigma_chain_argv())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_sigma_chain(self, argv):
        code, err, seconds = run_isolated(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert seconds < SECONDS_PER_RUN
