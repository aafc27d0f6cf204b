"""The thirteen-point verification checklist, one test per criterion.

Each criterion is exact: limits, dimensions, decompositions, and survival
sets are compared for equality, never within a tolerance.  The same checks
back the ``projlim selftest`` subcommand.  Each check runs inside its own
test, so a raising check fails that test alone and shows in ``--durations``.
"""

import json

import pytest

from projlim import acceptance
from projlim.acceptance import CHECKS, check_galilei_boost, run_all
from projlim.cli import main
from projlim.errors import DimError


def criterion_name(check) -> str:
    return check.__name__.removeprefix("check_").replace("_", "-")


@pytest.mark.parametrize(
    "index, check",
    list(enumerate(CHECKS)),
    ids=[f"{i + 1:02d}-{criterion_name(check)}" for i, check in enumerate(CHECKS)],
)
def test_criterion(index, check):
    passed, detail = check()
    assert passed, f"criterion {index + 1} ({criterion_name(check)}): {detail}"


def test_all_thirteen_present():
    assert len(CHECKS) == 13


def test_run_all_numbers_and_names_by_place_and_function():
    expected = [(i + 1, criterion_name(check)) for i, check in enumerate(CHECKS)]
    assert [(r.number, r.name) for r in run_all()] == expected


def check_broken_limit():
    raise DimError("sequence dimension 4 != algebra ambient 5")


class TestRunAll:
    def test_raising_check_is_a_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(acceptance, "CHECKS", [check_galilei_boost, check_broken_limit])
        assert main(["selftest"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"PASS  # 1 galilei-boost: {check_galilei_boost()[1]}",
            "FAIL  # 2 broken-limit: raised DimError: sequence dimension 4 != algebra ambient 5",
            "1/2 checks passed",
        ]

    def test_json_reports_seconds(self, monkeypatch, capsys):
        monkeypatch.setattr(acceptance, "CHECKS", [check_galilei_boost, check_broken_limit])
        assert main(["selftest", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [(r["number"], r["passed"]) for r in doc["results"]] == [(1, True), (2, False)]
        assert all(r["seconds"] >= 0 for r in doc["results"])
        assert doc["all_passed"] is False

    def test_other_exceptions_propagate(self, monkeypatch):
        def check_bug():
            raise ZeroDivisionError

        monkeypatch.setattr(acceptance, "CHECKS", [check_bug])
        with pytest.raises(ZeroDivisionError):
            run_all()
