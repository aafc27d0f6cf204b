"""The thirteen-point verification checklist, one test per criterion.

Each criterion is exact: limits, dimensions, decompositions, and survival
sets are compared for equality, never within a tolerance.  The same checks
back the ``projlim selftest`` subcommand.  Each check runs inside its own
test, so a raising check fails that test alone and shows in ``--durations``.
"""

import pytest

from projlim.acceptance import CHECKS

# Criterion names that differ from their check function's name.
RENAMED = {
    "check_schur_dims": "schur-dimensions",
    "check_embedding": "ambient-embedding",
    "check_rep_limit_commute": "representation-limit-commutation",
}


def criterion_name(check) -> str:
    name = check.__name__
    return RENAMED.get(name, name.removeprefix("check_").replace("_", "-"))


@pytest.mark.parametrize(
    "index, check",
    list(enumerate(CHECKS)),
    ids=[f"{i + 1:02d}-{criterion_name(check)}" for i, check in enumerate(CHECKS)],
)
def test_criterion(index, check):
    result = check()
    assert (result.number, result.name) == (index + 1, criterion_name(check))
    assert result.passed, f"criterion {result.number} ({result.name}): {result.detail}"


def test_all_thirteen_present():
    assert len(CHECKS) == 13
