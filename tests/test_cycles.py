from __future__ import annotations

import pytest

from conftest import assert_valid_report
from incolour.constructive import construct
from incolour.families import FamilySpec, gen_basic
from incolour.graphs import InputError, ListAssignment
from incolour.harness import random_list_assignment


def test_c6_three_colour_lists():
    g, _ = gen_basic("cycle", 6)
    lists = ListAssignment.uniform(g, 3)
    rep = construct(FamilySpec("cycle", {"n": 6}), lists)
    assert_valid_report(g, lists, rep)
    assert all(step.tag == "cycle-solver" for step in rep.trace)


def test_c5_four_colour_lists():
    g, _ = gen_basic("cycle", 5)
    lists = ListAssignment.uniform(g, 4)
    assert_valid_report(g, lists, construct(FamilySpec("cycle", {"n": 5}), lists))


def test_c5_three_lists_rejected_up_front():
    g, _ = gen_basic("cycle", 5)
    with pytest.raises(InputError):
        construct(FamilySpec("cycle", {"n": 5}), ListAssignment.uniform(g, 3))


@pytest.mark.parametrize("n", [3, 6, 9, 4, 7, 11])
def test_random_lists_at_the_bound(n):
    g, _ = gen_basic("cycle", n)
    k = 3 if n % 3 == 0 else 4
    for trial in range(40):
        lists = random_list_assignment(g, k, 3 * k, trial)
        assert_valid_report(g, lists, construct(FamilySpec("cycle", {"n": n}), lists))
