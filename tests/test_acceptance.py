"""Acceptance gate: one test per criterion, each printing its verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or `hline verify-paper` for the same table from the CLI.
"""

import time

import pytest

from hline import acceptance


def _check(result):
    print()
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_tailed_cycles_converge_exactly():
    _check(acceptance.criterion_1())


def test_criterion_02_oversized_tails_diverge_with_certificates():
    _check(acceptance.criterion_2())


def test_criterion_03_chorded_cycles_diverge_and_grow():
    _check(acceptance.criterion_3())


def test_criterion_04_spider_images_and_divergence():
    _check(acceptance.criterion_4())


def test_criterion_05_single_nontrivial_component():
    _check(acceptance.criterion_5())


def test_criterion_06_adjacency_oracle_equivalence():
    _check(acceptance.criterion_6())


def test_criterion_07_circumference_monotone_on_unicyclic():
    _check(acceptance.criterion_7())


def test_criterion_08_known_families_are_minimal():
    _check(acceptance.criterion_8())


def test_criterion_09_certificates_reverify():
    _check(acceptance.criterion_9())


def test_criterion_10_conjecture_harnesses_complete():
    _check(acceptance.criterion_10())


def test_criterion_11_structural_checks_on_minimal_members():
    _check(acceptance.criterion_11())


def test_a_criterion_past_its_ceiling_fails():
    late = acceptance._result(1, "found nothing wrong", True, "", time.time() - 2, 1)
    assert not late.passed and late.line().startswith("[FAIL]")
