"""Acceptance gate: one test per shipped verification suite.

Each test runs the corresponding check at its production tolerance and
prints the same PASS/FAIL line the ``verify`` command emits, so the test
log doubles as the acceptance report.
"""

import pytest

from trapspec import ConfigError, verification


def _accept(result):
    print(result.line())
    assert result.passed, result.detail


def test_criterion_01_spectrum_oracle():
    _accept(verification.check_spectrum_oracle(max_n=16, max_l=6))


def test_criterion_02_partner_degeneracy():
    _accept(verification.check_partner_degeneracy(l_values=(0, 1, 2, 3, 4)))


def test_criterion_03_pauli_gap():
    _accept(verification.check_pauli_gap())


def test_criterion_04_node_counts():
    _accept(verification.check_node_counts())


def test_criterion_05_combinatorics():
    _accept(verification.check_combinatorics())


def test_criterion_06_isotropy_tuning():
    _accept(verification.check_isotropy_tuning())


def test_criterion_07_field_oracle():
    _accept(verification.check_field_oracle())


def test_criterion_08_defect_model():
    _accept(verification.check_defect_model())


def test_criterion_09_planar_traps():
    _accept(verification.check_planar_traps())


def test_criterion_10_orthonormality():
    _accept(verification.check_orthonormality())


def test_all_suites_take_no_keywords():
    # The keywords would be dropped: each suite runs at its fixed size.
    with pytest.raises(ConfigError, match="'all' takes no keyword arguments, got bogus, max_n"):
        verification.run_suite("all", max_n=2, bogus=1)
