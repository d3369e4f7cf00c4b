"""Golden fingerprints: persisted caches are keyed on these exact digests.

Every digest below was computed by the ``Clause``-object implementation
of :meth:`CNFFormula.fingerprint` that the int-tuple form replaced. A
change that moves any of them orphans every cache directory written
before it, so a drift here must fail loudly and under its own name.
"""

from __future__ import annotations

import pytest

from repro.cnf.clause import Clause
from repro.cnf.dimacs import parse_dimacs
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import planted_ksat
from repro.cnf.literal import Literal
from repro.exceptions import CNFError


def _cases() -> dict:
    return {
        "duplicate_literals": CNFFormula.from_ints([[1, 1, 2], [-3, -3, 1]]),
        "unsorted_literals": CNFFormula.from_ints([[3, -1, 2], [5, 4], [-4, -2, 1]]),
        "tautology": CNFFormula.from_ints([[2, -2, 1], [-1, 1], [3, -3, -2, 2]]),
        "empty_clause": CNFFormula.from_ints([[1, 2], []]),
        "unit_clauses": CNFFormula.from_ints([[1], [-2], [3]]),
        "padded_variables": CNFFormula.from_ints([[1, -2]], num_variables=10),
        "empty_formula": CNFFormula.from_ints([], num_variables=0),
        "order_a": CNFFormula.from_ints([[1, 2], [-1, 3], [2, -3], [4]]),
        "order_b": CNFFormula.from_ints([[4], [-3, 2], [3, -1], [2, 1]]),
        "dimacs": parse_dimacs("c golden\np cnf 5 3\n1 -2 0\n2 3\n-4 0\n-1 5 0\n"),
        "clause_objects": CNFFormula(
            [
                Clause([Literal(2), Literal(1, False)]),
                Clause([3, -2]),
                [Literal(4, False)],
            ],
            num_variables=6,
        ),
        "planted": planted_ksat(12, 40, seed=7)[0],
    }


GOLDEN = {
    "duplicate_literals": "7a8054b15f39725b790b9e83e238885438b26999d402b3401e4fabe4f43dbdfa",
    "unsorted_literals": "a8b1deaf08705b5a62d0c303eed4246fc514ec0a963b14c186ca0aef779016a9",
    "tautology": "67622ef4b5b07c8de91413f0b96a738d82d82d8abbce62d07362ed2357351d06",
    "empty_clause": "80c853c8a4abd907966fd087fafc7a3bfa4a65c64b28be4e5e957ab90b3cd522",
    "unit_clauses": "29af13a92d7cd01b4bb6a9c56233bd4af8ccbe57e80336811aeda4f33bbc8baf",
    "padded_variables": "d0a09e7952947c056e2b0f14176fa58d164147004ccc15c3721b54caec32d894",
    "empty_formula": "80e0fd61bb1a44b79e3eb919cf819fc12e32596d1bdcf0bc80357da032d194cf",
    "order_a": "258355b9c93cf19a55c02594082e9b2633264806902b6ce827e62042ee04df14",
    "order_b": "258355b9c93cf19a55c02594082e9b2633264806902b6ce827e62042ee04df14",
    "dimacs": "df8220f8e6f6398aaf74fae2c155bccd9062e5911440a4ec27e951e0f3fb1d8a",
    "clause_objects": "f02711d4267fcfa83a3e61728d8870ff4fb62dd5f2f894a2b520be190079c2a3",
    "planted": "af77f0f295c8e48d0ff423f02ec3a870af8100fd6eb6f5e090482fddc3473399",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fingerprint_matches_golden(name):
    assert _cases()[name].fingerprint() == GOLDEN[name]


def test_object_and_int_construction_agree():
    """The same clauses built both ways share ints, fingerprint and equality."""
    from_objects = _cases()["clause_objects"]
    from_ints = CNFFormula.from_ints([[-1, 2], [3, -2], [-4]], num_variables=6)
    assert from_objects == from_ints
    assert hash(from_objects) == hash(from_ints)
    assert from_objects.to_ints() == from_ints.to_ints()
    assert from_ints.fingerprint() == GOLDEN["clause_objects"]


def test_canonical_literal_order_is_variable_then_positive_first():
    formula = _cases()["tautology"]
    assert formula.to_ints() == [[1, 2, -2], [1, -1], [2, -2, 3, -3]]
    assert [c.to_ints() for c in formula.clauses] == formula.to_ints()


@pytest.mark.parametrize("bad", [0, True, 1.5, "3"], ids=repr)
def test_from_ints_rejects_non_literals(bad):
    """Each of these must stay a CNFError: the protocol maps it to 400."""
    with pytest.raises(CNFError):
        CNFFormula.from_ints([[1, bad]])
