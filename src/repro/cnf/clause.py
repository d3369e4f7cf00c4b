"""Clause: a disjunction of literals (paper Definition 3)."""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union

from repro.cnf.literal import Literal
from repro.exceptions import CNFError

LiteralLike = Union[Literal, int]


def _coerce_literal(lit: LiteralLike) -> Literal:
    if isinstance(lit, Literal):
        return lit
    if isinstance(lit, bool):
        raise CNFError("bool is not a valid literal")
    if isinstance(lit, int):
        return Literal.from_int(lit)
    raise CNFError(f"cannot interpret {lit!r} as a literal")


class Clause:
    """An immutable disjunction (OR) of literals.

    Duplicate literals are removed; the literal order is normalised by
    variable index then polarity so structurally equal clauses compare and
    hash equal.
    """

    __slots__ = ("_literals",)

    def __init__(self, literals: Iterable[LiteralLike]) -> None:
        coerced = [_coerce_literal(lit) for lit in literals]
        if not coerced:
            # An empty clause is allowed — it is the canonical "falsum" used
            # by resolution/simplification — but most constructors go through
            # CNFFormula which tracks it explicitly.
            self._literals: tuple[Literal, ...] = ()
            return
        unique = sorted(set(coerced), key=lambda l: (l.variable, not l.positive))
        self._literals = tuple(unique)

    # -- basic protocol -----------------------------------------------------
    @property
    def literals(self) -> tuple[Literal, ...]:
        """The clause's literals in canonical order."""
        return self._literals

    def __iter__(self) -> Iterator[Literal]:
        return iter(self._literals)

    def __len__(self) -> int:
        return len(self._literals)

    def __contains__(self, lit: LiteralLike) -> bool:
        return _coerce_literal(lit) in self._literals

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clause):
            return NotImplemented
        return self._literals == other._literals

    def __hash__(self) -> int:
        return hash(self._literals)

    def __str__(self) -> str:
        if not self._literals:
            return "(⊥)"
        return "(" + " + ".join(str(lit) for lit in self._literals) + ")"

    def __repr__(self) -> str:
        return f"Clause({[lit.to_int() for lit in self._literals]})"

    # -- queries ------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """``True`` for the empty (unsatisfiable) clause."""
        return not self._literals

    @property
    def is_unit(self) -> bool:
        """``True`` when the clause has exactly one literal."""
        return len(self._literals) == 1

    def variables(self) -> set[int]:
        """The set of variable indices mentioned by this clause."""
        return {lit.variable for lit in self._literals}

    def is_tautology(self) -> bool:
        """``True`` when the clause contains a literal and its negation."""
        seen: dict[int, bool] = {}
        for lit in self._literals:
            if lit.variable in seen and seen[lit.variable] != lit.positive:
                return True
            seen[lit.variable] = lit.positive
        return False

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Evaluate under a complete assignment ``variable -> bool``.

        Raises :class:`CNFError` if a variable of the clause is unassigned.
        """
        for lit in self._literals:
            if lit.variable not in assignment:
                raise CNFError(f"variable x{lit.variable} is unassigned")
            if lit.evaluate(assignment[lit.variable]):
                return True
        return False

    def status_under(self, partial: Mapping[int, bool]) -> str:
        """Clause status under a *partial* assignment.

        Returns one of ``"satisfied"``, ``"falsified"``, ``"unit"`` or
        ``"unresolved"``. ``"unit"`` means exactly one literal is still free
        and all others are false.
        """
        free = 0
        for lit in self._literals:
            if lit.variable not in partial:
                free += 1
            elif lit.evaluate(partial[lit.variable]):
                return "satisfied"
        if free == 0:
            return "falsified"
        if free == 1:
            return "unit"
        return "unresolved"

    def unassigned_literals(self, partial: Mapping[int, bool]) -> list[Literal]:
        """Literals whose variables are not bound by ``partial``."""
        return [lit for lit in self._literals if lit.variable not in partial]

    def to_ints(self) -> list[int]:
        """DIMACS integer encoding of the clause (without the trailing 0)."""
        return [lit.to_int() for lit in self._literals]

    # -- construction helpers -------------------------------------------------
    @classmethod
    def from_ints(cls, encoded: Iterable[int]) -> "Clause":
        """Build a clause from DIMACS-style signed integers."""
        return cls([Literal.from_int(v) for v in encoded])

    @classmethod
    def from_canonical(cls, literals: tuple[Literal, ...]) -> "Clause":
        """Wrap literals already deduplicated and in canonical order.

        No checks and no sorting: the caller guarantees the invariant
        (used by :class:`~repro.cnf.formula.CNFFormula` to build its
        clause views from canonical int tuples).
        """
        clause = cls.__new__(cls)
        clause._literals = literals
        return clause

    def without_variable(self, variable: int) -> "Clause":
        """A copy of the clause with every literal of ``variable`` removed."""
        return Clause([lit for lit in self._literals if lit.variable != variable])
