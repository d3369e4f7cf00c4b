"""CNF formulas (paper Definition 4) and their basic algebra."""

from __future__ import annotations

import hashlib
from collections import Counter
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from repro.cnf.clause import Clause, LiteralLike
from repro.cnf.literal import Literal
from repro.exceptions import CNFError

ClauseLike = Union[Clause, Sequence[LiteralLike]]


def _coerce_clause(clause: ClauseLike) -> Clause:
    if isinstance(clause, Clause):
        return clause
    return Clause(clause)


#: One canonical clause: deduplicated DIMACS ints, ordered by variable then
#: positive first (:func:`_literal_order`).
IntClause = Tuple[int, ...]


def _literal_order(lit: int) -> int:
    """Sort key of the canonical literal order: variable, then positive first.

    The same order :class:`~repro.cnf.clause.Clause` normalises to (and the
    arena kernel's ``(var << 1) | sign`` encoding).
    """
    return lit << 1 if lit > 0 else ((-lit) << 1) | 1


_canonical_sort = partial(sorted, key=_literal_order)


def _canonical_ints(
    clauses: Iterable[Iterable[int]],
) -> tuple[tuple[IntClause, ...], int]:
    """Validated canonical form of DIMACS int clauses, and their largest variable."""
    rows = tuple(map(tuple, clauses))
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        for lit in chain.from_iterable(rows):
            if isinstance(lit, bool) or not isinstance(lit, int):
                raise CNFError(f"cannot interpret {lit!r} as a DIMACS literal")
        rows = tuple(tuple(map(int, row)) for row in rows)  # int subclasses
    ints = tuple([tuple(_canonical_sort(set(row))) for row in rows])
    # A canonical clause starts with its smallest variable (a 0 sorts before
    # every literal) and ends with its largest.
    nonempty = tuple(filter(None, ints))
    if 0 in map(itemgetter(0), nonempty):
        raise CNFError("0 is not a valid DIMACS literal (it terminates clauses)")
    return ints, max(map(abs, map(itemgetter(-1), nonempty)), default=0)


def _max_variable(ints: Iterable[IntClause]) -> int:
    return max(map(abs, chain.from_iterable(ints)), default=0)


def _checked_num_variables(num_variables: Optional[int], max_var: int) -> int:
    """``num_variables`` (default ``max_var``), validated against ``max_var``."""
    if num_variables is None:
        return max_var
    if num_variables < max_var:
        raise CNFError(
            f"num_variables={num_variables} but clause mentions x{max_var}"
        )
    if num_variables < 0:
        raise CNFError(f"num_variables must be non-negative, got {num_variables}")
    return int(num_variables)


class CNFFormula:
    """A conjunction of clauses over variables ``x_1 .. x_{num_variables}``.

    The formula is immutable: all "mutating" operations return new formulas.
    Its stored form is one tuple of canonical int clauses (deduplicated,
    ordered by variable then positive first, exactly as :class:`Clause`
    orders its literals). The :class:`Clause`/:class:`Literal` objects of
    :attr:`clauses` and iteration are views built on first use; a formula
    constructed from ``Clause`` objects keeps those objects as its view.

    Parameters
    ----------
    clauses:
        Iterable of :class:`Clause` objects or iterables of literal-likes
        (``Literal`` instances or DIMACS-signed integers).
    num_variables:
        Number of variables in the instance. If omitted it defaults to the
        largest variable index mentioned by any clause; pass it explicitly
        when trailing variables are unconstrained.
    """

    __slots__ = ("_ints", "_clauses", "_num_variables", "_fingerprint")

    def __init__(
        self,
        clauses: Iterable[ClauseLike],
        num_variables: Optional[int] = None,
    ) -> None:
        views = tuple(_coerce_clause(c) for c in clauses)
        ints = tuple(tuple(clause.to_ints()) for clause in views)
        num_variables = _checked_num_variables(num_variables, _max_variable(ints))
        self._set(ints, num_variables, views)

    # -- constructors ----------------------------------------------------------
    def _set(
        self,
        ints: tuple[IntClause, ...],
        num_variables: int,
        views: Optional[tuple[Clause, ...]] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        """Fill the slots from int clauses already in canonical form (no checks)."""
        self._ints = ints
        self._clauses = views
        self._num_variables = num_variables
        self._fingerprint = fingerprint

    @classmethod
    def _from_canonical(
        cls,
        ints: tuple[IntClause, ...],
        num_variables: int,
        views: Optional[tuple[Clause, ...]] = None,
        fingerprint: Optional[str] = None,
    ) -> "CNFFormula":
        """A formula over int clauses already in canonical form (no checks)."""
        formula = cls.__new__(cls)
        formula._set(ints, num_variables, views, fingerprint)
        return formula

    @classmethod
    def from_ints(
        cls,
        clauses: Iterable[Iterable[int]],
        num_variables: Optional[int] = None,
    ) -> "CNFFormula":
        """Build a formula from DIMACS-style signed integer clauses.

        Raises :class:`CNFError` for any literal that is not a non-zero
        ``int`` (``bool`` included). No ``Clause`` objects are built.
        """
        ints, max_var = _canonical_ints(clauses)
        return cls._from_canonical(ints, _checked_num_variables(num_variables, max_var))

    def __reduce__(self):
        # Pickles carry the int tuples, never Literal/Clause objects.
        return (
            CNFFormula._from_canonical,
            (self._ints, self._num_variables, None, self._fingerprint),
        )

    # -- basic protocol ----------------------------------------------------------
    @property
    def int_clauses(self) -> tuple[IntClause, ...]:
        """The clauses as canonical DIMACS int tuples, in input order."""
        return self._ints

    @property
    def clauses(self) -> tuple[Clause, ...]:
        """The formula's clauses as :class:`Clause` objects, in input order."""
        if self._clauses is None:
            literals = {
                lit: Literal(abs(lit), lit > 0)
                for lit in set(chain.from_iterable(self._ints))
            }
            self._clauses = tuple(
                Clause.from_canonical(tuple(map(literals.__getitem__, ints)))
                for ints in self._ints
            )
        return self._clauses

    @property
    def num_variables(self) -> int:
        """Number of variables ``n`` of the instance."""
        return self._num_variables

    @property
    def num_clauses(self) -> int:
        """Number of clauses ``m`` of the instance."""
        return len(self._ints)

    @property
    def num_literals(self) -> int:
        """Total number of literal occurrences across all clauses."""
        return sum(map(len, self._ints))

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self._ints)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CNFFormula):
            return NotImplemented
        return (
            self._ints == other._ints
            and self._num_variables == other._num_variables
        )

    def __hash__(self) -> int:
        return hash((self._ints, self._num_variables))

    def __str__(self) -> str:
        if not self._ints:
            return "(empty CNF)"
        return " · ".join(str(c) for c in self.clauses)

    def __repr__(self) -> str:
        return (
            f"CNFFormula(num_variables={self._num_variables}, "
            f"num_clauses={self.num_clauses})"
        )

    def fingerprint(self) -> str:
        """Canonical content hash of the formula (hex SHA-256).

        The hash covers ``num_variables`` and the *sorted* multiset of
        clauses (each clause already normalises its literal order), so two
        formulas that differ only in clause order — or in literal order
        within a clause — fingerprint identically. The result-cache of
        :mod:`repro.runtime` keys on this value.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256(f"p cnf {self._num_variables}\n".encode())
            if self._ints:
                lines = [" ".join(map(str, ints)) for ints in sorted(self._ints)]
                digest.update("\n".join(lines).encode())
                digest.update(b"\n")
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # -- queries -------------------------------------------------------------------
    def variables(self) -> set[int]:
        """Variables actually mentioned by at least one clause."""
        return set(map(abs, chain.from_iterable(self._ints)))

    def has_empty_clause(self) -> bool:
        """``True`` if any clause is empty (the formula is trivially UNSAT)."""
        return not all(self._ints)

    def is_ksat(self, k: int) -> bool:
        """``True`` when every clause has exactly ``k`` literals."""
        return all(len(c) == k for c in self._ints)

    def clause_size_histogram(self) -> dict[int, int]:
        """Mapping ``clause size -> count``."""
        return dict(Counter(map(len, self._ints)))

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Evaluate the formula under a complete assignment.

        Raises :class:`CNFError` when a clause reaches a variable the
        assignment does not bind (literals are read in canonical order).
        """
        for clause in self._ints:
            for lit in clause:
                var = abs(lit)
                if var not in assignment:
                    raise CNFError(f"variable x{var} is unassigned")
                if bool(assignment[var]) == (lit > 0):
                    break
            else:
                return False
        return True

    def is_satisfied_by(self, assignment: Mapping[int, bool]) -> bool:
        """Alias of :meth:`evaluate` matching solver terminology."""
        return self.evaluate(assignment)

    def unsatisfied_clauses(self, assignment: Mapping[int, bool]) -> list[Clause]:
        """Clauses falsified by a complete assignment (for local search)."""
        return [c for c in self.clauses if not c.evaluate(assignment)]

    # -- transformations ---------------------------------------------------------
    def with_clause(self, clause: ClauseLike) -> "CNFFormula":
        """A new formula with one extra clause appended."""
        new_clause = _coerce_clause(clause)
        ints = tuple(new_clause.to_ints())
        views = None if self._clauses is None else self._clauses + (new_clause,)
        return CNFFormula._from_canonical(
            self._ints + (ints,),
            max(self._num_variables, _max_variable((ints,))),
            views,
        )

    def with_assumptions(self, assumptions: Iterable[int]) -> "CNFFormula":
        """A new formula with one unit clause per assumption literal.

        ``assumptions`` are DIMACS-signed integers; appending them as unit
        clauses is the from-scratch equivalent of solving this formula under
        those assumptions in an incremental session (the differential tests
        of :mod:`repro.incremental` rely on this equivalence). The variable
        count grows if an assumption mentions a new variable.
        """
        units: list[IntClause] = []
        max_var = self._num_variables
        for lit in assumptions:
            if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
                raise CNFError(f"invalid assumption literal {lit!r}")
            units.append((lit,))
            max_var = max(max_var, abs(lit))
        return CNFFormula._from_canonical(self._ints + tuple(units), max_var)

    def condition(self, variable: int, value: bool) -> "CNFFormula":
        """Condition the formula on ``x_variable = value``.

        Clauses satisfied by the binding are dropped; the bound variable is
        removed from the remaining clauses (possibly producing empty
        clauses). The variable count is preserved so indices stay stable.
        """
        if not 1 <= variable <= self._num_variables:
            raise CNFError(
                f"variable x{variable} out of range 1..{self._num_variables}"
            )
        true_lit = variable if value else -variable
        survivors: list[IntClause] = []
        for clause in self._ints:
            if true_lit in clause:
                continue
            if -true_lit in clause:
                clause = tuple(lit for lit in clause if lit != -true_lit)
            survivors.append(clause)
        return CNFFormula._from_canonical(tuple(survivors), self._num_variables)

    def remove_tautologies(self) -> "CNFFormula":
        """Drop clauses that contain complementary literals."""
        return CNFFormula._from_canonical(
            tuple(c for c in self._ints if len(set(map(abs, c))) == len(c)),
            self._num_variables,
        )

    def to_ints(self) -> list[list[int]]:
        """DIMACS integer encoding of all clauses."""
        return list(map(list, self._ints))

    def renumbered(self) -> tuple["CNFFormula", dict[int, int]]:
        """Compact variable indices to ``1..k`` (k = #used variables).

        Returns the renumbered formula and the mapping
        ``old variable -> new variable``.
        """
        used = sorted(self.variables())
        mapping = {old: new for new, old in enumerate(used, start=1)}
        # The mapping is increasing, so canonical clauses stay canonical.
        clauses = tuple(
            tuple(mapping[lit] if lit > 0 else -mapping[-lit] for lit in clause)
            for clause in self._ints
        )
        return CNFFormula._from_canonical(clauses, len(used)), mapping
