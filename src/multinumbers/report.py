"""Pass/fail records produced by the identity checks, and the frozen
record base they and the moment records share."""

from __future__ import annotations

from .series import _fraction

PASS = "pass"
FAIL = "fail"
EXPECTED_DISCREPANCY = "expected-discrepancy"

_STATUSES = (PASS, FAIL, EXPECTED_DISCREPANCY)


class FrozenRecord:
    """Immutable value record over the fields named in ``_fields``.

    Equality, hash, repr and the refusal of assignment are those of a
    frozen dataclass with the same fields: records are equal when they have
    the same class and field values, the hash is ``hash`` of the field
    tuple, and setting or deleting an attribute raises ``AttributeError``.
    Subclasses name their fields in ``_fields``, ``__match_args__`` and
    ``__slots__`` and set them in ``__init__`` with ``object.__setattr__``.
    A subclass whose fields have one canonical form may compare and hash
    that instead, with the same equality: ``MomentSequence`` reads its
    integer column and hashes it, not its ``Fraction`` moments, and
    ``DistributionSpec`` its parameter pairs.
    The dataclasses module is not used because it is the largest import on
    a cold start.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Mismatch(FrozenRecord):
    """The first n at which the two sides of a check differ, with both values.

    The slot ``pairs`` holds the two values as the check compared them,
    integer pairs ``(a, d)`` standing for ``a / d`` with ``d > 0``, not
    reduced; the ``verify`` report writer reads them.  The fields ``lhs`` and
    ``rhs`` are those values as ``Fraction``, built on each read, and
    equality, hash and repr read the fields.  Iterating gives
    ``(n, lhs, rhs)``, and the record equals and hashes as that tuple; it
    has no indexing, length or ordering."""

    _fields = ("n", "lhs", "rhs")
    __match_args__ = _fields
    __slots__ = ("n", "pairs")

    n: int

    def __init__(self, n: int, lhs, rhs) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "pairs", ((lhs.numerator, lhs.denominator), (rhs.numerator, rhs.denominator))
        )

    @property
    def lhs(self):
        return _fraction(*self.pairs[0])

    @property
    def rhs(self):
        return _fraction(*self.pairs[1])

    def __eq__(self, other):
        if isinstance(other, (Mismatch, tuple)):
            return self._values() == tuple(other)
        return NotImplemented

    __hash__ = FrozenRecord.__hash__

    def __iter__(self):
        return iter(self._values())


def _mismatch(n: int, lhs: tuple[int, int], rhs: tuple[int, int]) -> Mismatch:
    """The mismatch at ``n`` of the values ``lhs`` and ``rhs``, each an
    integer pair ``(a, d)`` with ``d > 0``; no ``Fraction`` is built."""
    m = object.__new__(Mismatch)
    object.__setattr__(m, "n", n)
    object.__setattr__(m, "pairs", (lhs, rhs))
    return m


class VerificationReport(FrozenRecord):
    """Outcome of one identity check at one grid point.

    ``status`` is ``pass``, ``fail`` or ``expected-discrepancy``;
    ``first_mismatch`` is present exactly when it is not ``pass``.
    """

    _fields = ("identity", "order", "ks", "dist", "status", "first_mismatch", "detail")
    __match_args__ = _fields
    __slots__ = _fields

    identity: str
    order: int
    ks: tuple[int, ...] | None
    dist: str | None
    status: str
    first_mismatch: Mismatch | None
    detail: str

    def __init__(
        self,
        identity: str,
        order: int,
        ks: tuple[int, ...] | None = None,
        dist: str | None = None,
        status: str = PASS,
        first_mismatch: Mismatch | None = None,
        detail: str = "",
    ) -> None:
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status!r}")
        has_mismatch = first_mismatch is not None
        if status == PASS and has_mismatch:
            raise ValueError(f"status {status!r} cannot carry a mismatch")
        if status in (FAIL, EXPECTED_DISCREPANCY) and not has_mismatch:
            raise ValueError(f"status {status!r} requires a mismatch")
        setattr_ = object.__setattr__
        setattr_(self, "identity", identity)
        setattr_(self, "order", order)
        setattr_(self, "ks", ks)
        setattr_(self, "dist", dist)
        setattr_(self, "status", status)
        setattr_(self, "first_mismatch", first_mismatch)
        setattr_(self, "detail", detail)
