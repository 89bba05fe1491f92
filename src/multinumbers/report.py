"""Pass/fail records produced by the identity checks, and the frozen
record base they and the moment records share."""

from __future__ import annotations

from collections import namedtuple

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
EXPECTED_DISCREPANCY = "expected-discrepancy"

_STATUSES = (PASS, FAIL, SKIPPED, EXPECTED_DISCREPANCY)


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
    integer column and hashes it, not its ``Fraction`` moments.
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


class Mismatch(namedtuple("Mismatch", ("n", "lhs", "rhs"))):
    """The first n at which the two sides of a check differ, with both values."""

    __slots__ = ()


class VerificationReport(FrozenRecord):
    """Outcome of one identity check at one grid point.

    ``first_mismatch`` is present exactly when the check found unequal
    coefficients; skipped checks record why in ``detail``.
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
        if status in (PASS, SKIPPED) and has_mismatch:
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
