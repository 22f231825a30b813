"""Distributed role-based access control (§4.4).

Definition 1: a role is a set of rules ``(column, privileges, range)`` —
which columns a user may touch, with which privileges (read/write), and for
which value range.  Roles compose with three operators:

* ``role_b = role_a.inherit(...)``       — the ⊢ operator,
* ``role_b = role_a.minus(rule)``        — the − operator,
* ``role_b = role_a.plus(rule)``         — the + operator.

Enforcement happens *at the data owner peer*: "The peer, upon receiving the
request, will transform it based on u's access role. The data that cannot be
accessed by u will not be returned" — out-of-scope columns come back as
NULL, and readable columns with a range condition return NULL outside the
range (the paper's Role_sales example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import AccessControlError
from repro.sqlengine.batch import ColumnBatch

READ = "read"
WRITE = "write"
_PRIVILEGES = frozenset({READ, WRITE})


@dataclass(frozen=True)
class AccessRule:
    """One (column, privileges, range) triple.

    ``column`` is ``table.column`` in the global schema.  ``value_range`` is
    an inclusive ``(low, high)`` pair or ``None`` for unrestricted values
    (the paper's ``null`` range).
    """

    column: str
    privileges: FrozenSet[str]
    value_range: Optional[Tuple[object, object]] = None

    def __post_init__(self) -> None:
        if "." not in self.column:
            raise AccessControlError(
                f"rule columns are qualified table.column names: "
                f"{self.column!r}"
            )
        object.__setattr__(self, "column", self.column.lower())
        bad = set(self.privileges) - _PRIVILEGES
        if bad:
            raise AccessControlError(f"unknown privileges: {sorted(bad)}")
        if not self.privileges:
            raise AccessControlError("a rule needs at least one privilege")

    def allows_value(self, value: object) -> bool:
        if self.value_range is None or value is None:
            return True
        low, high = self.value_range
        try:
            return low <= value <= high
        except TypeError:
            return False


def _mask_outside(vector: Sequence[object], access_rule: AccessRule) -> List[object]:
    """``vector`` with the values outside the rule's range set to NULL."""
    low, high = access_rule.value_range
    try:
        return [
            value if value is None or low <= value <= high else None
            for value in vector
        ]
    except TypeError:
        # Some value does not compare with the bounds: decide one by one,
        # as :meth:`AccessRule.allows_value` does (incomparable -> NULL).
        allows = access_rule.allows_value
        return [value if allows(value) else None for value in vector]


def rule(
    column: str,
    privileges: Sequence[str] = (READ,),
    value_range: Optional[Tuple[object, object]] = None,
) -> AccessRule:
    """Convenience constructor for :class:`AccessRule`."""
    return AccessRule(column, frozenset(privileges), value_range)


class Role:
    """A named set of access rules."""

    def __init__(self, name: str, rules: Sequence[AccessRule] = ()) -> None:
        if not name:
            raise AccessControlError("a role needs a name")
        self.name = name
        self._rules: Dict[str, AccessRule] = {}
        for access_rule in rules:
            self._rules[access_rule.column] = access_rule

    @property
    def rules(self) -> List[AccessRule]:
        return list(self._rules.values())

    def rule_for(self, column: str) -> Optional[AccessRule]:
        return self._rules.get(column.lower())

    # -- the three composition operators of §4.4 -------------------------
    def inherit(self, name: str) -> "Role":
        """``Role_i ⊢ Role_j``: the new role gets all privileges of this one."""
        return Role(name, self.rules)

    def plus(self, access_rule: AccessRule, name: Optional[str] = None) -> "Role":
        """``Role_j = Role_i + (c, p, d)``."""
        derived = Role(name or self.name, self.rules)
        derived._rules[access_rule.column] = access_rule
        return derived

    def minus(self, column: str, name: Optional[str] = None) -> "Role":
        """``Role_j = Role_i − (c, p, d)``: drop the rule for ``column``."""
        lowered = column.lower()
        if lowered not in self._rules:
            raise AccessControlError(
                f"role {self.name!r} has no rule for {column!r}"
            )
        derived = Role(name or self.name, self.rules)
        del derived._rules[lowered]
        return derived

    # -- checks -----------------------------------------------------------
    def can_read(self, column: str) -> bool:
        access_rule = self.rule_for(column)
        return access_rule is not None and READ in access_rule.privileges

    def can_write(self, column: str) -> bool:
        access_rule = self.rule_for(column)
        return access_rule is not None and WRITE in access_rule.privileges


def full_access_role(name: str, schemas) -> Role:
    """A role granting read+write on every column of every schema.

    The performance benchmark creates exactly this: "a unique role R ...
    granted full access to all eight tables" (§6.1.4).
    """
    rules = []
    for schema in schemas:
        for column in schema.columns:
            rules.append(
                AccessRule(
                    f"{schema.name}.{column.name}", frozenset({READ, WRITE})
                )
            )
    return Role(name, rules)


class AccessController:
    """Per-peer enforcement point: user -> role assignment plus rewriting."""

    def __init__(self) -> None:
        self._assignments: Dict[str, Role] = {}

    def assign(self, user: str, role: Role) -> None:
        self._assignments[user] = role

    def role_of(self, user: str) -> Role:
        role = self._assignments.get(user)
        if role is None:
            raise AccessControlError(f"user {user!r} has no role at this peer")
        return role

    def has_user(self, user: str) -> bool:
        return user in self._assignments

    def rewrite_rows(
        self,
        user: str,
        table: str,
        columns: Sequence[str],
        batch: ColumnBatch,
    ) -> ColumnBatch:
        """Mask values the user's role does not permit.

        ``columns`` are the bare output column names of ``table``.  A column
        without read privilege returns NULL; a readable column with a range
        condition returns NULL outside the range (values "are marked as
        NULL", §4.4).  Masking works a column at a time and builds new
        vectors — the batch's own may be the owner table's storage — while
        an unrestricted column passes through as the same vector.
        """
        role = self.role_of(user)
        vectors: List[Sequence[object]] = []
        for column, vector in zip(columns, batch.vectors):
            access_rule = role.rule_for(f"{table.lower()}.{column}")
            if access_rule is None or READ not in access_rule.privileges:
                vectors.append([None] * len(batch))
            elif access_rule.value_range is None:
                vectors.append(vector)
            else:
                vectors.append(_mask_outside(vector, access_rule))
        return ColumnBatch(batch.columns, vectors, len(batch))

    def check_readable(self, user: str, table: str, columns: Sequence[str]) -> bool:
        """True iff every listed column is readable for ``user``."""
        role = self.role_of(user)
        return all(
            role.can_read(f"{table.lower()}.{column}") for column in columns
        )
