"""Shared AST utilities: import tracking and set-type inference.

Everything here is deliberately flow-insensitive and local — the rules are
reviewable heuristics, not a type checker.  They only claim something is a
set (or a module alias) when the evidence is in the same file.
"""

from __future__ import annotations

import ast
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Set, Tuple,
)

if TYPE_CHECKING:
    from repro.analysis.scopes import Scope


class ImportMap:
    """Which local names are aliases of which modules / module members."""

    def __init__(self, imports: Iterable[ast.stmt]) -> None:
        # name -> module it aliases ("random", "time", "datetime", ...)
        self.module_aliases: Dict[str, str] = {}
        # name -> (module, original member name) for ``from m import x as y``
        self.member_aliases: Dict[str, Tuple[str, str]] = {}
        for node in imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    self.module_aliases[alias.asname or top] = top
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.member_aliases[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    def module_of(self, name: str) -> Optional[str]:
        return self.module_aliases.get(name)

    def member_origin(self, name: str) -> Optional[Tuple[str, str]]:
        return self.member_aliases.get(name)


def is_name(node: ast.AST, *names: str) -> bool:
    """Whether ``node`` is a bare name equal to one of ``names``."""
    return isinstance(node, ast.Name) and node.id in names


_SET_ANNOTATION_NAMES = {
    "set",
    "frozenset",
    "Set",
    "FrozenSet",
    "MutableSet",
    "AbstractSet",
}

_SET_RETURNING_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):  # Set[str], typing.Set[str]
        target = target.value
    if isinstance(target, ast.Attribute):  # typing.Set
        return target.attr in _SET_ANNOTATION_NAMES
    return isinstance(target, ast.Name) and target.id in _SET_ANNOTATION_NAMES


class SetTypes:
    """Infers which expressions in one scope are sets.

    Sources of evidence: set literals/comprehensions, ``set()`` /
    ``frozenset()`` calls, set-algebra operators over known sets, set-typed
    annotations on assignments and parameters, and ``self.x`` attributes
    the enclosing class annotates or assigns a set to.
    """

    def __init__(
        self, scope: "Scope", self_attrs: FrozenSet[str] = frozenset()
    ) -> None:
        self._names: Set[str] = set()
        #: ``self.x`` attributes known to hold sets (:meth:`class_attrs`).
        self._self_attrs: Set[str] = set(self_attrs)
        args = scope.args
        if args is not None:
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if _annotation_is_set(arg.annotation):
                    self._names.add(arg.arg)
        # Two passes so ``a = set(); b = a`` resolves regardless of order.
        for _ in range(2):
            for node in scope.nodes:
                if isinstance(node, ast.Assign):
                    if self.is_set(node.value):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                self._names.add(target.id)
                elif isinstance(node, ast.AnnAssign):
                    if isinstance(node.target, ast.Name) and (
                        _annotation_is_set(node.annotation)
                        or (node.value is not None and self.is_set(node.value))
                    ):
                        self._names.add(node.target.id)
                elif isinstance(node, ast.AugAssign):
                    if isinstance(node.target, ast.Name) and self.is_set(node.value):
                        self._names.add(node.target.id)

    @classmethod
    def class_attrs(cls, class_def: ast.ClassDef) -> FrozenSet[str]:
        """The ``self.x`` attributes a class annotates or assigns a set
        to — computed once per class, shared by all its methods' scopes."""
        probe = cls.__new__(cls)
        probe._names, probe._self_attrs = set(), set()
        probe._collect_class_attrs(class_def)
        return frozenset(probe._self_attrs)

    def _collect_class_attrs(self, cls: ast.ClassDef) -> None:
        for node in ast.walk(cls):
            if isinstance(node, ast.AnnAssign) and _annotation_is_set(node.annotation):
                if isinstance(node.target, ast.Name):
                    # dataclass-style field declaration
                    self._self_attrs.add(node.target.id)
                elif (
                    isinstance(node.target, ast.Attribute)
                    and is_name(node.target.value, "self")
                ):
                    self._self_attrs.add(node.target.attr)
            elif isinstance(node, ast.Assign) and self.is_set(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and is_name(
                        target.value, "self"
                    ):
                        self._self_attrs.add(target.attr)

    def is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self._names
        if isinstance(node, ast.Attribute) and is_name(node.value, "self"):
            return node.attr in self._self_attrs
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set",
                "frozenset",
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_RETURNING_METHODS
            ):
                return self.is_set(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set(node.left) or self.is_set(node.right)
        if isinstance(node, ast.IfExp):
            return self.is_set(node.body) and self.is_set(node.orelse)
        return False
