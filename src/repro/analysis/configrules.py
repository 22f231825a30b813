"""Configuration hygiene: CFG001.

Every tunable has one home — ``repro.core.config``.  A config key read as
``options.get("engine", "basic")`` plants a second copy of the default that
drifts the first time the real one changes, and the simulation quietly runs
two different configurations depending on which code path read the key.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import FileContext, Rule, register_rule

#: Receiver names that signal "this mapping is configuration".
_CONFIG_RECEIVER_NAMES = {
    "config",
    "cfg",
    "conf",
    "configuration",
    "options",
    "opts",
    "settings",
    "params",
}

#: The one module allowed to define literal defaults.
_CONFIG_HOME_SUFFIX = "core/config.py"


def _is_literal(node: ast.expr) -> bool:
    """Constants and containers of constants — the drift-prone defaults."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return all(_is_literal(element) for element in node.elts)
    if isinstance(node, ast.Dict):
        return all(
            key is not None and _is_literal(key) and _is_literal(value)
            for key, value in zip(node.keys, node.values)
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_literal(node.operand)
    return False


def _config_receiver(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id.lower() in _CONFIG_RECEIVER_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr.lower() in _CONFIG_RECEIVER_NAMES
    return False


@register_rule
class InlineConfigDefaultRule(Rule):
    """CFG001: ``<config>.get(key, <literal>)`` embeds a shadow default.
    Name the default in ``repro.core.config`` and pass that constant (a
    named default is not flagged — only inline literals are)."""

    id = "CFG001"
    severity = Severity.WARNING
    description = (
        "config key read with an inline literal default; hoist the default "
        "into repro/core/config.py"
    )
    categories = ("src",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path.endswith(_CONFIG_HOME_SUFFIX):
            return
        for site in ctx.walk.call_sites():
            node = site.node
            if not (
                site.receiver is not None
                and site.callee_name == "get"
                and len(node.args) >= 2
                and not node.keywords
            ):
                continue
            if not _config_receiver(node.func.value):
                continue
            default = node.args[1]
            if default is None or not _is_literal(default):
                continue
            if isinstance(default, ast.Constant) and default.value is None:
                continue  # .get(key, None) adds no second default
            key = node.args[0]
            key_text = (
                repr(key.value) if isinstance(key, ast.Constant) else "<key>"
            )
            yield self.finding(
                ctx,
                node,
                f"config key {key_text} read with inline default "
                f"{ast.unparse(default)}; name the default in "
                "repro/core/config.py and reference it",
            )
