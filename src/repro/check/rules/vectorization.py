"""Vectorization rule: REP015 — density hot paths stay on the numpy kernel.

The density layer computes every per-window quantity on the raster
kernel (:mod:`repro.density.raster`): coordinate-compressed occupancy
grids, one array pass per window-column strip.  The rect-set scanline
computation lives only in the tests, as the byte-identity oracle — so
any per-window Python loop added under ``repro/density/`` quietly
reintroduces the O(windows) interpreter overhead the kernel removed,
and nothing else would catch it (the parity tests only prove
equality, not speed).

The rule flags the two shapes the migration removed:

* iterating a :class:`~repro.layout.WindowGrid` window-by-window
  (``for i, j, win in grid`` / ``for ... in grid.windows()``) while
  using the window rect in the body, and
* nested ``range(grid.cols)`` x ``range(grid.rows)`` loops that
  accumulate per-window values.

Code that genuinely needs a per-window loop (k-bounded attribution
reporting, for instance) documents the waiver with
``# repro: noqa[REP015]``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Union

from ..findings import Finding, Severity
from .base import ModuleContext, Rule, _call_name, register

__all__ = ["PerWindowLoopRule"]

_Loop = Union[ast.For, ast.AsyncFor]

#: attribute chains that mark a range(...) as a window-axis sweep
_AXIS_ATTRS = {"cols", "rows"}

#: grid methods that enumerate windows one by one
_WINDOW_ITER_METHODS = {"windows"}


def _range_axis(node: ast.expr) -> Optional[str]:
    """``"cols"``/``"rows"`` when ``node`` is ``range(<expr>.cols|rows)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return None
    if node.func.id != "range" or len(node.args) != 1:
        return None
    arg = node.args[0]
    if isinstance(arg, ast.Attribute) and arg.attr in _AXIS_ATTRS:
        return arg.attr
    return None


def _target_names(target: ast.expr) -> Set[str]:
    return {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}


def _accumulates(body: ast.AST, skip: Optional[ast.AST] = None) -> bool:
    """Does the loop body fold per-window values into a result?

    Accumulation here is any of: an augmented add (``total += ...``),
    an ``xs.append(...)`` call, or a subscript store (``out[i, j] =
    ...``) — the shapes a per-window sweep uses to build its output.
    """
    for node in ast.walk(body):
        if skip is not None and node is skip:
            continue
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            return True
        if isinstance(node, ast.Call) and _call_name(node) == "append":
            return True
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Subscript) for t in node.targets
        ):
            return True
    return False


@register
class PerWindowLoopRule(Rule):
    """Per-window Python loops in the density layer.

    The raster kernel computes every per-window quantity as an array
    pass; a scalar window-by-window loop under ``repro/density/``
    needs an explicit ``# repro: noqa[REP015]`` waiver.  Same shape as
    REP014's one diagnostics channel: one density kernel.
    """

    code = "REP015"
    summary = "per-window Python loop in repro/density/"
    default_severity = Severity.WARNING
    scopes = ("repro/density/",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._window_iter_findings(ctx, node)
                yield from self._nested_axis_findings(ctx, node)

    def _window_iter_findings(
        self, ctx: ModuleContext, loop: _Loop
    ) -> Iterator[Finding]:
        """``for i, j, win in grid`` (or ``grid.windows()``) using ``win``."""
        it = loop.iter
        is_method = (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and it.func.attr in _WINDOW_ITER_METHODS
        )
        is_grid_protocol = isinstance(it, ast.Name) and (
            isinstance(loop.target, ast.Tuple) and len(loop.target.elts) == 3
        )
        if not (is_method or is_grid_protocol):
            return
        if is_grid_protocol:
            # The WindowGrid iterator yields (i, j, window): only a
            # body that touches the window *rect* does per-window
            # geometry; enumerating keys alone is fine.
            win = loop.target.elts[2]
            win_names = _target_names(win) - {"_"}
            if not win_names:
                return
            used = any(
                isinstance(n, ast.Name)
                and n.id in win_names
                and isinstance(n.ctx, ast.Load)
                for stmt in loop.body
                for n in ast.walk(stmt)
            )
            if not used:
                return
        yield self.finding(
            ctx,
            loop,
            "window-by-window iteration doing per-window geometry; "
            "compute the quantity as one raster pass "
            "(repro.density.raster) or waive it with noqa",
        )

    def _nested_axis_findings(
        self, ctx: ModuleContext, outer: _Loop
    ) -> Iterator[Finding]:
        """``for i in range(g.cols): for j in range(g.rows): ...`` folds."""
        if _range_axis(outer.iter) is None:
            return
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.For, ast.AsyncFor)):
                continue
            axis = _range_axis(inner.iter)
            if axis is None or not _accumulates(inner):
                continue
            yield self.finding(
                ctx,
                outer,
                "nested range(cols) x range(rows) sweep accumulating "
                "per-window values; use a vectorized map from "
                "repro.density.raster (or noqa a deliberate "
                "reporting loop)",
            )
            return
