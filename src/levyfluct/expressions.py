"""A small, safe expression grammar for penalty/extension specs.

Grammar: numbers, the variable ``y``, ``+ - * / **``, unary minus, and the
calls ``exp``, ``abs``, ``max``, ``min``, ``indicator(<comparison>)`` and
``W(<expr>)`` (the scale function of the problem at hand, when one is bound).
Comparisons are only allowed directly inside ``indicator``.  Compiled
callables broadcast over numpy arrays.
"""

from __future__ import annotations

import ast
from functools import reduce

import numpy as np

from .errors import SpecError

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.true_divide,
    ast.Pow: np.power,
}
_COMPARE = {
    ast.Lt: np.less,
    ast.LtE: np.less_equal,
    ast.Gt: np.greater,
    ast.GtE: np.greater_equal,
}


def compile_expression(text, w=None):
    """Compile an expression in ``y`` to a callable; ``w`` binds W(...)."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise SpecError(f"cannot parse expression {text!r}: {exc}", field="expr")

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                val = float(node.value)
                return lambda y: val
            raise SpecError(f"literal {node.value!r} not allowed", field="expr")
        if isinstance(node, ast.Name):
            if node.id == "y":
                return lambda y: y
            raise SpecError(f"unknown symbol {node.id!r}", field="expr")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = build(node.operand)
            if isinstance(node.op, ast.USub):
                return lambda y: -inner(y)
            return inner
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op = _BINOPS[type(node.op)]
            left, right = build(node.left), build(node.right)
            return lambda y: op(left(y), right(y))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if node.keywords:
                raise SpecError("keyword arguments not allowed", field="expr")
            if name == "indicator":
                if len(node.args) != 1 or not isinstance(node.args[0], ast.Compare):
                    raise SpecError("indicator takes one comparison", field="expr")
                cmp = node.args[0]
                if len(cmp.ops) != 1 or type(cmp.ops[0]) not in _COMPARE:
                    raise SpecError("only single <, <=, >, >= comparisons allowed",
                                    field="expr")
                op = _COMPARE[type(cmp.ops[0])]
                lhs, rhs = build(cmp.left), build(cmp.comparators[0])
                return lambda y: op(lhs(y), rhs(y)) * 1.0
            args = [build(arg) for arg in node.args]
            if name == "exp" and len(args) == 1:
                return lambda y: np.exp(args[0](y))
            if name == "abs" and len(args) == 1:
                return lambda y: np.abs(args[0](y))
            if name == "max" and len(args) >= 2:
                return lambda y: reduce(np.maximum, (g(y) for g in args))
            if name == "min" and len(args) >= 2:
                return lambda y: reduce(np.minimum, (g(y) for g in args))
            if name == "W":
                if w is None:
                    raise SpecError("W(...) is not available in this context",
                                    field="expr")
                if len(args) != 1:
                    raise SpecError("W takes one argument", field="expr")
                return lambda y: w(args[0](y))
            raise SpecError(f"unknown function {name!r}", field="expr")
        raise SpecError(f"disallowed syntax {type(node).__name__}", field="expr")

    return build(tree)
