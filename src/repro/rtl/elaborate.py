"""Elaboration: Verilog AST -> word-level IR.

Width semantics (IEEE-1364-lite, see package docstring): every assignment
establishes a *context width* ``max(target width, RHS self-determined
width)``; context-determined operators (+ - * & | ^ ~ ?: and a shift's left
operand) evaluate exactly inside the context and the elaborator inserts an
explicit ``TRUNC`` wherever Verilog semantics would wrap — at the assignment
itself and in front of every non-modular consumer (shift LHS, comparison and
logical operands, concat parts).  The optimizer's interval analysis then
deletes each wrap it can prove redundant.

``casez`` priority ladders that encode a leading-zero count (the idiomatic
Verilog LZC of Section V) are recognized structurally and become the IR's
``LZC`` operator; other case statements elaborate to equality-guarded mux
chains.
"""

from __future__ import annotations

from repro.ir import expr as ir
from repro.ir.expr import Expr
from repro.rtl import ast


class ElaborationError(ValueError):
    """The module uses constructs outside the supported subset."""


_UNSIZED_WIDTH = 32


def self_width(node, nets: dict[str, ast.Net]) -> int:
    """IEEE self-determined width of an expression."""
    if isinstance(node, ast.VNum):
        return node.width if node.width is not None else _UNSIZED_WIDTH
    if isinstance(node, ast.VId):
        net = nets.get(node.name)
        if net is None:
            raise ElaborationError(f"undeclared identifier {node.name!r}")
        return net.width
    if isinstance(node, ast.VUnary):
        if node.op in ("!", "&", "|", "^"):
            return 1
        return self_width(node.operand, nets)
    if isinstance(node, ast.VBinary):
        if node.op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
            return 1
        if node.op in ("<<", ">>"):
            return self_width(node.left, nets)
        return max(self_width(node.left, nets), self_width(node.right, nets))
    if isinstance(node, ast.VTernary):
        return max(self_width(node.if_true, nets), self_width(node.if_false, nets))
    if isinstance(node, ast.VConcat):
        return sum(self_width(p, nets) for p in node.parts)
    if isinstance(node, ast.VRepl):
        return node.times * self_width(node.operand, nets)
    if isinstance(node, ast.VIndex):
        return 1
    if isinstance(node, ast.VRange):
        return node.hi - node.lo + 1
    raise ElaborationError(f"unknown AST node {node!r}")


class _Elaborator:
    def __init__(self, module: ast.Module) -> None:
        self.module = module
        self.nets = module.nets
        self.wires: dict[str, Expr] = {}

    # -------------------------------------------------------------- plumbing
    def region(self, node) -> Expr:
        """Elaborate at the node's self width, wrapped (a region boundary)."""
        width = self_width(node, self.nets)
        return ir.trunc(self.elab(node, width), width)

    def to_bool(self, node) -> Expr:
        """Condition value: nonzero test unless already one bit."""
        if self_width(node, self.nets) == 1:
            return self.region(node)
        return ir.ne(self.region(node), 0)

    # ------------------------------------------------------------ expression
    def elab(self, node, ctx: int) -> Expr:
        if isinstance(node, ast.VNum):
            return ir.const(node.value)
        if isinstance(node, ast.VId):
            return self._lookup(node.name)
        if isinstance(node, ast.VUnary):
            return self._unary(node, ctx)
        if isinstance(node, ast.VBinary):
            return self._binary(node, ctx)
        if isinstance(node, ast.VTernary):
            return ir.mux(
                self.to_bool(node.cond),
                self.elab(node.if_true, ctx),
                self.elab(node.if_false, ctx),
            )
        if isinstance(node, ast.VConcat):
            return self._concat(list(node.parts))
        if isinstance(node, ast.VRepl):
            return self._concat([node.operand] * node.times)
        if isinstance(node, ast.VIndex):
            base = self.region(node.base)
            if isinstance(node.index, ast.VNum):
                return ir.slice_(base, node.index.value, node.index.value)
            return ir.trunc(Expr(ir.ops.SHR, (), (base, self.region(node.index))), 1)
        if isinstance(node, ast.VRange):
            return ir.slice_(self.region(node.base), node.hi, node.lo)
        raise ElaborationError(f"unknown AST node {node!r}")

    def _lookup(self, name: str) -> Expr:
        net = self.nets.get(name)
        if net is None:
            raise ElaborationError(f"undeclared identifier {name!r}")
        if net.direction == "input":
            return ir.var(name, net.width)
        if name not in self.wires:
            raise ElaborationError(
                f"{name!r} used before assignment (source must be topological)"
            )
        return self.wires[name]

    def _unary(self, node: ast.VUnary, ctx: int) -> Expr:
        if node.op == "-":
            return -self.elab(node.operand, ctx)
        if node.op == "~":
            wrapped = ir.trunc(self.elab(node.operand, ctx), ctx)
            return ir.bitnot(wrapped, ctx)
        if node.op == "!":
            return ir.lnot(self.region(node.operand))
        operand = self.region(node.operand)
        width = self_width(node.operand, self.nets)
        if node.op == "|":
            return ir.ne(operand, 0)
        if node.op == "&":
            return ir.eq(operand, (1 << width) - 1)
        if node.op == "^":
            raise ElaborationError("XOR reduction is not supported")
        raise ElaborationError(f"unknown unary {node.op!r}")

    def _binary(self, node: ast.VBinary, ctx: int) -> Expr:
        op = node.op
        if op in ("+", "-", "*", "&", "|", "^"):
            left = self.elab(node.left, ctx)
            right = self.elab(node.right, ctx)
            if op in ("&", "|", "^"):
                # Bitwise operators need in-range (non-negative) operands.
                left = ir.trunc(left, ctx)
                right = ir.trunc(right, ctx)
            table = {"+": ir.ops.ADD, "-": ir.ops.SUB, "*": ir.ops.MUL,
                     "&": ir.ops.AND, "|": ir.ops.OR, "^": ir.ops.XOR}
            return Expr(table[op], (), (left, right))
        if op in ("<<", ">>"):
            left = ir.trunc(self.elab(node.left, ctx), ctx)
            right = self.region(node.right)
            table = {"<<": ir.ops.SHL, ">>": ir.ops.SHR}
            return Expr(table[op], (), (left, right))
        if op in ("<", "<=", ">", ">=", "==", "!="):
            width = max(
                self_width(node.left, self.nets), self_width(node.right, self.nets)
            )
            left = ir.trunc(self.elab(node.left, width), width)
            right = ir.trunc(self.elab(node.right, width), width)
            table = {"<": ir.ops.LT, "<=": ir.ops.LE, ">": ir.ops.GT,
                     ">=": ir.ops.GE, "==": ir.ops.EQ, "!=": ir.ops.NE}
            return Expr(table[op], (), (left, right))
        if op == "&&":
            return Expr(ir.ops.AND, (), (self.to_bool(node.left), self.to_bool(node.right)))
        if op == "||":
            return Expr(ir.ops.OR, (), (self.to_bool(node.left), self.to_bool(node.right)))
        raise ElaborationError(f"unknown binary {op!r}")

    def _concat(self, parts: list) -> Expr:
        acc = self.region(parts[0])
        for part in parts[1:]:
            width = self_width(part, self.nets)
            acc = Expr(ir.ops.SHL, (), (acc, ir.const(width))) + self.region(part)
        return acc

    # ------------------------------------------------------------ statements
    def run(self) -> None:
        """Elaborate all assignments, tolerating any statement order.

        Statements whose operands are not yet available are retried until a
        full pass makes no progress (then a genuine use-before-def or a
        combinational cycle is reported).
        """
        pending: list = list(self.module.assigns) + list(self.module.cases)
        while pending:
            stuck: list = []
            failure: ElaborationError | None = None
            for item in pending:
                try:
                    if isinstance(item, ast.CaseStmt):
                        self._case(item)
                    else:
                        self._assign(*item)
                except ElaborationError as err:
                    if "before assignment" not in str(err):
                        raise
                    failure = err
                    stuck.append(item)
            if len(stuck) == len(pending):
                raise failure if failure else ElaborationError("no progress")
            pending = stuck

    def _assign(self, name: str, rhs) -> None:
        net = self.nets.get(name)
        if net is None:
            raise ElaborationError(f"assignment to undeclared {name!r}")
        ctx = max(net.width, self_width(rhs, self.nets))
        self.wires[name] = ir.trunc(self.elab(rhs, ctx), net.width)

    def _case(self, case: ast.CaseStmt) -> None:
        net = self.nets.get(case.target)
        if net is None:
            raise ElaborationError(f"case assigns undeclared {case.target!r}")
        subject_width = self_width(case.subject, self.nets)
        subject = self.region(case.subject)

        lzc_width = _recognize_lzc(case, subject_width)
        if lzc_width is not None:
            self.wires[case.target] = ir.trunc(
                ir.lzc(subject, lzc_width), net.width
            )
            return

        widths = [net.width, subject_width]
        widths += [self_width(rhs, self.nets) for _, rhs in case.arms]
        if case.default is not None:
            widths.append(self_width(case.default, self.nets))
        ctx = max(widths)

        if case.default is not None:
            acc = self.elab(case.default, ctx)
        else:
            acc = ir.const(0)
        for label, rhs in reversed(case.arms):
            masked = subject if label.mask == (1 << label.width) - 1 else (
                Expr(ir.ops.AND, (), (subject, ir.const(label.mask)))
            )
            cond = ir.eq(masked, label.value)
            acc = ir.mux(cond, self.elab(rhs, ctx), acc)
        self.wires[case.target] = ir.trunc(acc, net.width)


def _recognize_lzc(case: ast.CaseStmt, subject_width: int) -> int | None:
    """Detect the idiomatic casez priority ladder computing an LZC.

    Pattern for width ``w``: arm ``k`` has label ``0^k 1 ?^(w-k-1)`` and body
    ``k``; the all-zero subject (default or explicit zero label) yields
    ``w``.  Returns ``w`` on match, else None.
    """
    if not case.is_casez:
        return None
    w = subject_width
    arms = list(case.arms)
    zero_result: ast.VNum | None = None
    if arms and arms[-1][0].mask == (1 << w) - 1 and arms[-1][0].value == 0:
        label, rhs = arms.pop()
        if isinstance(rhs, ast.VNum):
            zero_result = rhs
    if len(arms) != w:
        return None
    for k, (label, rhs) in enumerate(arms):
        if label.width != w:
            return None
        expected_value = 1 << (w - 1 - k)
        expected_mask = ((1 << (k + 1)) - 1) << (w - 1 - k)
        if label.value != expected_value or label.mask != expected_mask:
            return None
        if not isinstance(rhs, ast.VNum) or rhs.value != k:
            return None
    if zero_result is None:
        default = case.default
        if not isinstance(default, ast.VNum) or default.value != w:
            return None
    elif zero_result.value != w:
        return None
    return w


def elaborate(module: ast.Module) -> dict[str, Expr]:
    """Elaborate every output of the module to an IR expression."""
    worker = _Elaborator(module)
    worker.run()
    out: dict[str, Expr] = {}
    for net in module.outputs:
        if net.name not in worker.wires:
            raise ElaborationError(f"output {net.name!r} is never assigned")
        out[net.name] = worker.wires[net.name]
    return out


def module_to_ir(source: str) -> dict[str, Expr]:
    """Parse + elaborate in one call.

    Raises :class:`~repro.rtl.parser.ParseError` or
    :class:`ElaborationError` for any source it cannot take, including one
    nested too deeply to elaborate.
    """
    from repro.rtl.parser import TOO_DEEP, ParseError, parse_module

    module = parse_module(source)
    try:
        return elaborate(module)
    except RecursionError:
        raise ParseError(TOO_DEEP) from None
