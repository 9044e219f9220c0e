"""Emit optimized IR back to synthesizable Verilog.

Every distinct subterm becomes one wire (so common subexpressions are shared
in the output RTL, as the e-graph guarantees structurally).  Widths come
from the tree range analysis; ranges that go negative emit ``signed`` wires.
``LZC`` emits the idiomatic casez ladder the frontend recognizes, making
emit -> parse a true round trip.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis import expr_ranges
from repro.intervals import IntervalSet
from repro.ir import ops
from repro.ir.expr import Expr


def emit_verilog(
    outputs: Mapping[str, Expr],
    module_name: str = "design",
    input_ranges: Mapping[str, IntervalSet] | None = None,
) -> str:
    """Render a module with the given output expressions."""
    return _Emitter(dict(outputs), module_name, dict(input_ranges or {})).render()


class _Emitter:
    def __init__(
        self,
        outputs: dict[str, Expr],
        module_name: str,
        input_ranges: dict[str, IntervalSet],
    ) -> None:
        self.outputs = outputs
        self.module_name = module_name
        self.ranges: dict[Expr, IntervalSet] = {}
        for root in outputs.values():
            self.ranges.update(expr_ranges(root, input_ranges))
        self.names: dict[Expr, str] = {}
        self.decls: list[str] = []
        self.body: list[str] = []
        self.case_blocks: list[str] = []
        self._counter = 0

    # ---------------------------------------------------------------- naming
    def _width_of(self, node: Expr) -> tuple[int, bool]:
        iset = self.ranges[node]
        width = iset.storage_width() or 1
        low = iset.min()
        return max(width, 1), bool(low is not None and low < 0)

    def _fresh(self, prefix: str = "t") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _wire(self, node: Expr, rhs: str, force_case: bool = False) -> str:
        name = self._fresh()
        width, signed = self._width_of(node)
        sign = " signed" if signed else ""
        if force_case:
            self.decls.append(f"  reg{sign} [{width - 1}:0] {name};")
            self.case_blocks.append(rhs.replace("@NAME@", name))
        else:
            self.decls.append(f"  wire{sign} [{width - 1}:0] {name};")
            self.body.append(f"  assign {name} = {rhs};")
        self.names[node] = name
        return name

    # ------------------------------------------------------------- rendering
    def render(self) -> str:
        ports = []
        seen_inputs: dict[str, int] = {}
        for root in self.outputs.values():
            for node in root.walk():
                if node.op is ops.VAR:
                    seen_inputs[node.var_name] = node.var_width
        for name in sorted(seen_inputs):
            ports.append(f"  input [{seen_inputs[name] - 1}:0] {name}")
        out_lines = []
        for out_name, root in self.outputs.items():
            width, signed = self._width_of(root)
            sign = " signed" if signed else ""
            ports.append(f"  output{sign} [{width - 1}:0] {out_name}")
            out_lines.append(f"  assign {out_name} = {self.emit(root)};")

        header = f"module {self.module_name} (\n" + ",\n".join(ports) + "\n);"
        lines = [header, *self.decls, *self.body, *self.case_blocks, *out_lines,
                 "endmodule", ""]
        return "\n".join(lines)

    def emit(self, node: Expr) -> str:
        """The name (or literal) of ``node``'s value, emitting its wires.

        Subterms are emitted in the post-order a recursive walk would take
        (an ``ASSUME`` emits only its guarded child), on an explicit stack:
        when :meth:`_emit_node` asks for a child's name it is already
        there, so deep designs emit without Python recursion.
        """
        names = self.names
        stack = [(node, False)]
        while stack:
            current, ready = stack.pop()
            if current in names:
                continue
            if ready:
                names[current] = self._emit_node(current)
                continue
            stack.append((current, True))
            kids = current.children
            if current.op is ops.ASSUME:
                kids = kids[:1]
            stack.extend((kid, False) for kid in reversed(kids) if kid not in names)
        return names[node]

    def _emit_node(self, node: Expr) -> str:
        op = node.op
        if op is ops.VAR:
            return node.var_name
        if op is ops.CONST:
            width, _ = self._width_of(node)
            value = node.value
            if value < 0:
                return self._wire(node, f"-{width}'d{-value}")
            return f"{width}'d{value}"
        if op is ops.ASSUME:
            return self.emit(node.children[0])

        kids = [self.emit(c) for c in node.children]

        if op is ops.MUX:
            return self._wire(node, f"{kids[0]} != 0 ? {kids[1]} : {kids[2]}")
        if op is ops.TRUNC:
            (width,) = node.attrs
            inner = self.emit(node.children[0])
            inner_width, _ = self._width_of(node.children[0])
            if inner_width <= width:
                return inner
            return self._wire(node, f"{inner}[{width - 1}:0]")
        if op is ops.SLICE:
            hi, lo = node.attrs
            return self._wire(node, f"{kids[0]}[{hi}:{lo}]")
        if op is ops.CONCAT:
            (rhs_width,) = node.attrs
            return self._wire(node, f"{{{kids[0]}, {kids[1]}[{rhs_width - 1}:0]}}")
        if op is ops.NOT:
            return self._wire(node, f"~{kids[0]}")
        if op is ops.LNOT:
            return self._wire(node, f"{kids[0]} == 0 ? 1'd1 : 1'd0")
        if op is ops.NEG:
            return self._wire(node, f"-{kids[0]}")
        if op is ops.ABS:
            a = kids[0]
            return self._wire(node, f"{a} < 0 ? -{a} : {a}")
        if op is ops.MIN:
            a, b = kids
            return self._wire(node, f"{a} < {b} ? {a} : {b}")
        if op is ops.MAX:
            a, b = kids
            return self._wire(node, f"{a} > {b} ? {a} : {b}")
        if op is ops.LZC:
            return self._emit_lzc(node, kids[0])

        symbol = {
            ops.ADD: "+", ops.SUB: "-", ops.MUL: "*", ops.SHL: "<<",
            ops.SHR: ">>", ops.AND: "&", ops.OR: "|", ops.XOR: "^",
            ops.LT: "<", ops.LE: "<=", ops.GT: ">", ops.GE: ">=",
            ops.EQ: "==", ops.NE: "!=",
        }.get(op)
        if symbol is None:
            raise ValueError(f"cannot emit operator {op}")
        return self._wire(node, f"{kids[0]} {symbol} {kids[1]}")

    def _emit_lzc(self, node: Expr, operand: str) -> str:
        """Emit the casez priority ladder for a leading-zero count."""
        (width,) = node.attrs
        operand_width, _ = self._width_of(node.children[0])
        if operand_width != width:
            padded = self._fresh("z")
            self.decls.append(f"  wire [{width - 1}:0] {padded};")
            self.body.append(f"  assign {padded} = {operand};")
            operand = padded
        arms = []
        for k in range(width):
            pattern = "0" * k + "1" + "?" * (width - 1 - k)
            arms.append(f"      {width}'b{pattern}: @NAME@ = {k};")
        arms.append(f"      default: @NAME@ = {width};")
        block = (
            "  always @(*) begin\n"
            f"    casez ({operand})\n" + "\n".join(arms) + "\n"
            "    endcase\n"
            "  end"
        )
        return self._wire(node, block, force_case=True)
