"""Recursive-descent parser for the Verilog subset."""

from __future__ import annotations

from repro.rtl import ast
from repro.rtl.lexer import Token, parse_sized_literal, tokenize


class ParseError(ValueError):
    """Source does not conform to the supported Verilog subset."""


#: Binary precedence levels, loosest first (ternary sits above all of these).
_LEVELS: list[tuple[str, ...]] = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>", ">>>"),
    ("+", "-"),
    ("*", "/", "%"),
]


#: The reason a module too deeply nested for the recursive descent (or the
#: elaborator's recursion) is refused.
TOO_DEEP = "expression nesting too deep"


def parse_module(source: str) -> ast.Module:
    """Parse exactly one module.

    Source outside the subset raises :class:`ParseError`, and so does
    nesting deeper than the interpreter's recursion limit allows.
    """
    try:
        return _Parser(tokenize(source)).module()
    except RecursionError:
        raise ParseError(TOO_DEEP) from None


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------- utilities
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"line {tok.line}: expected {text!r}, got {tok.text!r}")
        return tok

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.next()
            return True
        return False

    def ident(self) -> str:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"line {tok.line}: expected identifier, got {tok.text!r}")
        return tok.text

    # --------------------------------------------------------------- module
    def module(self) -> ast.Module:
        self.expect("module")
        mod = ast.Module(self.ident())
        self.expect("(")
        if not self.accept(")"):
            self._port_list(mod)
            self.expect(")")
        self.expect(";")
        while self.peek().text != "endmodule":
            self._item(mod)
        self.expect("endmodule")
        return mod

    def _range(self) -> int:
        """Parse ``[msb:lsb]``; returns the width (lsb must be 0)."""
        self.expect("[")
        msb = int(self.next().text)
        self.expect(":")
        lsb = int(self.next().text)
        self.expect("]")
        if lsb != 0:
            raise ParseError(f"only [msb:0] declarations supported, got [{msb}:{lsb}]")
        return msb + 1

    def _port_list(self, mod: ast.Module) -> None:
        while True:
            direction = None
            if self.peek().text in ("input", "output"):
                direction = self.next().text
            if self.peek().text in ("wire", "logic", "reg"):
                self.next()
            if self.accept("signed"):
                raise ParseError("signed ports are not supported")
            width = self._range() if self.peek().text == "[" else 1
            name = self.ident()
            if direction is None:
                raise ParseError(f"port {name}: non-ANSI headers need directions")
            mod.nets[name] = ast.Net(name, width, direction)
            if not self.accept(","):
                break

    def _item(self, mod: ast.Module) -> None:
        tok = self.peek()
        if tok.text in ("input", "output", "wire", "logic", "reg"):
            self._declaration(mod)
        elif tok.text == "assign":
            self._assign(mod)
        elif tok.text in ("always_comb", "always"):
            self._always(mod)
        else:
            raise ParseError(f"line {tok.line}: unexpected {tok.text!r}")

    def _declaration(self, mod: ast.Module) -> None:
        kind = self.next().text
        direction = kind if kind in ("input", "output") else "wire"
        if self.peek().text in ("wire", "logic", "reg"):
            self.next()
        if self.accept("signed"):
            raise ParseError("signed declarations are not supported")
        width = self._range() if self.peek().text == "[" else 1
        while True:
            name = self.ident()
            if name in mod.nets and direction == "wire":
                # 'output' followed by 'wire' redeclaration: keep direction.
                pass
            else:
                mod.nets[name] = ast.Net(name, width, direction)
            if self.accept("="):
                mod.assigns.append((name, self.expression()))
            if not self.accept(","):
                break
        self.expect(";")

    def _assign(self, mod: ast.Module) -> None:
        self.expect("assign")
        name = self.ident()
        self.expect("=")
        mod.assigns.append((name, self.expression()))
        self.expect(";")

    def _always(self, mod: ast.Module) -> None:
        head = self.next().text
        if head == "always":
            self.expect("@")
            if self.accept("("):
                self.expect("*")
                self.expect(")")
            else:
                self.expect("*")
        wrapped = self.accept("begin")
        mod.cases.append(self._case())
        if wrapped:
            self.expect("end")

    def _case(self) -> ast.CaseStmt:
        keyword = self.next().text
        if keyword not in ("case", "casez"):
            raise ParseError(f"always blocks may only contain case/casez, got {keyword!r}")
        self.expect("(")
        subject = self.expression()
        self.expect(")")
        arms: list[tuple[ast.CaseLabel, object]] = []
        default = None
        target = None
        while not self.accept("endcase"):
            if self.accept("default"):
                self.expect(":")
                target = self._check_target(target)
                self.expect("=")
                default = self.expression()
                self.expect(";")
                continue
            label = self._case_label(keyword == "casez")
            self.expect(":")
            target = self._check_target(target)
            self.expect("=")
            arms.append((label, self.expression()))
            self.expect(";")
        if target is None:
            raise ParseError("empty case statement")
        return ast.CaseStmt(subject, target, arms, default, keyword == "casez")

    def _check_target(self, seen: str | None) -> str:
        name = self.ident()
        if seen is not None and name != seen:
            raise ParseError(
                f"case arms must assign a single target ({seen!r} vs {name!r})"
            )
        return name

    def _case_label(self, allow_wild: bool) -> ast.CaseLabel:
        tok = self.next()
        if tok.kind == "number":
            value = int(tok.text)
            width = max(value.bit_length(), 1)
            return ast.CaseLabel(value, (1 << width) - 1, width)
        if tok.kind != "sized":
            raise ParseError(f"line {tok.line}: bad case label {tok.text!r}")
        width_text, rest = tok.text.split("'", 1)
        base = rest[0].lower()
        digits = rest[1:].replace("_", "")
        width = int(width_text)
        if "?" in digits or "z" in digits.lower():
            if base != "b":
                raise ParseError("wildcard case labels must be binary")
            if not allow_wild:
                raise ParseError("'?' labels need casez")
            value = mask = 0
            for ch in digits:
                value <<= 1
                mask <<= 1
                if ch in "?zZ":
                    continue
                mask |= 1
                value |= int(ch, 2)
            return ast.CaseLabel(value, mask, width)
        w, v = parse_sized_literal(tok.text)
        return ast.CaseLabel(v, (1 << w) - 1, w)

    # ----------------------------------------------------------- expressions
    def expression(self):
        return self._ternary()

    def _ternary(self):
        cond = self._binary(0)
        if not self.accept("?"):
            return cond
        if_true = self._ternary()
        self.expect(":")
        if_false = self._ternary()
        return ast.VTernary(cond, if_true, if_false)

    def _binary(self, level: int):
        if level == len(_LEVELS):
            return self._unary()
        left = self._binary(level + 1)
        while self.peek().text in _LEVELS[level] and self.peek().kind == "op":
            op = self.next().text
            if op in ("/", "%"):
                raise ParseError("division/modulo are not supported")
            if op == ">>>":
                op = ">>"
            right = self._binary(level + 1)
            left = ast.VBinary(op, left, right)
        return left

    def _unary(self):
        tok = self.peek()
        if tok.text in ("~", "-", "!", "+"):
            self.next()
            operand = self._unary()
            if tok.text == "+":
                return operand
            return ast.VUnary(tok.text, operand)
        if tok.text in ("&", "|", "^") and tok.kind == "op":
            # Reduction operators appear only in prefix position here.
            self.next()
            return ast.VUnary(tok.text, self._unary())
        return self._postfix()

    def _postfix(self):
        base = self._primary()
        while self.peek().text == "[":
            self.next()
            first = self.expression()
            if self.accept(":"):
                hi = self._const_index(first)
                lo = self._const_index(self.expression())
                base = ast.VRange(base, hi, lo)
            else:
                base = ast.VIndex(base, first)
            self.expect("]")
        return base

    @staticmethod
    def _const_index(expr) -> int:
        if isinstance(expr, ast.VNum):
            return expr.value
        raise ParseError("part-select bounds must be constant")

    def _primary(self):
        tok = self.next()
        if tok.text == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        if tok.text == "{":
            return self._concat_or_repl()
        if tok.kind == "number":
            return ast.VNum(int(tok.text.replace("_", "")), None)
        if tok.kind == "sized":
            width, value = parse_sized_literal(tok.text)
            return ast.VNum(value, width)
        if tok.kind == "ident":
            return ast.VId(tok.text)
        raise ParseError(f"line {tok.line}: unexpected {tok.text!r} in expression")

    def _concat_or_repl(self):
        first = self.expression()
        if self.peek().text == "{":
            if not isinstance(first, ast.VNum):
                raise ParseError("replication count must be constant")
            self.next()
            operand = self.expression()
            self.expect("}")
            self.expect("}")
            return ast.VRepl(first.value, operand)
        parts = [first]
        while self.accept(","):
            parts.append(self.expression())
        self.expect("}")
        return ast.VConcat(tuple(parts))
