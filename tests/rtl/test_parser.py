"""Verilog subset: lexer + parser."""

import sys

import pytest

from repro.rtl import ParseError, module_to_ir, parse_module
from repro.rtl.lexer import LexError, parse_sized_literal, tokenize


class TestLexer:
    def test_tokens(self):
        toks = tokenize("assign x = a + 8'hFF; // comment")
        kinds = [t.kind for t in toks]
        assert "sized" in kinds and kinds[-1] == "eof"

    def test_block_comment(self):
        toks = tokenize("a /* junk \n junk */ b")
        assert [t.text for t in toks[:-1]] == ["a", "b"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\nc")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]

    def test_sized_literals(self):
        assert parse_sized_literal("8'd255") == (8, 255)
        assert parse_sized_literal("4'b1010") == (4, 10)
        assert parse_sized_literal("12'hABC") == (12, 0xABC)
        assert parse_sized_literal("8'hF_F") == (8, 255)

    def test_xz_rejected(self):
        with pytest.raises(LexError):
            parse_sized_literal("4'b10xz")


class TestParser:
    def test_ansi_ports(self):
        m = parse_module(
            "module m (input [7:0] a, output [8:0] y); assign y = a; endmodule"
        )
        assert m.nets["a"].direction == "input" and m.nets["a"].width == 8
        assert m.nets["y"].width == 9

    def test_non_ansi_declarations(self):
        m = parse_module(
            """
            module m (input [3:0] a, output y);
              wire [4:0] t = a + 1;
              assign y = t[4];
            endmodule
            """
        )
        assert m.nets["t"].width == 5
        assert len(m.assigns) == 2

    def test_precedence(self):
        m = parse_module(
            "module m (input [3:0] a, input [3:0] b, output [7:0] y);"
            "assign y = a + b << 1; endmodule"
        )
        # << binds looser than +
        rhs = m.assigns[0][1]
        assert rhs.op == "<<"

    def test_ternary_nests_right(self):
        m = parse_module(
            "module m (input a, input b, output y);"
            "assign y = a ? 1 : b ? 2 : 3; endmodule"
        )
        rhs = m.assigns[0][1]
        assert rhs.if_false.cond.name == "b"

    def test_concat_and_replication(self):
        m = parse_module(
            "module m (input [3:0] a, output [11:0] y);"
            "assign y = {a, {2{a}}}; endmodule"
        )
        rhs = m.assigns[0][1]
        assert len(rhs.parts) == 2

    def test_casez_wildcards(self):
        m = parse_module(
            """
            module m (input [2:0] a, output [1:0] y);
              reg [1:0] y;
              always @(*) begin
                casez (a)
                  3'b1??: y = 0;
                  3'b01?: y = 1;
                  default: y = 2;
                endcase
              end
            endmodule
            """
        )
        case = m.cases[0]
        assert case.is_casez
        assert case.arms[0][0].mask == 0b100
        assert case.arms[1][0].value == 0b010

    def test_division_rejected(self):
        with pytest.raises(ParseError):
            parse_module("module m (input a, output y); assign y = a / 2; endmodule")

    def test_signed_rejected(self):
        with pytest.raises(ParseError):
            parse_module("module m (input signed [3:0] a, output y); endmodule")

    def test_part_select_must_be_const(self):
        with pytest.raises(ParseError):
            parse_module(
                "module m (input [3:0] a, input [1:0] i, output y);"
                "assign y = a[i:0]; endmodule"
            )


class TestDeepNesting:
    """Nesting past the recursion limit is refused with a reason, not a
    ``RecursionError``, at both front-end entry points."""

    DEPTH = 3 * sys.getrecursionlimit()

    @staticmethod
    def _module(rhs: str) -> str:
        return f"module m (input [7:0] x, output [7:0] y); assign y = {rhs}; endmodule"

    def test_nested_parentheses(self):
        rhs = "x"
        for _ in range(self.DEPTH):
            rhs = f"({rhs} + 8'd1)"
        for entry in (parse_module, module_to_ir):
            with pytest.raises(ParseError, match="nesting too deep"):
                entry(self._module(rhs))

    def test_long_chain_parses_but_is_too_deep_to_elaborate(self):
        source = self._module("x" + " + 8'd1" * self.DEPTH)
        assert parse_module(source).name == "m"
        with pytest.raises(ParseError, match="nesting too deep"):
            module_to_ir(source)
