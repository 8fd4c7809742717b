"""The recursive-descent parser that LaurentPoly.parse used before it became
one function of three rules, kept as the oracle of its grammar.  It reads
juxtaposition ("2t^3", "t^-1(t - 1)") as a precedence level of its own,
bound tighter than "*"; as multiplication is associative, that level never
changes a value.  It lets Fraction's ZeroDivisionError escape on "1/0" and
"0^-1", where LaurentPoly.parse raises ExactError.

Its inverse, the printer that LaurentPoly.to_string was before each distinct
value came to be formatted once (exact._text), is kept here too, as the
oracle of the printed form: it walks items() and writes every term anew.
"""
import re
from fractions import Fraction

from wkostka.exact import ExactError, LaurentPoly

_TOKEN_RE = re.compile(r"\s*(\d+|[()+\-*/^]|[A-Za-z]+)")


def literal_parse(text: str) -> LaurentPoly:
    return _PolyParser(text).parse()


class _PolyParser:
    def __init__(self, text: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ExactError(f"cannot tokenize {text[pos:]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> LaurentPoly:
        p = self.sum()
        if self.peek() is not None:
            raise ExactError(f"trailing input at token {self.peek()!r}")
        return p

    def sum(self) -> LaurentPoly:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        total = self.product() * sign
        while self.peek() in ("+", "-"):
            op = self.take()
            term = self.product()
            total = total + term if op == "+" else total - term
        return total

    def product(self) -> LaurentPoly:
        p = self.atomseq()
        while self.peek() == "*":
            self.take()
            p = p * self.atomseq()
        return p

    def atomseq(self) -> LaurentPoly:
        # juxtaposition binds tighter than '*': "2t^3", "t^-1(t-1)"
        p = self.atom()
        while True:
            nxt = self.peek()
            if nxt == "(" or nxt == "t" or (nxt is not None and nxt.isdigit()):
                p = p * self.atom()
            else:
                return p

    def _int(self) -> int:
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise ExactError(f"expected an integer, got {tok!r}")
        return int(tok)

    def _exponent(self) -> int:
        neg = False
        if self.peek() == "-":
            self.take()
            neg = True
        k = self._int()
        return -k if neg else k

    def atom(self) -> LaurentPoly:
        tok = self.peek()
        if tok is None:
            raise ExactError("unexpected end of input")
        if tok == "(":
            self.take()
            p = self.sum()
            if self.take() != ")":
                raise ExactError("missing closing parenthesis")
            if self.peek() == "^":
                self.take()
                return p ** self._exponent()
            return p
        if tok == "t":
            self.take()
            e = 1
            if self.peek() == "^":
                self.take()
                e = self._exponent()
            return LaurentPoly.t_power(e)
        if tok.isdigit():
            num = self._int()
            val = Fraction(num)
            if self.peek() == "/":
                self.take()
                val = Fraction(num, self._int())
            if self.peek() == "^":
                self.take()
                val = val ** self._exponent()
            return LaurentPoly.const(val)
        raise ExactError(f"unexpected token {tok!r}")


def literal_to_string(p: LaurentPoly) -> str:
    if not p.coeffs:
        return "0"
    parts = []
    for e, v in p.items():
        mag = -v if v < 0 else v
        if e == 0:
            body = str(mag)
        else:
            tpart = "t" if e == 1 else f"t^{e}"
            if mag == 1:
                body = tpart
            elif mag.denominator == 1:
                body = f"{mag}{tpart}"
            else:
                body = f"{mag}*{tpart}"
        if not parts:
            parts.append(body if v > 0 else "-" + body)
        else:
            parts.append((" + " if v > 0 else " - ") + body)
    return "".join(parts)


def literal_to_latex(p: LaurentPoly) -> str:
    return re.sub(r"\^(-?\d+)", r"^{\1}", literal_to_string(p))
