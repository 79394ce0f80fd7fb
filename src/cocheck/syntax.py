"""The front end shared by the identity language (`identlang`) and the
rule expressions of spec files (`rules`): one tokenizer loop, the input
bounds of both, the quote for error messages, and a recursive-descent
base with the signed `+`/`-` loop.  Each language subclasses `Descent`
and keeps its own grammar, size bounds and error type.
"""
from __future__ import annotations

import re

# Deepest nesting accepted; the parsers recurse once per level.
MAX_NESTING = 50

# Longest integer literal: Python's default limit on int-string conversion.
MAX_DIGITS = 4300

# Longest input quoted in an error message, however long the input.
MAX_QUOTE = 60


def quote(text: str) -> str:
    """repr(text) cut to MAX_QUOTE characters."""
    if len(text) <= MAX_QUOTE:
        return repr(text)
    return f"{text[:MAX_QUOTE]!r}... ({len(text)} characters)"


class Descent:
    """Recursive descent over one expression.  A subclass gives `TOKEN`
    (whitespace, then one token in group 1), `parse_term` (a value with
    `scale`, `+` and unary `-`) and `fail(message, offset=None)`, which
    raises its error; the offset defaults to the next token's, `where()`."""

    TOKEN: re.Pattern

    def __init__(self, text: str):
        self.text = text
        self.tokens = list(self.tokenize())
        self.pos = 0
        self.depth = 0

    def tokenize(self):
        """Yield (token, offset) pairs.  A character no token starts with
        is reported at the scan position, before any whitespace."""
        text, pos = self.text, 0
        while pos < len(text):
            m = self.TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    self.fail(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
                break
            tok = m.group(1)
            if tok.isdigit() and len(tok) > MAX_DIGITS:
                self.fail(f"integer literal longer than {MAX_DIGITS} digits", m.start(1))
            yield tok, m.start(1)
            pos = m.end()

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def where(self) -> int:
        return self.tokens[self.pos][1] if self.pos < len(self.tokens) else len(self.text)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        out = self.parse_expr()
        if self.peek() is not None:
            self.fail(f"unexpected token {quote(self.peek())}")
        return out

    def nested(self, parse):
        """parse() one level deeper, refused past MAX_NESTING levels."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nested deeper than {MAX_NESTING} levels")
        out = parse()
        self.depth -= 1
        return out

    def parse_expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        out = self.parse_term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.take()
            term = self.parse_term()
            out = out + (term if op == "+" else -term)
        return out
