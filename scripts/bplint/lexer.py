"""A small, self-contained C++ lexer for bplint.

bplint's rules are lexical/structural: they never need full semantic
analysis, only a faithful token stream with comments and preprocessor
lines separated out. Keeping the lexer dependency-free means the linter
runs anywhere python3 runs.

Tokens are (kind, text, line) where kind is one of:
  'id'    identifiers and keywords
  'num'   numeric literals (pp-number, loosely)
  'str'   string literals (text is the *contents*, unescaped verbatim)
  'chr'   character literals
  'punct' operators / punctuation (multi-char operators pre-merged)

Comments are returned separately as (line, text) with the comment
markers stripped; preprocessor lines (and their backslash
continuations) are skipped entirely so header guards and includes never
pollute rule matching.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple


class Tok(NamedTuple):
    kind: str
    text: str
    line: int


# Longest-match first. '>>' is kept as one token; template matchers in
# cppmodel treat it as two closing angle brackets.
_PUNCTS = [
    "<<=", ">>=", "->*", "...", "::", "->", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "++", "--", "##",
]
# First-char dispatch so the hot path probes only plausible operators
# (most punctuation — braces, parens, commas — has no multi-char form
# and skips the probe loop entirely).
_PUNCT_BY_FIRST: dict = {}
for _p in _PUNCTS:
    _PUNCT_BY_FIRST.setdefault(_p[0], []).append(_p)

_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")
_DIGITS = set("0123456789")


def lex(text: str) -> Tuple[List[Tok], List[Tuple[int, str]]]:
    """Tokenizes C++ source. Returns (tokens, comments)."""
    toks: List[Tok] = []
    comments: List[Tuple[int, str]] = []
    i = 0
    n = len(text)
    line = 1
    at_line_start = True  # only whitespace seen on this line so far

    while i < n:
        c = text[i]

        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue

        # Preprocessor directive: skip the whole logical line.
        if c == "#" and at_line_start:
            while i < n:
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    i += 2
                    line += 1
                    continue
                if text[i] == "\n":
                    break
                i += 1
            continue

        at_line_start = False

        # Line comment.
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            comments.append((line, text[i + 2:j].strip()))
            i = j
            continue

        # Block comment.
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                j = n
            body = text[i + 2:j]
            comments.append((line, body.strip()))
            line += body.count("\n")
            i = j + 2 if j < n else n
            continue

        # Raw string literal: R"delim( ... )delim".
        if c == "R" and i + 1 < n and text[i + 1] == '"':
            j = text.find("(", i + 2)
            if j >= 0 and j - (i + 2) <= 16:
                delim = text[i + 2:j]
                close = ")" + delim + '"'
                k = text.find(close, j + 1)
                if k >= 0:
                    body = text[j + 1:k]
                    toks.append(Tok("str", body, line))
                    line += text.count("\n", i, k + len(close))
                    i = k + len(close)
                    continue
            # Fall through: treat as identifier 'R'.

        # String literal.
        if c == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j:j + 2])
                    j += 2
                    continue
                if text[j] == "\n":
                    break  # unterminated; be forgiving
                buf.append(text[j])
                j += 1
            toks.append(Tok("str", "".join(buf), line))
            i = j + 1 if j < n else n
            continue

        # Character literal (but not a digit separator like 1'000'000:
        # handled in the number branch below).
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                if text[j] == "\n":
                    break
                j += 1
            toks.append(Tok("chr", text[i + 1:j], line))
            i = j + 1 if j < n else n
            continue

        # Identifier / keyword.
        if c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue

        # Number (pp-number, including hex, digit separators, suffixes,
        # and the dot/exponent forms).
        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n:
                ch = text[j]
                if ch in _ID_CONT or ch == "." or ch == "'":
                    j += 1
                    continue
                if ch in "+-" and text[j - 1] in "eEpP":
                    j += 1
                    continue
                break
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue

        # Punctuation, longest match first among same-first-char forms.
        for p in _PUNCT_BY_FIRST.get(c, ()):
            if text.startswith(p, i):
                toks.append(Tok("punct", p, line))
                i += len(p)
                break
        else:
            toks.append(Tok("punct", c, line))
            i += 1

    return toks, comments
