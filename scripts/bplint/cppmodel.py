"""Structural facts bplint extracts from one C++ file.

Everything here is token-stream pattern matching over lexer.lex()
output. The extraction is intentionally conservative: rules only fire
on patterns the model recognized positively, so an unrecognized
construct degrades to silence, never to a false diagnostic.

Facts per file (see FileFacts):
  * structs/classes with their data fields (the call graph resolves
    `member_->Fn()` through a field's declared type)
  * iterations: range-for targets and `it = x.begin()` style loops,
    with their body token slices (BP001)
  * unordered_map/unordered_set variable names (direct declarations
    and via `using Alias = std::unordered_...` aliases) (BP001)
  * `bplint:allow(...)` suppressions and `bplint:` file markers
  * function/method definitions (FunctionDef) with qualified-name
    resolution data: enclosing class (inline and out-of-line `T::M`),
    body, and the call sites inside the body (callee name + receiver +
    explicit `Cls::` qualifier) — the raw material callgraph.py links
    into the project-wide call graph (BP005)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from lexer import Tok, lex

SUPPRESS_RE = re.compile(
    r"bplint:allow\(\s*(BP\d{3}(?:\s*,\s*BP\d{3})*)\s*\)\s*(.*)")
MARKER_RE = re.compile(r"bplint:([a-z][a-z0-9-]*)")


@dataclass
class Suppression:
    line: int
    rules: Tuple[str, ...]
    reason: str
    used: bool = False


@dataclass
class Field:
    name: str
    type_str: str
    line: int


@dataclass
class Struct:
    name: str
    line: int
    fields: List[Field] = field(default_factory=list)


@dataclass
class Iteration:
    line: int
    target: str  # final identifier of the iterated expression
    body: List[Tok] = field(default_factory=list)


@dataclass
class CallSite:
    """One `name(...)` call inside a function body."""
    line: int
    name: str
    recv: Optional[str] = None  # `x` in `x.name(...)` / `x->name(...)`
    qual: Optional[str] = None  # `Cls` in `Cls::name(...)`


@dataclass
class FunctionDef:
    """A function or method definition (body present)."""
    path: str
    cls: Optional[str]  # enclosing/qualifying class; None for free fns
    name: str
    line: int
    body: List[Tok] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)

    @property
    def qname(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name


@dataclass
class FileFacts:
    path: str
    tokens: List[Tok] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)
    markers: Set[str] = field(default_factory=set)
    structs: List[Struct] = field(default_factory=list)
    iterations: List[Iteration] = field(default_factory=list)
    unordered_vars: Set[str] = field(default_factory=set)
    fn_defs: List[FunctionDef] = field(default_factory=list)


# ---------------------------------------------------------------------------
# token scanning helpers
# ---------------------------------------------------------------------------

_OPEN = {"(": ")", "{": "}", "[": "]"}


def match_balanced(toks: Sequence[Tok], i: int) -> int:
    """toks[i] is an opener; returns index one past its matching closer."""
    opener = toks[i].text
    closer = _OPEN[opener]
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == opener:
            depth += 1
        elif t == closer:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def match_template(toks: Sequence[Tok], i: int) -> int:
    """toks[i] is '<'; returns index one past the matching '>'.

    Treats '>>' as two closers. Gives up (returns i+1) on suspicious
    tokens so a stray less-than comparison can't eat the file.
    """
    depth = 0
    n = len(toks)
    j = i
    while j < n:
        t = toks[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t in (";", "{", "}"):
            return i + 1  # not a template argument list after all
        j += 1
    return n


# ---------------------------------------------------------------------------
# extraction passes
# ---------------------------------------------------------------------------

def _field_from_stmt(stmt: List[Tok]) -> Optional[Field]:
    """A struct-body statement with no '(': extract the declared field."""
    if not stmt:
        return None
    head = stmt[0].text
    if head in ("using", "typedef", "static", "friend", "public", "private",
                "protected", "template", "operator", "enum"):
        return None
    # Name = last identifier before '=', '{', '[' or end.
    last_id = None
    last_idx = -1
    for idx, t in enumerate(stmt):
        if t.text in ("=", "{", "["):
            break
        if t.kind == "id":
            last_id = t
            last_idx = idx
    if last_id is None or last_idx == 0:
        return None  # a lone type name is not a member declaration
    type_str = " ".join(t.text for t in stmt[:last_idx])
    return Field(name=last_id.text, type_str=type_str, line=last_id.line)


def _parse_struct(toks: List[Tok], i: int, facts: FileFacts) -> int:
    """toks[i].text in ('struct','class'). Returns index past the body."""
    n = len(toks)
    j = i + 1
    # Skip attributes / alignas.
    while j < n and toks[j].text == "[":
        j = match_balanced(toks, j)
    if j >= n or toks[j].kind != "id":
        return i + 1
    name = toks[j].text
    line = toks[j].line
    j += 1
    if j < n and toks[j].text == ":":  # base clause
        while j < n and toks[j].text not in ("{", ";"):
            j += 1
    if j >= n or toks[j].text != "{":
        return j  # forward declaration or variable of elaborated type
    end = match_balanced(toks, j)
    struct = Struct(name=name, line=line)
    k = j + 1
    while k < end - 1:
        t = toks[k]
        if t.kind == "id" and t.text in ("public", "private", "protected") \
                and k + 1 < end and toks[k + 1].text == ":":
            k += 2
            continue
        if t.kind == "id" and t.text in ("struct", "class"):
            k = _parse_struct(toks, k, facts)
            if k < end and toks[k].text == ";":
                k += 1
            continue
        if t.kind == "id" and t.text == "template":
            # Skip the parameter list, then let the next loop round
            # handle whatever is declared.
            k += 1
            if k < end and toks[k].text == "<":
                k = match_template(toks, k)
            continue
        # Scan one member declaration.
        stmt: List[Tok] = []
        saw_paren = False
        m = k
        while m < end - 1:
            tm = toks[m]
            if tm.text == ";":
                m += 1
                break
            if tm.text == "(" and not saw_paren:
                saw_paren = True
                m = match_balanced(toks, m)
                # cv-qualifiers / noexcept / override between ')' and body.
                while m < end - 1 and toks[m].kind == "id" and \
                        toks[m].text in ("const", "noexcept", "override",
                                         "final"):
                    m += 1
                if m < end - 1 and toks[m].text == "=":
                    # `= default;` / `= delete;` / `= 0;`
                    while m < end - 1 and toks[m].text != ";":
                        m += 1
                    m += 1
                    break
                if m < end - 1 and toks[m].text == "{":
                    m = match_balanced(toks, m)
                    break
                continue
            if tm.text == "{":
                m = match_balanced(toks, m)
                continue
            if tm.text == "[":
                m = match_balanced(toks, m)
                continue
            stmt.append(tm)
            m += 1
        if not saw_paren:
            fld = _field_from_stmt(stmt)
            if fld is not None:
                struct.fields.append(fld)
        k = max(m, k + 1)
    if struct.fields:
        facts.structs.append(struct)
    return end


def _final_ident(expr: Sequence[Tok]) -> Optional[str]:
    last = None
    for t in expr:
        if t.kind == "id":
            last = t.text
    return last


def _loop_body(toks: List[Tok], i: int) -> Tuple[List[Tok], int]:
    """toks[i] is the first token after a for(...) header."""
    n = len(toks)
    if i < n and toks[i].text == "{":
        end = match_balanced(toks, i)
        return list(toks[i + 1:end - 1]), end
    # Single statement body.
    j = i
    while j < n and toks[j].text != ";":
        if toks[j].text in _OPEN:
            j = match_balanced(toks, j)
            continue
        j += 1
    return list(toks[i:j]), j + 1


def _parse_iterations(toks: List[Tok], facts: FileFacts) -> None:
    n = len(toks)
    i = 0
    while i < n:
        if toks[i].kind == "id" and toks[i].text == "for" and i + 1 < n \
                and toks[i + 1].text == "(":
            hdr_end = match_balanced(toks, i + 1)
            header = toks[i + 2:hdr_end - 1]
            # Range-for: a top-level single ':' inside the header.
            colon = -1
            depth = 0
            for idx, t in enumerate(header):
                if t.text in _OPEN:
                    depth += 1
                elif t.text in (")", "}", "]"):
                    depth -= 1
                elif t.text == ":" and depth == 0:
                    colon = idx
                    break
            target: Optional[str] = None
            if colon >= 0:
                target = _final_ident(header[colon + 1:])
            else:
                # Classic loop over iterators: look for `X.begin()` /
                # `X->begin()` in the init clause.
                for idx in range(len(header) - 2):
                    if header[idx + 1].text in (".", "->") and \
                            header[idx + 2].text == "begin" and \
                            header[idx].kind == "id":
                        target = header[idx].text
                        break
            body, nxt = _loop_body(toks, hdr_end)
            if target is not None:
                facts.iterations.append(
                    Iteration(line=toks[i].line, target=target, body=body))
            i = hdr_end  # re-scan the body for nested loops
            continue
        i += 1


def _parse_unordered(toks: List[Tok], facts: FileFacts) -> None:
    n = len(toks)
    aliases: Set[str] = set()
    i = 0
    while i < n:
        t = toks[i]
        if t.kind == "id" and t.text in ("unordered_map", "unordered_set",
                                         "unordered_multimap",
                                         "unordered_multiset"):
            # Alias? `using Name = std::unordered_...<...>`
            back = i - 1
            while back >= 0 and toks[back].text in ("::", "std"):
                back -= 1
            if back >= 1 and toks[back].text == "=" and \
                    toks[back - 1].kind == "id" and back >= 2 and \
                    toks[back - 2].text == "using":
                aliases.add(toks[back - 1].text)
            j = i + 1
            if j < n and toks[j].text == "<":
                j = match_template(toks, j)
            # Skip ref/pointer/const between the type and the name.
            while j < n and toks[j].text in ("&", "*", "const"):
                j += 1
            if j < n and toks[j].kind == "id":
                facts.unordered_vars.add(toks[j].text)
            i = j
            continue
        i += 1
    # Second pass: variables declared with an alias type.
    if aliases:
        for i in range(n - 1):
            if toks[i].kind == "id" and toks[i].text in aliases and \
                    toks[i + 1].kind == "id":
                facts.unordered_vars.add(toks[i + 1].text)


# ---------------------------------------------------------------------------
# function definitions / declarations and call sites
# ---------------------------------------------------------------------------

# Keywords that can directly precede a '(' without being a call or a
# function name. `operator` is included: overloaded operators are not
# interesting call-graph nodes for the rules bplint runs.
_NON_FN_IDS = {
    "if", "for", "while", "switch", "return", "co_return", "sizeof",
    "alignof", "decltype", "catch", "new", "delete", "throw", "do",
    "else", "case", "default", "operator", "assert", "defined",
    "static_assert", "alignas", "noexcept", "typeid",
}


def _brace_kind(toks: Sequence[Tok], i: int) -> str:
    """Classifies the '{' at toks[i]: 'ns', 'type', or 'block'."""
    j = i - 1
    header: List[str] = []
    while j >= 0 and toks[j].text not in (";", "{", "}") and len(header) < 32:
        header.append(toks[j].text)
        j -= 1
    if "namespace" in header:
        return "ns"
    if {"struct", "class", "union", "enum"} & set(header) and \
            "=" not in header:
        return "type"
    return "block"


def _type_name_before(toks: Sequence[Tok], i: int) -> Optional[str]:
    """The declared name of the struct/class whose body opens at toks[i]."""
    j = i - 1
    while j >= 0 and toks[j].text not in (";", "{", "}") and i - j < 32:
        if toks[j].text in ("struct", "class", "union", "enum"):
            k = j + 1
            if k < i and toks[k].text in ("class", "struct"):
                k += 1
            while k < i and toks[k].text == "[":
                k = match_balanced(toks, k)
            if k < i and toks[k].kind == "id":
                return toks[k].text
            return None
        j -= 1
    return None


def _extract_calls(body: Sequence[Tok]) -> List[CallSite]:
    calls: List[CallSite] = []
    n = len(body)
    for i, t in enumerate(body):
        if t.kind != "id" or t.text in _NON_FN_IDS:
            continue
        if i + 1 >= n or body[i + 1].text != "(":
            continue
        recv: Optional[str] = None
        qual: Optional[str] = None
        if i >= 2 and body[i - 1].text == "::" and body[i - 2].kind == "id":
            qual = body[i - 2].text
        elif i >= 1 and body[i - 1].text in (".", "->"):
            if i >= 2 and body[i - 2].kind == "id":
                recv = body[i - 2].text
            else:
                recv = "?"  # chained off a call result / subscript
        calls.append(CallSite(line=t.line, name=t.text, recv=recv, qual=qual))
    return calls


def _parse_functions(toks: List[Tok], facts: FileFacts) -> None:
    """Collects every function/method definition and declaration.

    A single forward scan with a namespace/class context stack: function
    bodies are skipped wholesale once recorded, so call-looking tokens
    inside bodies can never masquerade as definitions."""
    n = len(toks)
    stack: List[Tuple[str, Optional[str]]] = []  # (kind, type name)
    i = 0
    while i < n:
        t = toks[i]
        if t.text == "{":
            kind = _brace_kind(toks, i)
            name = _type_name_before(toks, i) if kind == "type" else None
            stack.append((kind, name))
            i += 1
            continue
        if t.text == "}":
            if stack:
                stack.pop()
            i += 1
            continue
        if t.text == "(" and i >= 1 and toks[i - 1].kind == "id" and \
                toks[i - 1].text not in _NON_FN_IDS and \
                all(k != "block" for k, _ in stack):
            nxt = _try_function(toks, i, stack, facts)
            if nxt > i:
                i = nxt
                continue
        i += 1


def _try_function(toks: List[Tok], paren: int,
                  stack: List[Tuple[str, Optional[str]]],
                  facts: FileFacts) -> int:
    """toks[paren] == '(' preceded by an identifier at namespace/class
    scope. Returns the index to resume at (past the def/decl), or paren
    when this is not a function at all."""
    n = len(toks)
    name_idx = paren - 1
    name = toks[name_idx].text
    line = toks[name_idx].line
    cls: Optional[str] = None
    p = name_idx - 1
    if p >= 0 and toks[p].text == "~":  # destructor: Cls::~Cls()
        name = "~" + name
        p -= 1
    if p >= 1 and toks[p].text == "::" and toks[p - 1].kind == "id":
        cls = toks[p - 1].text
    elif stack and stack[-1][0] == "type" and stack[-1][1]:
        cls = stack[-1][1]

    k = match_balanced(toks, paren)
    while k < n and toks[k].kind == "id" and \
            toks[k].text in ("const", "noexcept", "override", "final",
                             "mutable", "try"):
        k += 1
    if k < n and toks[k].text == "->":  # trailing return type
        k += 1
        while k < n and toks[k].text not in ("{", ";"):
            if toks[k].text == "<":
                k = match_template(toks, k)
                continue
            k += 1
    if k < n and toks[k].text == "=":
        # `= default;` / `= delete;` / `= 0;` — declaration-like.
        while k < n and toks[k].text != ";":
            k += 1
        return k + 1
    if k < n and toks[k].text == ":":  # constructor initializer list
        k += 1
        while k < n and toks[k].text not in (";",):
            if toks[k].text in ("(", "["):
                k = match_balanced(toks, k)
                continue
            if toks[k].text == "{":
                if toks[k - 1].kind == "id":  # brace-init member
                    k = match_balanced(toks, k)
                    continue
                break  # the function body
            k += 1
    if k < n and toks[k].text == ";":
        # Prototype (or a variable declared with ctor arguments): no body.
        return k + 1
    if k >= n or toks[k].text != "{":
        return paren  # not a function after all (expression, macro, ...)
    body_end = match_balanced(toks, k)
    body = list(toks[k + 1:body_end - 1])
    fn = FunctionDef(path=facts.path, cls=cls, name=name, line=line,
                     body=body, calls=_extract_calls(body))
    facts.fn_defs.append(fn)
    return body_end


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def analyze_file(path: str, text: str) -> FileFacts:
    toks, comments = lex(text)
    facts = FileFacts(path=path, tokens=toks)

    for line, comment in comments:
        m = SUPPRESS_RE.search(comment)
        if m:
            rules = tuple(r.strip() for r in m.group(1).split(","))
            facts.suppressions.append(
                Suppression(line=line, rules=rules, reason=m.group(2).strip()))
            continue
        for marker in MARKER_RE.findall(comment):
            if marker != "allow":
                facts.markers.add(marker)

    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "id" and t.text in ("struct", "class") and \
                not (i > 0 and toks[i - 1].text == "enum"):
            nxt = _parse_struct(toks, i, facts)
            if nxt <= i:
                nxt = i + 1
            i = nxt
            continue
        i += 1

    _parse_iterations(toks, facts)
    _parse_unordered(toks, facts)
    _parse_functions(toks, facts)
    return facts
