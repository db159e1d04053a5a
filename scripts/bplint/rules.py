"""The bplint rule catalog (BP001, BP005 + BP000 meta checks).

Each rule is a function over the Project (all analyzed files' facts)
that yields Diagnostic objects. Diagnostics are deduplicated and sorted
by the engine, so rules are free to emit in any order.

The Project carries a call graph (callgraph.py), and BP005 is
interprocedural: it flags a floating-point helper reached through ANY
chain of project helpers, with the witness chain spelled out in the
diagnostic.

Rule catalog (see DESIGN.md sections 11 and 15 for the rationale):

  BP001  unordered-container iteration whose order escapes into wire
         encoding, digests, JSON/metrics export, or event scheduling.
  BP005  no floating point in consensus/state-machine/digest paths
         (src/core, src/pbft, src/paxos, src/crypto, or files marked
         `bplint:consensus-path`).
  BP000  linter hygiene: malformed or unused `bplint:allow` comments.

Retired ids are never reused. Where a retired rule's check went:

  BP002  no ambient entropy or wall clock outside src/sim: the
         entropy_link_check ctest reads every library object's symbols.
  BP003  every wire struct lists its members once (BP_WIRE in
         common/codec.h), and Encode static-asserts that the list names
         every member.
  BP004  message dispatch: each handler switches once over its layer's
         message enum with every enumerator listed and no default, and
         every build makes -Wswitch-enum an error.
  BP006  *Stats registration: each block lists its counters once
         (BP_STATS in common/metrics.h), the registry takes its keys from
         that list, and the list static-asserts that it names every
         member.
  BP007  retired with the thread-pool runtime it guarded.
  BP008  Status and StatusOr are [[nodiscard]] and every build makes
         -Wunused-result an error.
  BP009  no code in the tree takes a lock, so lock-scope discipline has
         no subject.
  BP010  timer hygiene: a cancellable event is a sim::Timer, which
         cancels on re-arm and on destruction; Simulator::Schedule
         returns nothing and Cancel is private to Timer.
  BP011  bounded decode: WireGetList (common/codec.h) is the only code
         where a decoded count sizes an allocation; it bounds the count
         by the remaining bytes, and alloc_test pins that bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Set, Tuple

from callgraph import CallGraph, Key, render_chain
from cppmodel import FileFacts, FunctionDef, Tok

RULE_DESCRIPTIONS = [
    ("BP001", "unordered-container iteration order escapes into an "
              "order-sensitive sink (wire encoding, digest, JSON/metrics "
              "export, event scheduling)"),
    ("BP005", "floating point in a consensus/state-machine/digest path"),
]

ALL_RULES = [r for r, _ in RULE_DESCRIPTIONS]


@dataclass(frozen=True, order=True)
class Diagnostic:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def __str__(self) -> str:
        return self.render()


class Project:
    """All analyzed files plus the cross-file indexes rules need."""

    def __init__(self, files: Sequence[FileFacts]):
        self.files = list(files)
        self.unordered_vars: Set[str] = set()
        for f in self.files:
            self.unordered_vars |= f.unordered_vars
        self.graph = CallGraph(self.files)


def _fn_key(fn: FunctionDef) -> Key:
    return (fn.cls or "", fn.name)


def _chain_call_line(graph: CallGraph, fn: FunctionDef, nxt: Key) -> int:
    """The first call site in `fn` that resolves to `nxt` (chain hop 1)."""
    best = 0
    for call in fn.calls:
        if nxt in graph.resolve(fn, call) and (best == 0 or call.line < best):
            best = call.line
    return best or fn.line


# ---------------------------------------------------------------------------
# BP001
# ---------------------------------------------------------------------------

# Identifier prefixes/names whose reachability from an unordered loop
# means iteration order escaped into something order-sensitive.
_SINK_PREFIXES = ("Put", "Append", "Encode", "Sha256", "Digest")
_SINK_IDENTS = {
    "WirePut", "WirePutAll", "WireEncode", "WireSignedBody", "Update",
    "ToJson", "ToChromeTrace", "Json", "Schedule", "ScheduleAt", "Send",
    "SendTo", "SendShared", "Broadcast", "Increment", "write", "append",
    "ContentDigest",
}


def _first_sink(body: Sequence[Tok]) -> Tuple[str, int]:
    for t in body:
        if t.kind == "id":
            if t.text in _SINK_IDENTS or \
                    any(t.text.startswith(p) for p in _SINK_PREFIXES):
                return t.text, t.line
        elif t.kind == "punct" and t.text == "<<":
            return "<<", t.line
    return "", 0


def rule_bp001(project: Project) -> Iterable[Diagnostic]:
    for f in project.files:
        for it in f.iterations:
            if it.target not in project.unordered_vars:
                continue
            sink, _ = _first_sink(it.body)
            if not sink:
                continue
            yield Diagnostic(
                f.path, it.line, "BP001",
                f"iteration over unordered container '{it.target}' reaches "
                f"order-sensitive sink '{sink}'; iterate a sorted copy or "
                f"use an ordered container")


# ---------------------------------------------------------------------------
# BP005
# ---------------------------------------------------------------------------

def _sim_or_bench(path: str) -> bool:
    return path.startswith(("src/sim/", "bench/")) or "/sim/" in path


_FP_SCOPES = ("src/core/", "src/pbft/", "src/paxos/", "src/crypto/")
_FP_TOKENS = {"double", "float"}


def _bp005_in_scope(f: FileFacts) -> bool:
    return any(s in f.path for s in _FP_SCOPES) or \
        f.path.startswith(tuple(s.rstrip("/") for s in _FP_SCOPES)) or \
        "consensus-path" in f.markers


def rule_bp005(project: Project) -> Iterable[Diagnostic]:
    for f in project.files:
        if not _bp005_in_scope(f):
            continue
        for t in f.tokens:
            if t.kind == "id" and t.text in _FP_TOKENS:
                yield Diagnostic(
                    f.path, t.line, "BP005",
                    f"floating-point type '{t.text}' in a consensus/"
                    f"state-machine/digest path; use integer arithmetic "
                    f"(permille fractions, integer nanoseconds)")

    # Interprocedural pass: consensus code calling an out-of-scope helper
    # that computes in floating point has smuggled FP into the decision
    # path just as surely as writing `double` locally. Seeds are
    # FP-using functions defined outside the scope (in-scope ones are
    # already flagged token-by-token above). sim/bench helpers are not
    # seeds — they never run under consensus — and neither is src/net/:
    # the network fabric models physical delay (bandwidth, RTT, jitter)
    # in double by design, which is simulation environment, not
    # consensus math.
    seeds: Dict[Key, str] = {}
    for f in project.files:
        if _bp005_in_scope(f) or _sim_or_bench(f.path) or \
                f.path.startswith("src/net/"):
            continue
        for fn in f.fn_defs:
            for t in fn.body:
                if t.kind == "id" and t.text in _FP_TOKENS:
                    seeds.setdefault(_fn_key(fn), t.text)
                    break
    if not seeds:
        return
    taint = project.graph.taint_toward(seeds)
    for f in project.files:
        if not _bp005_in_scope(f):
            continue
        for fn in f.fn_defs:
            hit = taint.get(_fn_key(fn))
            if hit is None:
                continue
            src, chain = hit
            if len(chain) < 2:
                continue
            yield Diagnostic(
                f.path, _chain_call_line(project.graph, fn, chain[1]),
                "BP005",
                f"call chain {render_chain(chain)} reaches helper using "
                f"floating-point type '{src}' from a consensus/"
                f"state-machine/digest path; use integer arithmetic")


RULE_FNS = {
    "BP001": rule_bp001,
    "BP005": rule_bp005,
}
