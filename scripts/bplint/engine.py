"""bplint driver: file collection, suppressions, deterministic output.

The engine is what makes bplint's output byte-identical run to run:

  * files are collected by sorted glob (and/or from the CMake
    compile-commands database), normalized to '/'-separated paths
    relative to the project root;
  * every rule's diagnostics are deduplicated and sorted by
    (path, line, rule, message);
  * suppressions (`// bplint:allow(BP00x) reason`) are applied after
    all rules ran, and the BP000 hygiene pass then reports malformed or
    unused suppressions — so a stale allow-comment cannot linger.

A suppression covers diagnostics of the listed rules on its own line
and on the following line (so it can trail the offending statement or
sit on its own line directly above it).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from cppmodel import FileFacts, analyze_file
from rules import ALL_RULES, Diagnostic, Project, RULE_FNS

_EXTS = (".cc", ".cpp", ".cxx", ".h", ".hpp")
_SKIP_DIRS = {"build", "build-asan", ".git", "third_party", "CMakeFiles"}


def _norm(path: str, root: str) -> str:
    rel = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
    return rel.replace(os.sep, "/")


def collect_files(paths: Sequence[str], root: str,
                  compile_commands_dir: Optional[str]) -> List[str]:
    """Returns sorted root-relative paths of every file to analyze."""
    found: Set[str] = set()
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            found.add(_norm(full, root))
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for name in sorted(filenames):
                if name.endswith(_EXTS):
                    found.add(_norm(os.path.join(dirpath, name), root))
    # The compile-commands database contributes every translation unit
    # CMake knows about (deduplicated against the globbed set), so the
    # lint scope tracks the build scope instead of drifting from it.
    if compile_commands_dir:
        db = os.path.join(compile_commands_dir, "compile_commands.json")
        if os.path.isfile(db):
            with open(db, "r", encoding="utf-8") as fh:
                for entry in json.load(fh):
                    src = entry.get("file", "")
                    if not src:
                        continue
                    if not os.path.isabs(src):
                        src = os.path.join(entry.get("directory", ""), src)
                    rel = _norm(src, root)
                    if rel.startswith(".."):
                        continue  # outside the project root
                    if any(part in _SKIP_DIRS for part in rel.split("/")):
                        continue
                    if rel.endswith(_EXTS) and os.path.isfile(
                            os.path.join(root, rel)):
                        found.add(rel)
    return sorted(found)


def _apply_suppressions(
        files: Sequence[FileFacts],
        diags: Iterable[Diagnostic],
        enabled: Set[str]) -> Tuple[List[Diagnostic], List[Diagnostic]]:
    """Returns (surviving diagnostics, BP000 hygiene diagnostics)."""
    by_path: Dict[str, FileFacts] = {f.path: f for f in files}
    survivors: List[Diagnostic] = []
    for d in diags:
        facts = by_path.get(d.path)
        suppressed = False
        if facts is not None:
            for s in facts.suppressions:
                if not s.reason:
                    continue  # malformed; reported below, never honored
                if d.rule in s.rules and d.line in (s.line, s.line + 1):
                    s.used = True
                    suppressed = True
            # A suppression directly above covers the next line too.
        if not suppressed:
            survivors.append(d)

    hygiene: List[Diagnostic] = []
    for facts in files:
        for s in facts.suppressions:
            if not s.reason:
                hygiene.append(Diagnostic(
                    facts.path, s.line, "BP000",
                    f"bplint:allow({','.join(s.rules)}) has no reason; "
                    f"suppressions must justify themselves"))
                continue
            bad = [r for r in s.rules if r not in ALL_RULES]
            if bad:
                hygiene.append(Diagnostic(
                    facts.path, s.line, "BP000",
                    f"unknown rule id {', '.join(bad)} in bplint:allow"))
                continue
            if not s.used and any(r in enabled for r in s.rules):
                hygiene.append(Diagnostic(
                    facts.path, s.line, "BP000",
                    f"unused suppression bplint:allow("
                    f"{','.join(s.rules)}): nothing to suppress here"))
    return survivors, hygiene


def _analyze_one(args: Tuple[str, str]) -> FileFacts:
    """Pool worker: analyze one file. Pure in (root, rel), so the merged
    project — and therefore every diagnostic — is independent of worker
    count and completion order."""
    root, rel = args
    with open(os.path.join(root, rel), "r", encoding="utf-8",
              errors="replace") as fh:
        return analyze_file(rel, fh.read())


def run(paths: Sequence[str], root: str,
        compile_commands_dir: Optional[str] = None,
        disabled: Optional[Set[str]] = None,
        jobs: int = 1,
        changed_only: Optional[Set[str]] = None
        ) -> Tuple[List[Diagnostic], int]:
    """Analyzes, returns (sorted diagnostics, files analyzed).

    jobs > 1 parallelizes the per-file analysis only; the rule passes
    run serially over the merged project, so output is byte-identical
    to a serial run. changed_only (root-relative paths) filters the
    REPORTED diagnostics without shrinking the ANALYZED set — cross-file
    rules still see the whole project, so a change that breaks an
    invariant in an untouched file goes quiet rather than misattributed,
    and one in a touched file is still found through any chain."""
    disabled = disabled or set()
    enabled = {r for r in ALL_RULES if r not in disabled}
    rel_paths = collect_files(paths, root, compile_commands_dir)
    work = [(root, rel) for rel in rel_paths]
    if jobs > 1 and len(work) > 1:
        import multiprocessing
        with multiprocessing.Pool(min(jobs, len(work))) as pool:
            files = pool.map(_analyze_one, work)  # preserves input order
    else:
        files = [_analyze_one(w) for w in work]

    project = Project(files)
    diags: List[Diagnostic] = []
    for rule in ALL_RULES:
        if rule in enabled:
            diags.extend(RULE_FNS[rule](project))

    survivors, hygiene = _apply_suppressions(files, diags, enabled)
    out = sorted(set(survivors + hygiene))
    if changed_only is not None:
        out = [d for d in out if d.path in changed_only]
    return out, len(files)
