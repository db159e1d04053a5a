"""bplint - Blockplane's project-invariant static-analysis suite.

Usage:
  python3 scripts/bplint [paths...] [options]

  paths                 files or directories to analyze, relative to
                        --root (default: src bench)
  -p, --build DIR       CMake build directory; the compile-commands
                        database there widens the file set to every
                        translation unit the build knows about
  --root DIR            project root diagnostics are reported relative
                        to (default: the current directory)
  --disable RULES       comma-separated rule ids to disable
                        (e.g. --disable BP001,BP005)
  --list-rules          print the rule catalog and exit
  -j, --jobs N          analyze files on N worker processes (the rule
                        passes stay serial over the merged project, so
                        diagnostics are byte-identical to -j1)
  --since-git [REF]     report only diagnostics in files changed since
                        REF (default HEAD, plus uncommitted/untracked);
                        the whole project is still analyzed so
                        cross-file rules keep their full view. The REF
                        is optional, so write --since-git=REF (or put
                        paths first) when also listing paths.
  --sarif FILE          also write diagnostics as SARIF 2.1.0 to FILE
                        ('-' for stdout) for GitHub code scanning

Exit status: 0 when no diagnostics, 1 otherwise, 2 on usage errors.
Diagnostics go to stdout as sorted `path:line: RULE: message` lines and
are byte-identical across runs and --jobs settings; the summary goes to
stderr.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from engine import run  # noqa: E402
from rules import ALL_RULES, RULE_DESCRIPTIONS  # noqa: E402


def _git_changed_files(root: str, ref: str) -> set:
    """Root-relative paths changed since `ref`, plus uncommitted and
    untracked files — 'what this branch/worktree touches'."""
    changed = set()
    cmds = [
        ["git", "diff", "--name-only", ref],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ]
    for cmd in cmds:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.strip() or
                               f"{' '.join(cmd)} failed")
        changed.update(line.strip() for line in proc.stdout.splitlines()
                       if line.strip())
    return changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bplint",
        description="Blockplane determinism / entropy-hygiene / "
                    "dispatch static analysis")
    parser.add_argument("paths", nargs="*", default=None)
    parser.add_argument("-p", "--build", dest="build", default=None)
    parser.add_argument("--root", default=".")
    parser.add_argument("--disable", default="")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("-j", "--jobs", type=int, default=1)
    parser.add_argument("--since-git", nargs="?", const="HEAD", default=None,
                        metavar="REF")
    parser.add_argument("--sarif", default=None, metavar="FILE")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULE_DESCRIPTIONS:
            print(f"{rule}  {desc}")
        return 0

    disabled = {r.strip() for r in args.disable.split(",") if r.strip()}
    unknown = disabled - set(ALL_RULES)
    if unknown:
        print(f"bplint: unknown rule id(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    paths = args.paths or ["src", "bench"]
    root = args.root
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if not os.path.exists(full):
            print(f"bplint: no such path: {p}", file=sys.stderr)
            return 2

    if args.jobs < 1:
        print("bplint: --jobs must be >= 1", file=sys.stderr)
        return 2

    changed_only = None
    if args.since_git is not None:
        try:
            changed_only = _git_changed_files(root, args.since_git)
        except (RuntimeError, OSError) as exc:
            print(f"bplint: --since-git: {exc}", file=sys.stderr)
            return 2

    diags, nfiles = run(paths, root, compile_commands_dir=args.build,
                        disabled=disabled, jobs=args.jobs,
                        changed_only=changed_only)
    for d in diags:
        print(d.render())
    if args.sarif:
        from sarif import to_sarif
        text = to_sarif(diags)
        if args.sarif == "-":
            sys.stdout.write(text)
        else:
            with open(args.sarif, "w", encoding="utf-8") as fh:
                fh.write(text)
    print(f"bplint: {nfiles} files analyzed, {len(diags)} diagnostic(s)",
          file=sys.stderr)
    return 1 if diags else 0


if __name__ == "__main__":
    sys.exit(main())
