#!/usr/bin/env python3
"""bplint self-test: golden-diff over fixtures + per-rule kill checks.

Run from anywhere:

    python3 scripts/bplint/selftest.py [--regold]

Checks performed:

  1. Golden diff. Every fixture under scripts/bplint/fixtures/ is analyzed
     (each file as its own single-file project, so cross-file rules see
     only that fixture) and the concatenated diagnostics are compared
     byte-for-byte against fixtures/golden.txt.  Re-generate with
     --regold (or env BPLINT_REGOLD=1) after an intentional change.

  2. Per-rule kill check. For each live rule (BP001 and BP005; BP002,
     BP003, BP004 and BP006-BP011 are retired) the matching
     bpNNN_violation.cc fixture must produce at least one diagnostic of
     that rule, and must produce zero diagnostics of that rule when the
     rule is disabled.  This is what makes each rule's fixture test fail
     if the check is disabled or broken.

  3. Clean fixtures. Each bpNNN_clean.cc fixture must produce zero
     diagnostics (suppressions honored, no false positives).

  4. BP000 hygiene. The bad-suppression fixture must report BP000 for
     both the reasonless allow and the stale allow, and the reasonless
     allow must NOT silence the BP005 diagnostic it sits above.

  5. Determinism. Two full runs over the fixture set must be
     byte-identical, and a jobs=2 parallel analysis must produce exactly
     the serial diagnostics.

  6. Transitive chains. Each fixtures/transitive/bpNNN/ group (today
     only bp005) is analyzed as one multi-file project; the rule must
     fire in a file that is clean when analyzed alone — proving the
     diagnostic exists only through the interprocedural chain, not
     through anything lexical in the flagged file.

  7. CLI + SARIF smoke. --list-rules names every rule, a violation
     fixture drives exit status 1 (0 under --disable), and the SARIF
     export is valid JSON carrying the full rule catalog.

Exit status: 0 on success, 1 on any failure.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

import engine  # noqa: E402
from rules import ALL_RULES  # noqa: E402

FIXTURES = os.path.join(_HERE, "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden.txt")


def analyze_fixture(name, disabled=frozenset()):
    """Analyze one fixture as a standalone single-file project."""
    path = os.path.join(FIXTURES, name)
    diags, _ = engine.run([path], root=FIXTURES, disabled=disabled)
    return diags


def fixture_names():
    return sorted(f for f in os.listdir(FIXTURES) if f.endswith(".cc"))


def transitive_groups():
    tdir = os.path.join(FIXTURES, "transitive")
    if not os.path.isdir(tdir):
        return []
    return sorted(g for g in os.listdir(tdir)
                  if os.path.isdir(os.path.join(tdir, g)))


def group_files(group):
    gdir = os.path.join(FIXTURES, "transitive", group)
    return sorted(os.path.join(gdir, f) for f in os.listdir(gdir)
                  if f.endswith(".cc"))


def analyze_group(group, disabled=frozenset()):
    """Analyze a transitive fixture group as one multi-file project."""
    diags, _ = engine.run(group_files(group), root=FIXTURES,
                          disabled=disabled)
    return diags


def render_all():
    """Produce the golden text: per-fixture header + diagnostics."""
    out = []
    for name in fixture_names():
        out.append("== %s ==" % name)
        for d in analyze_fixture(name):
            out.append(str(d))
    for group in transitive_groups():
        out.append("== transitive/%s ==" % group)
        for d in analyze_group(group):
            out.append(str(d))
    return "\n".join(out) + "\n"


def main():
    regold = "--regold" in sys.argv[1:] or os.environ.get("BPLINT_REGOLD") == "1"
    failures = []

    # --- 1. golden diff -------------------------------------------------
    text = render_all()
    if regold:
        with open(GOLDEN, "w") as f:
            f.write(text)
        print("selftest: regenerated %s (%d lines)"
              % (GOLDEN, text.count("\n")))
    if not os.path.exists(GOLDEN):
        failures.append("golden file missing: %s (run with --regold)" % GOLDEN)
    else:
        with open(GOLDEN) as f:
            want = f.read()
        if text != want:
            failures.append("golden mismatch (run with --regold if intended)")
            import difflib
            for line in difflib.unified_diff(
                    want.splitlines(), text.splitlines(),
                    "golden.txt", "actual", lineterm=""):
                print(line)

    # --- 2. per-rule kill check ----------------------------------------
    for rule in sorted(ALL_RULES):
        n = int(rule[2:])
        name = "bp%03d_violation.cc" % n
        if not os.path.exists(os.path.join(FIXTURES, name)):
            failures.append("missing violation fixture for %s" % rule)
            continue
        hits = [d for d in analyze_fixture(name) if d.rule == rule]
        if not hits:
            failures.append("%s: %s produced no %s diagnostics"
                            % (rule, name, rule))
        off = [d for d in analyze_fixture(name, disabled={rule})
               if d.rule == rule]
        if off:
            failures.append("%s: diagnostics survived --disable=%s"
                            % (rule, rule))

    # --- 3. clean fixtures ---------------------------------------------
    for name in fixture_names():
        if "_clean" not in name:
            continue
        diags = analyze_fixture(name)
        if diags:
            failures.append("%s: expected clean, got %d diagnostic(s): %s"
                            % (name, len(diags), "; ".join(map(str, diags))))

    # --- 4. BP000 hygiene ----------------------------------------------
    bad = analyze_fixture("bp000_badsuppress_violation.cc")
    bp000 = [d for d in bad if d.rule == "BP000"]
    bp005 = [d for d in bad if d.rule == "BP005"]
    if len(bp000) < 2:
        failures.append("BP000: expected >=2 hygiene diagnostics, got %d"
                        % len(bp000))
    if not bp005:
        failures.append("BP000: reasonless allow silenced the BP005 "
                        "diagnostic it targeted")

    # --- 5. determinism -------------------------------------------------
    if render_all() != text:
        failures.append("nondeterministic output across two identical runs")
    serial, _ = engine.run([FIXTURES], root=FIXTURES)
    par, _ = engine.run([FIXTURES], root=FIXTURES, jobs=2)
    if list(map(str, serial)) != list(map(str, par)):
        failures.append("jobs=2 diagnostics differ from the serial run")

    # --- 6. transitive chains -------------------------------------------
    for group in transitive_groups():
        rule = group.upper()
        grouped = {d.path for d in analyze_group(group) if d.rule == rule}
        if not grouped:
            failures.append("transitive/%s: group analysis produced no "
                            "%s diagnostics" % (group, rule))
            continue
        if [d for d in analyze_group(group, disabled={rule})
                if d.rule == rule]:
            failures.append("transitive/%s: diagnostics survived "
                            "--disable=%s" % (group, rule))
        # The chain file: flagged in the group, silent on its own.
        chain_only = False
        for path in group_files(group):
            rel = os.path.relpath(path, FIXTURES).replace(os.sep, "/")
            alone = [d for d in engine.run([path], root=FIXTURES)[0]
                     if d.rule == rule]
            if rel in grouped and not alone:
                chain_only = True
        if not chain_only:
            failures.append("transitive/%s: no file is flagged only "
                            "through the cross-file chain" % group)

    # --- 7. CLI smoke ---------------------------------------------------
    import subprocess
    cli = subprocess.run([sys.executable, _HERE, "--list-rules"],
                         capture_output=True, text=True)
    if cli.returncode != 0:
        failures.append("--list-rules exited %d" % cli.returncode)
    for rule in sorted(ALL_RULES):
        if rule not in cli.stdout:
            failures.append("--list-rules does not mention %s" % rule)
    viol = os.path.join(FIXTURES, "bp005_violation.cc")
    hit = subprocess.run(
        [sys.executable, _HERE, "--root", FIXTURES, viol],
        capture_output=True, text=True)
    if hit.returncode != 1 or "BP005" not in hit.stdout:
        failures.append("CLI did not flag bp005_violation.cc (rc=%d)"
                        % hit.returncode)
    off = subprocess.run(
        [sys.executable, _HERE, "--root", FIXTURES, viol,
         "--disable", "BP005"],
        capture_output=True, text=True)
    if off.returncode != 0:
        failures.append("CLI --disable=BP005 still flagged the fixture "
                        "(rc=%d)" % off.returncode)
    import json
    from sarif import to_sarif  # noqa: E402
    doc = json.loads(to_sarif(analyze_fixture("bp005_violation.cc")))
    sarif_rules = {r["id"] for r in
                   doc["runs"][0]["tool"]["driver"]["rules"]}
    if not set(ALL_RULES) <= sarif_rules:
        failures.append("SARIF rule catalog is missing %s"
                        % ", ".join(sorted(set(ALL_RULES) - sarif_rules)))
    if not any(r["ruleId"] == "BP005" for r in doc["runs"][0]["results"]):
        failures.append("SARIF export lost the BP005 result")

    if failures:
        for f in failures:
            print("FAIL: %s" % f, file=sys.stderr)
        print("selftest: %d failure(s)" % len(failures), file=sys.stderr)
        return 1
    print("selftest: OK (%d fixtures, %d transitive groups, %d rules)"
          % (len(fixture_names()), len(transitive_groups()),
             len(ALL_RULES)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
