#!/usr/bin/env python3
"""Documentation consistency checker (the `docs` ctest label).

Three classes of rot this catches:

1. Dead relative links: every `[text](path)` markdown link in the checked
   pages whose target is a repo file (not http(s)/mailto/#anchor) must
   resolve relative to the page that contains it.

2. Stale CLI documentation: every `crd <verb>` invocation shown in a code
   span or fenced code block must name a verb that `crd --help` lists, and
   every `--flag` on such an invocation line must appear in that verb's
   `crd <verb> --help` text. Where the help enumerates a flag's values
   (`--flag=a|b` or `--flag[=a|b]`), every value the docs give that flag
   (`--flag=a`, `--flag=a|b`) must be one of them. A fenced line ending in
   `\` continues onto the next, so a flag on a continuation line is still
   tied to its verb. Docs promising options or values the tool dropped (or
   never had) fail the build instead of misleading readers. CHANGES.md is
   exempt from the value check, and CHANGES.md and EXPERIMENTS.md from
   the verb check for the verbs in REMOVED_VERBS: those history pages
   name removed values and verbs on purpose. Any other verb `crd --help`
   does not list fails on every page.

3. Undocumented metrics: every JSON field name the observability snapshot
   emits (the `W.field("...")` / `W.key("...")` calls in
   src/wire/StreamPipeline.cpp) must be mentioned in
   docs/observability.md, so `crd profile` output never grows fields the
   reference page does not explain.

Usage: check_docs.py <repo-root> <crd-binary>

Exit codes: 0 = consistent, 1 = findings (each printed to stderr),
2 = bad invocation / cannot run the crd binary.
"""

import re
import subprocess
import sys
from pathlib import Path

# Pages checked for links and CLI references. docs/*.md is globbed on top.
TOP_LEVEL_PAGES = [
    "README.md",
    "DESIGN.md",
    "ROADMAP.md",
    "EXPERIMENTS.md",
    "CHANGES.md",
]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# A metrics field emission in the snapshot writer: W.field("name", ...)
# or W.key("name").
METRIC_FIELD_RE = re.compile(r'W\.(?:field|key)\("([a-z0-9_]+)"')
INLINE_CODE_RE = re.compile(r"`([^`]+)`")
CRD_INVOCATION_RE = re.compile(r"\bcrd\s+([a-z][a-z0-9-]*)")
FLAG_RE = re.compile(r"(--[a-zA-Z][\w-]*)")
# A help line enumerating a flag's values: --flag=a|b or --flag[=a|b].
HELP_VALUES_RE = re.compile(r"(--[a-zA-Z][\w-]*)\[?=([\w-]+(?:\|[\w-]+)+)")
# A documented flag value, possibly an enumeration (table cells escape
# the bar as \|).
DOC_VALUE_RE = re.compile(r"(--[a-zA-Z][\w-]*)\[?=([\w.|\\-]+)")
ALWAYS_OK_FLAGS = {"--help", "-h"}
VALUE_CHECK_EXEMPT = {"CHANGES.md"}
# Verbs the tool no longer has, which the history pages still name.
REMOVED_VERBS = {"record", "bench"}
REMOVED_VERB_EXEMPT = {"CHANGES.md", "EXPERIMENTS.md"}


def run_help(crd, *args):
    """Returns combined stdout+stderr of `crd *args` (help text)."""
    proc = subprocess.run(
        [crd, *args], capture_output=True, text=True, timeout=60
    )
    return proc.stdout + proc.stderr


def documented_verbs(crd):
    """Verbs `crd --help` lists (two-space-indented 'verb  description')."""
    verbs = set()
    for line in run_help(crd, "--help").splitlines():
        m = re.match(r"^  ([a-z][a-z0-9-]*)\s{2,}\S", line)
        if m:
            verbs.add(m.group(1))
    return verbs


def check_links(page, text, repo_root, problems):
    for lineno, line in enumerate(text.splitlines(), 1):
        for target in LINK_RE.findall(line):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme.
                continue
            if target.startswith("#"):  # In-page anchor.
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (page.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{page.relative_to(repo_root)}:{lineno}: dead link "
                    f"'{target}' (resolves to {resolved})"
                )


def help_values(help_text):
    """Maps each flag whose values the help enumerates to that value set."""
    values = {}
    for flag, alts in HELP_VALUES_RE.findall(help_text):
        values.setdefault(flag, set()).update(alts.split("|"))
    return values


def code_lines(text):
    """Yields (marks, code) for fenced-block lines and inline code spans;
    marks lists (offset, page line) pairs for line_at(). Backslash-
    continued fenced lines are joined into one command first."""
    fence = False
    pending, marks = "", []
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.strip().startswith("```"):
            fence = not fence
            continue
        if not fence:
            for span in INLINE_CODE_RE.findall(line):
                yield [(0, lineno)], span
            continue
        marks.append((len(pending), lineno))
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield marks, pending + line
        pending, marks = "", []


def line_at(marks, pos):
    """The page line holding position pos of a code_lines() span."""
    return max(lineno for offset, lineno in marks if offset <= pos)


def check_cli_references(page, text, repo_root, verbs, verb_help, crd,
                         problems):
    """Returns how many documented flag values were checked."""
    where = page.relative_to(repo_root)
    check_values = page.name not in VALUE_CHECK_EXEMPT
    removed_verbs_ok = page.name in REMOVED_VERB_EXEMPT
    checked = 0
    for marks, code in code_lines(text):
        for m in CRD_INVOCATION_RE.finditer(code):
            verb = m.group(1)
            if verb == "help":
                continue
            if verb not in verbs:
                if removed_verbs_ok and verb in REMOVED_VERBS:
                    continue
                problems.append(
                    f"{where}:{line_at(marks, m.start())}: documented "
                    f"verb 'crd {verb}' is not listed by 'crd --help'"
                )
                continue
            if verb not in verb_help:
                verb_help[verb] = run_help(crd, verb, "--help")
            rest = code[m.end():]
            # Stop at the next crd invocation in the same span, if any.
            nxt = CRD_INVOCATION_RE.search(rest)
            if nxt:
                rest = rest[: nxt.start()]
            for f in FLAG_RE.finditer(rest):
                flag = f.group(1)
                if flag in ALWAYS_OK_FLAGS:
                    continue
                if flag not in verb_help[verb]:
                    problems.append(
                        f"{where}:{line_at(marks, m.end() + f.start())}: "
                        f"documented option '{flag}' is not in "
                        f"'crd {verb} --help'"
                    )
            if not check_values:
                continue
            accepted = help_values(verb_help[verb])
            for v in DOC_VALUE_RE.finditer(rest):
                flag = v.group(1)
                if flag not in accepted:
                    continue
                for alt in v.group(2).replace("\\|", "|").split("|"):
                    if not alt:
                        continue
                    checked += 1
                    if alt not in accepted[flag]:
                        problems.append(
                            f"{where}:{line_at(marks, m.end() + v.start())}: "
                            f"crd {verb} {flag}={alt}: value not in "
                            f"'crd {verb} --help' "
                            f"({'|'.join(sorted(accepted[flag]))})"
                        )
    return checked


# Each snapshot writer and the reference page that must document every
# JSON field it emits.
METRIC_SNAPSHOT_PAIRS = [
    ("src/wire/StreamPipeline.cpp", "docs/observability.md"),
    ("src/serve/Server.cpp", "docs/serve.md"),
]


def check_metric_fields(repo_root, problems):
    """Every field a metrics snapshot emits must be documented."""
    for src_rel, doc_rel in METRIC_SNAPSHOT_PAIRS:
        src = repo_root / Path(src_rel)
        doc = repo_root / Path(doc_rel)
        if not src.exists():
            continue
        if not doc.exists():
            problems.append(
                f"{doc_rel}: missing, but {src_rel} emits a metrics snapshot"
            )
            continue
        fields = set(METRIC_FIELD_RE.findall(src.read_text(encoding="utf-8")))
        doc_text = doc.read_text(encoding="utf-8")
        for name in sorted(fields):
            if name not in doc_text:
                problems.append(
                    f"{doc_rel}: metrics field '{name}' (emitted by "
                    f"{src_rel}) is undocumented"
                )


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    repo_root = Path(sys.argv[1]).resolve()
    crd = sys.argv[2]

    try:
        verbs = documented_verbs(crd)
    except OSError as err:
        print(f"error: cannot run '{crd}': {err}", file=sys.stderr)
        return 2
    if not verbs:
        print(f"error: 'crd --help' listed no commands", file=sys.stderr)
        return 2

    pages = [repo_root / p for p in TOP_LEVEL_PAGES]
    pages += sorted((repo_root / "docs").glob("*.md"))
    pages = [p for p in pages if p.exists()]

    problems = []
    verb_help = {}
    values_checked = 0
    for page in pages:
        text = page.read_text(encoding="utf-8")
        check_links(page, text, repo_root, problems)
        values_checked += check_cli_references(
            page, text, repo_root, verbs, verb_help, crd, problems
        )
    check_metric_fields(repo_root, problems)

    for problem in problems:
        print(problem, file=sys.stderr)
    print(
        f"check_docs: {len(pages)} pages, {len(verbs)} crd verbs, "
        f"{values_checked} values checked, {len(problems)} problems"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
