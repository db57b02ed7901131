#!/usr/bin/env python3
"""Documentation checks run by the CI docs job (and locally).

1. Intra-repo markdown links: every relative link target in a tracked
   *.md file must exist (anchors are stripped; http(s)/mailto links are
   skipped).
2. Header doc-comment lint: every header under src/ must carry at least one
   Doxygen-style documentation comment (`\\brief` or a `///` line) — the
   repo's convention is that each public type/function documents its
   contract in the header.
3. Code names in docs still exist: every backticked C++-style identifier
   in a tracked *.md file (a CamelCase name like `SearchRun`, or a
   qualified name like `Searcher::Run`, optionally followed by `()`) must
   occur as a word somewhere under the code directories, so a doc cannot
   keep naming code that was renamed or deleted. Only README.md and the
   guides in subdirectories are checked: the other top-level documents
   (change history, roadmap, planning and reference notes) name removed or
   outside code on purpose.

Exit code 0 = clean, 1 = findings (printed one per line).
"""

import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# [text](target) — excluding images; inline code spans are stripped first.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_RE = re.compile(r"`[^`]*`")
SKIP_DIRS = {"build", "build-tsan", ".git", ".claude"}

CODE_DIRS = ["src", "bench", "tests", "examples", "perfbench"]
CHECKED_TOP_LEVEL_DOCS = {"README.md"}
# `Name`, `A::B`, `A::B::c`, `A::~A`, each optionally with a trailing ().
CODE_NAME_RE = re.compile(r"^[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)*(?:\(\))?$")
CAMEL_RE = re.compile(r"^[A-Z][a-z0-9]+[A-Z]\w*$")


def markdown_files():
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
        for f in files:
            if f.endswith(".md"):
                yield os.path.join(root, f)


def check_links():
    errors = []
    for md in markdown_files():
        text = open(md, encoding="utf-8").read()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = CODE_SPAN_RE.sub("", line)
            for target in LINK_RE.findall(line):
                if re.match(r"^[a-z]+:", target):  # http:, https:, mailto:
                    continue
                path = target.split("#", 1)[0]
                if not path:  # pure in-page anchor
                    continue
                resolved = os.path.normpath(os.path.join(os.path.dirname(md), path))
                if not os.path.exists(resolved):
                    rel = os.path.relpath(md, REPO)
                    errors.append(f"{rel}:{lineno}: broken link -> {target}")
    return errors


def check_headers():
    errors = []
    src = os.path.join(REPO, "src")
    for root, _, files in os.walk(src):
        for f in sorted(files):
            if not f.endswith(".h"):
                continue
            path = os.path.join(root, f)
            text = open(path, encoding="utf-8").read()
            if "\\brief" not in text and "///" not in text:
                rel = os.path.relpath(path, REPO)
                errors.append(f"{rel}: no documentation comment "
                              f"(expected at least one \\brief or /// line)")
    return errors


def code_words():
    words = set()
    for d in CODE_DIRS:
        for root, dirs, files in os.walk(os.path.join(REPO, d)):
            dirs[:] = [x for x in dirs if x not in SKIP_DIRS]
            for f in files:
                with open(os.path.join(root, f), encoding="utf-8", errors="ignore") as fh:
                    words.update(re.findall(r"\w+", fh.read()))
    return words


def check_code_names():
    tracked = subprocess.run(["git", "ls-files", "*.md"], cwd=REPO, check=True,
                             capture_output=True, text=True).stdout.split()
    words = code_words()
    errors = []
    for md in tracked:
        if "/" not in md and md not in CHECKED_TOP_LEVEL_DOCS:
            continue
        with open(os.path.join(REPO, md), encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                for span in CODE_SPAN_RE.findall(line):
                    name = span.strip("`").strip()
                    if not CODE_NAME_RE.match(name):
                        continue
                    if name.endswith("()"):
                        name = name[:-2]
                    if "::" not in name and not CAMEL_RE.match(name):
                        continue
                    missing = [p.lstrip("~") for p in name.split("::")
                               if p.lstrip("~") not in words]
                    if missing:
                        errors.append(f"{md}:{lineno}: `{name}` names "
                                      f"{', '.join(missing)}, which no code "
                                      f"under {'/, '.join(CODE_DIRS)}/ contains")
    return errors


def main():
    errors = check_links() + check_headers() + check_code_names()
    for e in errors:
        print(e)
    if errors:
        print(f"\n{len(errors)} documentation finding(s)", file=sys.stderr)
        return 1
    print("docs clean: links resolve, headers documented, code names exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
