#!/usr/bin/env python3
"""Documentation link-check and lint for the shapcq repo.

Walks every Markdown file (excluding build trees), and fails on:

  * relative links or images whose target does not exist on disk
    (anchors are stripped; http(s)/mailto links are not fetched);
  * unbalanced fenced code blocks (an odd number of ``` fences);
  * a required doc that is missing, or not linked from README.md
    (docs/ARCHITECTURE.md, docs/METRICS.md, docs/OPERATIONS.md,
    docs/TRACING.md);
  * a Prometheus series name (shapcq_*) that the exposition code in
    src/shapcq/serve/metrics.cc emits but docs/METRICS.md never
    mentions — every series must be documented;
  * a backticked source path (`*.h`, `*.cc`, `*.py`) in README.md or
    docs/*.md that names no file in the repo, so docs cannot outlive a
    deleted or moved file. A path with a directory matches a file whose
    repo-relative path ends with it (`shapley/session.h` finds
    src/shapcq/shapley/session.h); a bare basename matches a file of
    that name anywhere under src/.

Run from the repo root (CI and the docs_check ctest target do):

    python3 scripts/check_docs.py
"""

import os
import re
import sys

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^()\s]+(?:\([^()]*\))?)\)")
FENCE_RE = re.compile(r"^\s*```")
SKIP_DIRS = {".git", ".github", "third_party"}
REQUIRED_DOCS = [
    "docs/ARCHITECTURE.md",
    "docs/METRICS.md",
    "docs/OPERATIONS.md",
    "docs/TRACING.md",
]
METRICS_SOURCE = "src/shapcq/serve/metrics.cc"
METRICS_DOC = "docs/METRICS.md"
METRIC_NAME_RE = re.compile(r"shapcq_[a-z0-9_]+")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
SOURCE_PATH_RE = re.compile(r"[\w./-]*[\w-]\.(?:h|cc|py)\b")


def walk_files(root, skip_hidden=False):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if d not in SKIP_DIRS and not d.startswith("build")
            and not (skip_hidden and d.startswith("."))
        ]
        for name in sorted(filenames):
            yield os.path.join(dirpath, name)


def markdown_files(root):
    for path in walk_files(root):
        if path.endswith(".md"):
            yield path


def strip_code(text):
    """Remove fenced code blocks and inline code spans before link
    extraction, so example snippets can't trip the checker."""
    out, in_fence = [], False
    for line in text.splitlines():
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(re.sub(r"`[^`]*`", "", line))
    return "\n".join(out)


def check_file(path, root):
    errors = []
    with open(path, encoding="utf-8") as f:
        text = f.read()

    fences = sum(1 for line in text.splitlines() if FENCE_RE.match(line))
    if fences % 2 != 0:
        errors.append(f"{path}: unbalanced ``` code fences ({fences})")

    for target in LINK_RE.findall(strip_code(text)):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = target.split("#", 1)[0]
        if not resolved:
            continue
        if resolved.startswith("/"):
            candidate = os.path.join(root, resolved.lstrip("/"))
        else:
            candidate = os.path.join(os.path.dirname(path), resolved)
        if not os.path.exists(candidate):
            errors.append(f"{path}: broken link '{target}'")
    return errors


def check_metrics_documented(root):
    """Every shapcq_* series name the exposition code emits must appear
    in docs/METRICS.md. Names built by concatenation (histogram
    _bucket/_sum/_count suffixes, quantile gauges) are covered by the
    substring test: the source fragment is a prefix of the documented
    full name."""
    source_path = os.path.join(root, METRICS_SOURCE)
    doc_path = os.path.join(root, METRICS_DOC)
    if not os.path.exists(source_path) or not os.path.exists(doc_path):
        return []  # missing-required-doc errors already cover this
    with open(source_path, encoding="utf-8") as f:
        names = sorted(set(METRIC_NAME_RE.findall(f.read())))
    with open(doc_path, encoding="utf-8") as f:
        doc = f.read()
    return [
        f"{METRICS_DOC}: undocumented metric series '{name}'"
        f" (emitted by {METRICS_SOURCE})"
        for name in names
        if name not in doc
    ]


def check_source_paths(root):
    """Every backticked .h/.cc/.py path in README.md and docs/*.md must
    name a file in the repo (see the module docstring for how a path
    resolves). Fenced code blocks are skipped."""
    # Hidden directories hold build and benchmark trees, not sources.
    files = [
        os.path.relpath(path, root).replace(os.sep, "/")
        for path in walk_files(root, skip_hidden=True)
    ]
    src_basenames = {
        f.rsplit("/", 1)[-1] for f in files if f.startswith("src/")
    }
    docs = ["README.md"] + [
        f for f in files
        if f.startswith("docs/") and f.count("/") == 1 and f.endswith(".md")
    ]
    errors = []
    for doc in docs:
        path = os.path.join(root, doc)
        if not os.path.exists(path):
            continue
        in_fence = False
        with open(path, encoding="utf-8") as f:
            for number, line in enumerate(f, 1):
                if FENCE_RE.match(line):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                for span in CODE_SPAN_RE.findall(line):
                    for ref in SOURCE_PATH_RE.findall(span):
                        ref = ref[2:] if ref.startswith("./") else ref
                        if "/" in ref:
                            found = any(
                                f == ref or f.endswith("/" + ref)
                                for f in files
                            )
                        else:
                            found = ref in src_basenames
                        if not found:
                            errors.append(
                                f"{doc}:{number}: '{ref}' names no file "
                                "in the repo")
    return errors


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    errors = []

    for doc in REQUIRED_DOCS:
        if not os.path.exists(os.path.join(root, doc)):
            errors.append(f"missing required doc: {doc}")

    readme_path = os.path.join(root, "README.md")
    if os.path.exists(readme_path):
        with open(readme_path, encoding="utf-8") as f:
            readme = f.read()
        for doc in REQUIRED_DOCS:
            if doc not in readme:
                errors.append(f"README.md does not link {doc}")
    else:
        errors.append("missing README.md")

    errors.extend(check_metrics_documented(root))
    errors.extend(check_source_paths(root))

    count = 0
    for path in markdown_files(root):
        count += 1
        errors.extend(check_file(path, root))

    if errors:
        for error in errors:
            print(f"check_docs: {error}", file=sys.stderr)
        return 1
    print(f"check_docs: {count} markdown files OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
