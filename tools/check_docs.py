#!/usr/bin/env python
"""Docs sanity check: every internal link in the markdown docs resolves.

Scans the repository's documentation set (``docs/*.md``, ``README.md``,
``benchmarks/README.md``) for markdown links and inline code references
and fails (exit 1, one reason per line) when:

* a relative link points at a file that does not exist;
* a ``#fragment`` (own-file or cross-file) names a heading that does
  not exist in the target document (GitHub anchor slug rules: lowercase,
  punctuation stripped, spaces to hyphens);
* a `` `path/to/file.py` `` code span that looks like a repo path names
  a file that does not exist (so module moves cannot silently strand
  the architecture docs);
* a `` `path/to/file.py:Symbol` `` span names a symbol the file does
  not define at top level — a def, class or assigned name — or, as
  ``Class.member``, inside a top-level class (so renames cannot
  either).  A numeric tail is a line number and must be in the file.

External links (``http://``, ``https://``, ``mailto:``) are not fetched
— CI must not depend on the network.

Usage::

    python tools/check_docs.py [--root REPO_ROOT]
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import re
import sys

#: Markdown inline links: [text](target) — target captured without the
#: optional "title" part; images (![alt](src)) match too, intentionally.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: ATX headings, for anchor checking.
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: Code spans that look like repository file paths (contain a slash and
#: a known source/doc suffix), with an optional :symbol / :line tail.
CODE_PATH_RE = re.compile(
    r"`([A-Za-z0-9_.\-]+(?:/[A-Za-z0-9_.\-]+)+"
    r"\.(?:py|md|json|yml|txt))(?::([A-Za-z0-9_.]+))?`")


def _defined(body) -> set:
    """Names a module or class body binds directly: defs, classes and
    assignment targets."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(target.id for target in targets
                         if isinstance(target, ast.Name))
    return names


def python_symbols(source: str) -> set:
    """What a ``file.py:Symbol`` reference may name: every top-level
    name, and ``Class.member`` for each top-level class."""
    tree = ast.parse(source)
    symbols = _defined(tree.body)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            symbols.update(f"{node.name}.{member}"
                           for member in _defined(node.body))
    return symbols


def github_slug(heading: str) -> str:
    """GitHub's heading -> anchor id rule (the common subset)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(markdown: str) -> set:
    slugs = set()
    for match in HEADING_RE.finditer(markdown):
        slug = github_slug(match.group(1))
        # GitHub dedups repeats as slug-1, slug-2, ...; accept the base
        # form only (the docs do not rely on duplicate headings).
        slugs.add(slug)
    return slugs


def check_document(path: pathlib.Path, root: pathlib.Path) -> list:
    problems = []
    markdown = path.read_text()
    own_slugs = heading_slugs(markdown)

    for match in LINK_RE.finditer(markdown):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, fragment = target.partition("#")
        if file_part:
            resolved = (path.parent / file_part).resolve()
            if not resolved.is_relative_to(root):
                # Repo-escaping relative links (e.g. the CI badge's
                # ../../actions/... GitHub-site path) are not files.
                continue
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(root)}: broken link "
                    f"'{target}' ({file_part} does not exist)")
                continue
            target_slugs = (heading_slugs(resolved.read_text())
                            if resolved.suffix == ".md" else set())
        else:
            resolved = path
            target_slugs = own_slugs
        if fragment and resolved.suffix == ".md" and \
                fragment not in target_slugs:
            problems.append(
                f"{path.relative_to(root)}: anchor '#{fragment}' not "
                f"found in {resolved.relative_to(root)}")

    for match in CODE_PATH_RE.finditer(markdown):
        candidate, symbol = match.groups()
        # A code-span path may be written relative to the repo root or
        # to the document's own directory (benchmarks/README.md says
        # `results/...`); accept either.
        target = next((base / candidate for base in (root, path.parent)
                       if (base / candidate).exists()), None)
        if target is None:
            problems.append(
                f"{path.relative_to(root)}: code reference "
                f"`{candidate}` names a file that does not exist")
        elif symbol and not _resolves(target, symbol):
            problems.append(
                f"{path.relative_to(root)}: code reference "
                f"`{candidate}:{symbol}` names a symbol that "
                f"{candidate} does not define")
    return problems


def _resolves(target: pathlib.Path, symbol: str) -> bool:
    """Whether ``symbol`` — a line number, or a name in a ``.py``
    file — exists in ``target``."""
    source = target.read_text()
    if symbol.isdigit():
        return 0 < int(symbol) <= len(source.splitlines())
    return target.suffix == ".py" and symbol in python_symbols(source)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()

    documents = sorted((root / "docs").glob("*.md")) + [
        root / "README.md", root / "benchmarks" / "README.md"]
    documents = [doc for doc in documents if doc.exists()]
    if not any(doc.parent.name == "docs" for doc in documents):
        print("docs-check FAILED: docs/*.md is empty — the architecture "
              "docs are part of the repository contract")
        return 1

    problems = []
    for document in documents:
        problems.extend(check_document(document, root))
    if problems:
        print("docs-check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"docs-check passed: {len(documents)} documents, all internal "
          "links, code references and their symbols resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
