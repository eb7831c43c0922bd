"""Documentation build check: markdown links over ``docs/`` + README.

The docs pass (ISSUE 4) made ``docs/ARCHITECTURE.md`` / ``docs/SERVING.md``
the canonical references, with the README trimmed to pointers — which only
works while the pointers resolve.  This suite is the CI docs-build gate:
every relative markdown link in the documentation set must point at a file
that exists (external URLs are out of scope: no network in tests), and the
two canonical pages must stay reachable from the README.
"""

import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The documentation set the link check walks.
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)

#: ``[text](target)`` — good enough for the plain markdown used here
#: (no reference-style links, no angle-bracket autolinks in doc prose).
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")


def _relative_links(path: pathlib.Path) -> list[str]:
    links = _LINK.findall(path.read_text())
    return [
        link
        for link in links
        if not link.startswith(("http://", "https://", "mailto:", "#"))
    ]


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_markdown_links_resolve(doc):
    assert doc.exists(), f"doc set misconfigured: {doc} missing"
    broken = []
    for link in _relative_links(doc):
        target = (doc.parent / link.split("#", 1)[0]).resolve()
        if not target.exists():
            broken.append(link)
    assert not broken, f"{doc.name} has broken relative links: {broken}"


def test_canonical_docs_exist_and_are_linked_from_readme():
    readme = (REPO_ROOT / "README.md").read_text()
    for page in ("docs/ARCHITECTURE.md", "docs/SERVING.md"):
        assert (REPO_ROOT / page).exists(), f"{page} missing"
        assert page in readme, f"README does not link {page}"


#: A markdown file named in code, docstrings or data files.
_MD_NAME = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md\b")


def test_code_names_only_existing_markdown_files():
    """Every ``*.md`` file named under src/, benchmarks/ or examples/
    exists — at the repo root, under docs/, or beside the naming file."""
    dangling = []
    for directory in ("src", "benchmarks", "examples"):
        for path in sorted((REPO_ROOT / directory).rglob("*")):
            if not path.is_file() or path.suffix not in (".py", ".md", ".txt"):
                continue
            for name in _MD_NAME.findall(path.read_text()):
                candidates = (REPO_ROOT / name, REPO_ROOT / "docs" / name, path.parent / name)
                if not any(candidate.exists() for candidate in candidates):
                    dangling.append(f"{path.relative_to(REPO_ROOT)}: {name}")
    assert not dangling, f"references to missing markdown files: {dangling}"


#: A benchmark module or committed benchmark artifact named in prose or code.
_BENCH_NAME = re.compile(r"\b(?:bench_\w+\.py|BENCH_\w+\.json)")


def test_docs_and_ci_name_only_existing_benchmark_files():
    """Every ``bench_*.py`` / ``BENCH_*.json`` named in the README, docs/,
    src/, examples/, benchmarks/ or the CI workflow exists under
    benchmarks/."""
    sources = [
        REPO_ROOT / "README.md",
        REPO_ROOT / ".github" / "workflows" / "ci.yml",
        *(REPO_ROOT / "docs").glob("*.md"),
        *(REPO_ROOT / "src").rglob("*.py"),
        *(REPO_ROOT / "examples").rglob("*.py"),
        *(REPO_ROOT / "benchmarks").glob("*.py"),
    ]
    dangling = [
        f"{path.relative_to(REPO_ROOT)}: {name}"
        for path in sources
        for name in _BENCH_NAME.findall(path.read_text())
        if not (REPO_ROOT / "benchmarks" / name).exists()
    ]
    assert not dangling, f"references to missing benchmark files: {dangling}"


def _undocumented_ctor_knobs(cls, section: str | None = None) -> list[str]:
    """Constructor parameters of ``cls`` not backticked in SERVING.md.

    ``section`` narrows the search to one ``## `` section of the manual,
    so a front's own knob table must name the knob.  A ``**kwargs``
    parameter counts as undocumented: knobs forwarded through it would
    escape this gate, so a front must name every knob it accepts.
    """
    import inspect

    serving_doc = (REPO_ROOT / "docs" / "SERVING.md").read_text()
    if section is not None:
        heading = f"\n## {section}\n"
        assert heading in serving_doc, f"SERVING.md has no section {section!r}"
        serving_doc = serving_doc.split(heading, 1)[1].split("\n## ", 1)[0]
    signature = inspect.signature(cls.__init__)
    return [
        name if parameter.kind is not parameter.VAR_KEYWORD else f"**{name}"
        for name, parameter in signature.parameters.items()
        if name != "self"
        and (
            parameter.kind is parameter.VAR_KEYWORD
            or f"`{name}`" not in serving_doc
        )
    ]


def test_docs_cover_the_serving_contract_surface():
    """The serving manual must name every public ShardedStream knob.

    Keeps SERVING.md honest as the single consolidated knob table: adding
    a constructor parameter (e.g. the sketch backend's
    ``sparsity_factor``) without documenting it fails here.
    """
    from repro import ShardedStream

    undocumented = _undocumented_ctor_knobs(ShardedStream)
    assert not undocumented, (
        f"docs/SERVING.md knob table is missing: {undocumented}"
    )


def test_docs_cover_the_tenancy_contract_surface():
    """Same honesty gate for the multi-tenant front: every public
    MultiTenantStream constructor knob must appear in SERVING.md's
    multi-tenant section — the lifecycle knobs it shares with
    ShardedStream included, so the tenant table cannot silently lag."""
    from repro import MultiTenantStream

    undocumented = _undocumented_ctor_knobs(
        MultiTenantStream, section="Multi-tenant serving (PRIMO)"
    )
    assert not undocumented, (
        f"docs/SERVING.md tenant knob table is missing: {undocumented}"
    )


def test_docs_cover_the_iv_solver_surface():
    """The IV backend made ``PrivIncIV`` contract surface: every public
    constructor knob of the standalone estimator the served backend
    replays must appear in SERVING.md."""
    from repro import PrivIncIV

    undocumented = _undocumented_ctor_knobs(PrivIncIV)
    assert not undocumented, (
        f"docs/SERVING.md PrivIncIV knob table is missing: {undocumented}"
    )


def test_docs_cover_every_backend_and_mechanism_value():
    """Accepted enum values are contract surface too: every shard
    ``backend``, every release-mechanism family the factory accepts and
    every value of the fronts' knob table must appear (quoted) in
    SERVING.md — a new backend declaration or knob value cannot land
    undocumented."""
    from repro.streaming.backends import BACKENDS
    from repro.streaming.serving.stream import KNOB_VALUES

    serving_doc = (REPO_ROOT / "docs" / "SERVING.md").read_text()
    backends = tuple(BACKENDS)
    mechanisms = ("tree", "hybrid", "sketch")
    knob_values = {value for allowed in KNOB_VALUES.values() for value in allowed}
    missing = [
        value
        for value in sorted(set(backends) | set(mechanisms) | knob_values)
        if f'"{value}"' not in serving_doc
    ]
    assert not missing, (
        f"docs/SERVING.md does not document the accepted values: {missing}"
    )


#: A Sphinx cross-reference role: ``:class:`~repro.x.Y```, or the titled
#: form ``:meth:`title <repro.x.Y.z>```.  Role bodies may wrap lines.
_XREF = re.compile(r":(?:class|func|meth|mod|data|attr|exc):`([^`]+)`")


def _xref_targets():
    """Every ``repro.``-rooted cross-reference target under src/repro."""
    targets = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for body in _XREF.findall(path.read_text()):
            titled = re.search(r"<([^>]+)>\s*$", body)
            target = (titled.group(1) if titled else body).strip().lstrip("~!")
            if target.startswith("repro."):
                targets.append((path.relative_to(REPO_ROOT).as_posix(), target))
    return targets


def _resolve(target: str):
    """Import the longest importable module prefix, then ``getattr`` the rest."""
    import importlib

    parts = target.removesuffix("()").split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(target)


def test_docstring_cross_references_resolve():
    """Every ``:class:``/``:func:``/``:meth:``/``:mod:``/``:data:``/
    ``:attr:``/``:exc:`` target rooted at ``repro.`` names something that
    exists — a rename or deletion cannot leave docstrings pointing at it."""
    targets = _xref_targets()
    assert len(targets) > 250, "cross-reference scan found too few targets"
    broken = []
    for where, target in targets:
        try:
            _resolve(target)
        except (ImportError, AttributeError):
            broken.append(f"{where}: {target}")
    assert not broken, f"unresolvable docstring cross-references: {broken}"
