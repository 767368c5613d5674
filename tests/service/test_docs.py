"""The doc-drift gate: ``docs/WIRE_PROTOCOL.md`` is pinned to the code.

The wire reference's op/event tables are parsed back out of the
markdown and compared *field-for-field* against
:func:`repro.service.events.catalog` — the same declarative tables the
validators and ``python -m repro.service --describe`` run on.  Renaming
a field, flipping its requiredness, rewording its doc string, or adding
an op without touching the markdown fails here with a message naming
the stale row.  A light link check over ``docs/`` and ``README.md``
rides along so the docs job catches dead cross-references too.
"""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.service import ConsensusService, events

pytestmark = [pytest.mark.fast, pytest.mark.docs]

REPO = Path(__file__).resolve().parents[2]
WIRE_DOC = REPO / "docs" / "WIRE_PROTOCOL.md"

_SECTION = re.compile(r"^### `([\w-]+)`$", re.MULTILINE)
_CELL_SPLIT = re.compile(r"(?<!\\)\|")


def _parse_sections(heading: str) -> dict[str, dict]:
    """Extract the ``### `name``` sections under one ``## heading``.

    Returns ``{name: {"doc": str, "rows": [(name, type, required)...],
    "docs": {field: doc}, "elicits": [event, ...] | None}}``.
    """
    text = WIRE_DOC.read_text()
    start = text.index(f"## {heading}")
    # the next second-level heading closes the region
    tail = text[start + 3:]
    end = tail.index("\n## ")
    region = text[start : start + 3 + end]

    sections: dict[str, dict] = {}
    matches = list(_SECTION.finditer(region))
    for index, match in enumerate(matches):
        body_end = (matches[index + 1].start()
                    if index + 1 < len(matches) else len(region))
        body = region[match.end():body_end]
        doc_lines, rows, field_docs, elicits = [], [], {}, None
        for line in body.splitlines():
            line = line.strip()
            if line.startswith("| ---") or line.startswith("| field"):
                continue
            if line.startswith("|"):
                cells = [c.strip().replace("\\|", "|")
                         for c in _CELL_SPLIT.split(line)[1:-1]]
                name = cells[0].strip("`")
                rows.append((name, cells[1].strip("`"), cells[2]))
                field_docs[name] = cells[3]
            elif line.startswith("Elicits:"):
                elicits = [m.group(1) for m in
                           re.finditer(r"`([\w-]+)`", line)]
            elif line and not line.startswith("*("):
                doc_lines.append(line)
        sections[match.group(1)] = {
            "doc": " ".join(doc_lines),
            "rows": rows,
            "docs": field_docs,
            "elicits": elicits,
        }
    return sections


def _expect_rows(fields: list[dict]) -> list[tuple[str, str, str]]:
    return [(f["name"], f["type"], "yes" if f["required"] else "no")
            for f in fields]


def test_wire_doc_exists_and_names_the_schema_version():
    text = WIRE_DOC.read_text()
    catalog = events.catalog()
    assert f"**{catalog['schema']}**" in text, \
        "docs/WIRE_PROTOCOL.md must state the current schema version"
    assert str(catalog["max_line_bytes"]) in text
    # The envelope contract is quoted verbatim from the catalog.
    assert catalog["envelope"]["request"] in text
    assert catalog["envelope"]["event"] in text


def test_every_op_table_matches_the_catalog():
    catalog = events.catalog()
    documented = _parse_sections("Request ops")
    assert set(documented) == set(catalog["ops"]), (
        "op sections out of sync: "
        f"doc-only={sorted(set(documented) - set(catalog['ops']))} "
        f"code-only={sorted(set(catalog['ops']) - set(documented))}")
    for op, spec in catalog["ops"].items():
        section = documented[op]
        assert section["rows"] == _expect_rows(spec["fields"]), \
            f"op {op!r}: field table drifted from events.OPS"
        for field in spec["fields"]:
            assert section["docs"][field["name"]] == field["doc"], \
                f"op {op!r}, field {field['name']!r}: doc text drifted"
        assert section["elicits"] == spec["events"], \
            f"op {op!r}: 'Elicits' line drifted from events.OPS"
        assert section["doc"] == spec["doc"], \
            f"op {op!r}: section prose drifted from events.OPS"


def test_every_event_table_matches_the_catalog():
    catalog = events.catalog()
    documented = _parse_sections("Events")
    assert set(documented) == set(catalog["events"]), (
        "event sections out of sync: "
        f"doc-only={sorted(set(documented) - set(catalog['events']))} "
        f"code-only={sorted(set(catalog['events']) - set(documented))}")
    for name, spec in catalog["events"].items():
        section = documented[name]
        assert section["rows"] == _expect_rows(spec["fields"]), \
            f"event {name!r}: field table drifted from events.EVENTS"
        for field in spec["fields"]:
            assert section["docs"][field["name"]] == field["doc"], \
                f"event {name!r}, field {field['name']!r}: doc drifted"
        assert section["doc"] == spec["doc"], \
            f"event {name!r}: section prose drifted from events.EVENTS"


def test_example_exchanges_replay_in_process():
    """The "Example exchanges" transcripts are what an in-process
    session on the CLI's default world really receives — ``seq`` from
    0, the session id, and a tick's event order included.  A
    ``spec_hash`` shortened to ``"abcd..."`` matches by prefix."""
    text = WIRE_DOC.read_text()
    region = text[text.index("## Example exchanges"):]
    lines: list[str] = []
    for block in re.findall(r"```text\n(.*?)```", region, re.DOTALL):
        for line in block.splitlines():
            if line.startswith("   "):
                lines[-1] += line.strip()
            else:
                lines.append(line)
    service = ConsensusService(ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=24, rcf=0),
        workload=WorkloadSpec(instances=1000), keep_trace=False))
    client = None
    for line in lines:
        direction, message = line[0], json.loads(line[2:])
        if direction == ">":
            if message["op"] == "hello":
                client = service.connect(client=message["client"],
                                         world=message["world"])
            else:
                client.request(message)
            continue
        event = client.next_event_nowait()
        if event is None:  # the transcript's one tick
            service.driver.tick()
            event = client.next_event_nowait()
        event = json.loads(events.encode_event(event))
        shortened = message.get("spec_hash", "")
        if shortened.endswith("..."):
            assert event["spec_hash"].startswith(shortened[:-3]), line
            message["spec_hash"] = event["spec_hash"]
        assert event == message, line
    assert client.next_event_nowait() is None


def test_reference_switch_table_matches_the_axis_table():
    """docs/REFERENCE_SWITCHES.md carries ``switches.markdown_table()``
    row for row — an axis added, renamed or re-described in
    ``repro.switches.AXES`` without regenerating the doc fails here
    with the stale row named."""
    from repro import switches

    text = (REPO / "docs" / "REFERENCE_SWITCHES.md").read_text()
    documented = [line for line in text.splitlines()
                  if line.startswith("|")]
    expected = switches.markdown_table().splitlines()
    assert len(documented) == len(expected), (
        "docs/REFERENCE_SWITCHES.md must hold exactly the generated "
        "table: regenerate it with "
        "`python -c 'from repro import switches; "
        "print(switches.markdown_table())'`")
    for got, want in zip(documented, expected):
        assert got == want, f"switch table row drifted:\n{got}\n{want}"


def test_history_read_cost_table_matches_the_code():
    """docs/ARCHITECTURE.md's "what a History read costs" table: every
    backticked read in it is evaluated on a fresh chain-form history,
    and builds the entry tuple exactly when its row says so."""
    import pickle

    from repro.core.history import ROOT_CHAIN, History, HistoryChain

    text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
    section = text[text.index("## What a `History` read costs"):]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.split("\n## ")[0].splitlines()
            if line.startswith("| `")]
    reads = [(read, row[-1]) for row in rows
             for read in re.findall(r"`([^`]+)`", row[0])]
    assert {builds for _, builds in reads} == {"yes", "no"}
    assert len(reads) >= 15
    for number, (read, builds) in enumerate(reads):
        entries = [(k, f"doc{number}.{k}") for k in range(1, 6)]
        link, private = ROOT_CHAIN, ROOT_CHAIN
        for k, v in entries:
            link = link.child(k, v)
            private = HistoryChain(private, k, v, interned=False)
        h = History._from_chain(5, link)
        names = {"h": h, "k": 3, "pickle": pickle,
                 "same": History._from_chain(5, link),
                 "other": History._from_chain(5, private)}
        eval(read, names)  # noqa: S307 - expressions from our own docs
        assert (h._entries is not None) == (builds == "yes"), (
            f"`{read}` is documented as builds={builds}")
        assert h._lookup is None


DOCS = ["README.md",
        *sorted(f"docs/{p.name}" for p in (REPO / "docs").glob("*.md"))]
_DOTTED = re.compile(r"`(repro(?:\.\w+)+)")
_PATH = re.compile(
    r"`((?:src|tests|benchmarks|examples|perfbench|docs)/[^`\s:]*)")


def _resolves(dotted: str) -> bool:
    """``repro.a.b.C`` names a module, or an attribute chain off the
    longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _exists(path: str) -> bool:
    return any(REPO.glob(path.rstrip("/")))


@pytest.mark.parametrize("doc", DOCS)
def test_named_modules_and_paths_exist(doc):
    """Every backticked ``repro.*`` name and repo path a doc names is
    real, so a deleted module cannot linger in the prose."""
    text = (REPO / doc).read_text()
    stale = sorted({name for name in _DOTTED.findall(text)
                    if not _resolves(name)}
                   | {path for path in _PATH.findall(text)
                      if not _exists(path)})
    assert not stale, f"{doc} names what does not exist: {stale}"


CI = REPO / ".github" / "workflows" / "ci.yml"
_CI_PATH = re.compile(r"(?<![\w/.])((?:tests|perfbench)/[\w./*-]*)(?:::(\w+))?")
_CI_MARKS = re.compile(r'pytest[^\n]* -m (?:"([^"]+)"|(\w+))')


def _ci_targets() -> list[str]:
    """The test paths, test nodes and ``-m`` markers CI selects."""
    text = "\n".join(line for line in CI.read_text().splitlines()
                     if not line.lstrip().startswith("#"))
    nodes ={match.group(0) for match in _CI_PATH.finditer(text)}
    marks = {word for match in _CI_MARKS.finditer(text)
             for word in re.findall(r"\w+", match.group(1) or match.group(2))}
    return sorted(nodes) + sorted(f"-m {mark}" for mark in
                                  marks - {"and", "or", "not"})


@pytest.mark.parametrize("target", _ci_targets())
def test_ci_selects_existing_tests_and_registered_markers(target, request):
    """A CI job selecting a deleted test file, test or marker would go
    green on zero tests."""
    if target.startswith("-m "):
        registered = {line.split(":")[0].strip()
                      for line in request.config.getini("markers")}
        assert target[3:] in registered, f"CI selects unknown {target}"
        return
    path, _, name = target.partition("::")
    assert _exists(path), f"CI selects missing {path}"
    if name:
        assert re.search(rf"^def {name}\(", (REPO / path).read_text(),
                         re.MULTILINE), f"CI selects missing {target}"


_LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(?:#[^)]*)?\)")


def test_markdown_links_resolve():
    """Relative links in README.md and docs/ must point at real files."""
    dead = []
    for doc in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        for target in _LINK.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if not (doc.parent / target).exists():
                dead.append(f"{doc.relative_to(REPO)} -> {target}")
    assert not dead, f"dead relative links: {dead}"
