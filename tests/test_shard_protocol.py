"""The shard command protocol carries the front's commands and nothing else.

A remote worker answers :func:`~repro.streaming.transport.dispatch_command`,
and every remote transport sends it what
:class:`~repro.streaming.transport.ShardRpcClient` and the serve loop
send — no test-only or diagnostic command (a peer that could send
``sleep`` could wedge a handler thread).  Shards receive data, not
objects: the spawn payload carries a backend's shared ``Φ`` as a plain
matrix, so the transport layer names no projection, no statistic and no
diagnostic.  Three checks pin this down:

* the commands ``ShardRpcClient`` sends and the ones ``dispatch_command``
  branches on (both read from the source) are the same set, and the wire
  has kinds for exactly these; anything else is refused;
* every command a client sends is served by a built shard;
* the code of ``wire.py``, ``transport.py`` and ``netserve.py`` —
  docstrings and comments aside — names none of the retired surfaces.
"""

import ast
import importlib.util
import io
import pathlib
import re
import tokenize

import numpy as np
import pytest

from repro import PrivacyParams
from repro.exceptions import ValidationError
from repro.privacy.tree import noise_key
from repro.streaming import transport, wire
from repro.streaming.serving import MomentShard
from repro.streaming.transport import ShardRpcClient, dispatch_command

ROOT = pathlib.Path(__file__).resolve().parent.parent
STREAMING = ROOT / "src" / "repro" / "streaming"
PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3

#: Retired surfaces the transport layer's code must not name, matched as
#: whole words of identifiers and string literals (``check_projection``
#: and ``"cross:a"`` match; ``program`` and ``across`` do not).
RETIRED = ("projection", "sparsity", "cross", "gram", "moment_dim", "describe")

#: Retired command names, matched in string literals only (where a command
#: name appears), so ``time.sleep`` stays free to use.
RETIRED_COMMANDS = ("sleep",)


def _sent_commands() -> set[str]:
    """Commands ``ShardRpcClient`` sends: ``self._request("name", …)``
    round trips, ``self._post("name", …)`` sends and ``("name", …)``
    messages put on its link."""
    tree = ast.parse((STREAMING / "transport.py").read_text(encoding="utf-8"))
    client = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == ShardRpcClient.__name__
    )
    sent = set()
    for node in ast.walk(client):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr in ("_request", "_post"):
            head = node.args[0]
        elif node.func.attr == "put" and isinstance(node.args[0], ast.Tuple):
            head = node.args[0].elts[0]
        else:
            continue
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            sent.add(head.value)
    return sent


def _dispatched_commands() -> set[str]:
    """Commands ``dispatch_command`` branches on: its ``command == "name"``
    tests."""
    tree = ast.parse((STREAMING / "transport.py").read_text(encoding="utf-8"))
    dispatch = next(
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == dispatch_command.__name__
    )
    return {
        node.comparators[0].value
        for node in ast.walk(dispatch)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name)
        and node.left.id == "command"
        and isinstance(node.comparators[0], ast.Constant)
    }


def _shard():
    return MomentShard(
        0, DIM, PARAMS, np.array([noise_key(r) for r in np.random.default_rng(0).spawn(2)]),
        shard_horizon=16,
    )


def _tenant_shard():
    return MomentShard(
        0,
        DIM,
        PARAMS,
        np.array([noise_key(r) for r in np.random.default_rng(1).spawn(2)]),
        config=dict(tenants=("a",), tenant_capacity=2),
        shard_horizon=16,
    )


class TestCommandSet:
    def test_the_client_sends_the_front_commands(self):
        assert _sent_commands() == {"ingest", "released", "tenant", "memory", "ping", "close"}

    def test_dispatch_branches_on_exactly_the_sent_commands(self):
        # ``close`` is answered by the serve loop, never dispatched.
        assert _dispatched_commands() == _sent_commands() - {"close"}

    def test_the_wire_has_a_kind_for_each_sent_command_and_no_other(self):
        kinds = set(wire._COMMAND_KIND) | {"ingest", "released"}
        assert kinds == _sent_commands()

    def test_dispatch_serves_every_sent_command(self):
        shard, tenants = _shard(), _tenant_shard()
        xs = np.full((2, DIM), 0.2)
        ys = np.array([0.5, -0.5])
        assert dispatch_command(shard, "ingest", (xs, ys, False)) == 2
        assert len(dispatch_command(shard, "released", None)) == 2
        assert dispatch_command(shard, "memory", None) == shard.memory_floats()
        assert dispatch_command(shard, "ping", None) == 2
        keys = tenants.layout.outcome_keys(np.random.default_rng(2))
        assert dispatch_command(tenants, "tenant", ("add", "b", (keys, None))) is None
        assert len(dispatch_command(tenants, "released", None)) == 3
        assert dispatch_command(tenants, "tenant", ("remove", "b", None)) is None
        assert len(dispatch_command(tenants, "released", None)) == 2

    @pytest.mark.parametrize(
        "command", ["sleep", "describe", "statistic", "close", "bogus"]
    )
    def test_dispatch_refuses_every_other_command(self, command):
        with pytest.raises(ValidationError, match="unknown worker command"):
            dispatch_command(_shard(), command, None)
        if command != "close":  # close is the serve loop's, and has a kind
            with pytest.raises(ValidationError, match="unknown worker command"):
                wire.encode((command, None))

    def test_tenant_list_is_refused(self):
        with pytest.raises(ValidationError, match="unknown tenant action"):
            dispatch_command(_tenant_shard(), "tenant", ("list", None, None))

    def test_the_client_has_no_diagnostic_surface(self):
        for name in ("cross", "gram", "tenants", "describe", "sleep"):
            assert not hasattr(ShardRpcClient, name)
        assert not hasattr(transport.ShardSpec, "projection")


def _load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _words(text: str) -> str:
    """``text`` as lower-case words joined by ``_``: identifiers split at
    underscores and camelCase humps, anything else at non-alphanumerics."""
    text = re.sub(r"([a-z0-9])([A-Z])", r"\1_\2", text)
    return "_" + "_".join(re.findall(r"[a-z0-9]+", text.lower())) + "_"


def _names_a_word(text: str, words) -> bool:
    """Whether ``text`` has one of ``words`` (or its plural) as whole words."""
    spaced = _words(text)
    return any(f"_{word}_" in spaced or f"_{word}s_" in spaced for word in words)


def _code_mentions(source: str) -> list[tuple[int, str]]:
    """``(line, token)`` of every code token naming a retired surface.

    Reads the source with :mod:`tokenize`, skipping comments and the
    lines of module, class and function docstrings (the rule
    ``tools/code_lines.py`` counts code lines by).  Identifiers are
    checked against :data:`RETIRED`; string literals against it and
    :data:`RETIRED_COMMANDS`.
    """
    docstrings = _load_code_lines()._docstring_lines(ast.parse(source))
    found = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.start[0] in docstrings:
            continue
        if token.type == tokenize.NAME:
            words = RETIRED
        elif token.type == tokenize.STRING:
            words = RETIRED + RETIRED_COMMANDS
        else:
            continue
        if _names_a_word(token.string, words):
            found.append((token.start[0], token.string))
    return found


class TestTransportCodeNamesNoRetiredSurface:
    def test_the_scanner_sees_code_and_skips_docstrings_and_comments(self):
        source = (
            '"""Module docstring: sleep, describe."""\n'
            "def f():\n"
            '    """Function docstring: projection."""\n'
            "    # a comment: gram\n"
            '    return ("sleep", Projection)\n'
        )
        assert _code_mentions(source) == [(5, '"sleep"'), (5, "Projection")]

    def test_the_scanner_matches_whole_words_only(self):
        source = (
            "time.sleep(0.1)\n"
            "program = across = histogram = 'a program across shards'\n"
            "check_projection(_PROJECTIONS, GaussianProjection, moment_dim)\n"
            "kind = 'cross:a'\n"
        )
        assert _code_mentions(source) == [
            (3, "check_projection"),
            (3, "_PROJECTIONS"),
            (3, "GaussianProjection"),
            (3, "moment_dim"),
            (4, "'cross:a'"),
        ]

    @pytest.mark.parametrize("module", ["wire.py", "transport.py", "netserve.py"])
    def test_module_code_is_free_of_retired_words(self, module):
        source = (STREAMING / module).read_text(encoding="utf-8")
        assert _code_mentions(source) == []
