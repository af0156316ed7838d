"""Episode file codec: the writer's bytes and the block-parsing loader,
checked against reference copies of the per-value writer and the per-line
loader, plus the loader's handling of malformed step lines."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskhorizon.envs import (
    ChainWorld,
    ChainWorldSpec,
    CorridorWorld,
    CorridorWorldSpec,
    generate_episodes,
)
from riskhorizon.episodes import (
    SCHEMA_VERSION,
    Episode,
    SchemaError,
    Terminal,
    load_episodes,
    save_episodes,
)

SPEC = ChainWorldSpec(
    n_states=3,
    hazard=(0.05, 0.1, 0.3),
    transition=((0.6, 0.4, 0.0), (0.3, 0.4, 0.3), (0.0, 0.5, 0.5)),
    start_distribution=(0.5, 0.3, 0.2),
)


# --- reference codec: the per-value writer and per-line loader ---------------


def reference_save(path, episodes, spec_hash):
    """The writer as it formatted one value at a time."""

    def fmt(row):
        return "[" + ",".join("%.9g" % v for v in row) + "]"

    dump = lambda doc: json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(dump({"h": {"version": SCHEMA_VERSION, "spec_hash": spec_hash,
                             "obs_dim": episodes[0].obs_dim, "episodes": len(episodes)}}))
        for ep in episodes:
            fh.write(dump({"e": {"seed": int(ep.seed), "terminal": ep.terminal.value,
                                 "steps": ep.steps}}))
            for t in range(ep.steps):
                flag = int(t == ep.steps - 1 and ep.terminal is Terminal.COLLISION)
                fh.write('{"s":%s,"c":%d}\n' % (fmt(ep.observations[t]), flag))


def _reference_parse_line(line, path, lineno):
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    if not isinstance(rec, dict):
        raise SchemaError(f"{path}:{lineno}: record must be an object")
    return rec


def reference_load(path):
    """The loader as it parsed one line at a time."""

    path = Path(path)
    episodes = []
    with path.open("r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise SchemaError(f"{path}: empty file")
        header = _reference_parse_line(first, path, 1)
        if "h" not in header:
            raise SchemaError(f"{path}: first record must be the header")
        head = header["h"]
        for key in ("version", "spec_hash", "obs_dim", "episodes"):
            if key not in head:
                raise SchemaError(f"{path}: header missing '{key}'")
        if head["version"] != SCHEMA_VERSION:
            raise SchemaError(f"{path}: schema version {head['version']} not supported")
        obs_dim = int(head["obs_dim"])
        lineno = 1
        pending = None
        obs_rows, flags = [], []

        def finish():
            if len(obs_rows) != pending["steps"]:
                raise SchemaError(f"{path}: episode declared {pending['steps']} steps")
            try:
                terminal = Terminal(pending["terminal"])
            except ValueError as exc:
                raise SchemaError(f"{path}: unknown terminal") from exc
            try:
                episodes.append(Episode(
                    observations=np.array(obs_rows, dtype=np.float64),
                    terminal=terminal,
                    seed=int(pending["seed"]),
                ))
            except ValueError as exc:
                raise SchemaError(f"{path}: invalid episode: {exc}") from exc
            if flags != [0] * (len(flags) - 1) + [int(terminal is Terminal.COLLISION)]:
                raise SchemaError(f"{path}: collision flags disagree with the terminal")

        for line in fh:
            lineno += 1
            if not line.strip():
                continue
            rec = _reference_parse_line(line, path, lineno)
            if "e" in rec:
                if pending is not None:
                    finish()
                pending = rec["e"]
                obs_rows, flags = [], []
            elif "s" in rec:
                if pending is None:
                    raise SchemaError(f"{path}:{lineno}: step record before any episode")
                row = rec["s"]
                if len(row) != obs_dim:
                    raise SchemaError(f"{path}:{lineno}: observation has {len(row)} values")
                obs_rows.append([float(v) for v in row])
                flags.append(int(rec.get("c", 0)))
            else:
                raise SchemaError(f"{path}:{lineno}: unrecognized record")
        if pending is not None:
            finish()
    if len(episodes) != head["episodes"]:
        raise SchemaError(f"{path}: header declared {head['episodes']} episodes")
    return episodes, dict(head)


def assert_same_episodes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.terminal is b.terminal and a.seed == b.seed
        assert a.observations.dtype == b.observations.dtype == np.float64
        assert a.observations.shape == b.observations.shape
        assert a.observations.tobytes() == b.observations.tobytes()


# --- corpora -----------------------------------------------------------------


def chain_corpus(count=20, seed=5):
    episodes, _ = generate_episodes(ChainWorld(SPEC, max_steps=30, stack_frames=2), count, seed)
    return episodes


def corridor_corpus(count=6, seed=5):
    episodes, _ = generate_episodes(CorridorWorld(CorridorWorldSpec()), count, seed)
    return episodes


EDGE_VALUES = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.0, -3.0, 123456789.0, 1234567890.0,
               1e20, 0.1, 1 / 3, -2.5e-7, 1.7976931348623157e308, 4503599627370497.0]


def edge_episode():
    obs = np.array(EDGE_VALUES * 2, dtype=np.float64).reshape(-1, 5)
    return Episode(observations=obs, terminal=Terminal.COLLISION, seed=7)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def episode_lists(draw):
    obs_dim = draw(st.integers(1, 6))
    episodes = []
    for seed in range(draw(st.integers(1, 4))):
        steps = draw(st.integers(1, 12))
        values = draw(st.lists(finite_floats, min_size=steps * obs_dim,
                               max_size=steps * obs_dim))
        terminal = draw(st.sampled_from(Terminal))
        episodes.append(Episode(observations=np.array(values).reshape(steps, obs_dim),
                                terminal=terminal, seed=seed))
    return episodes


# --- writer ------------------------------------------------------------------


@pytest.mark.parametrize("make", [chain_corpus, corridor_corpus, lambda: [edge_episode()]])
def test_writer_bytes_match_the_per_value_writer(tmp_path, make):
    episodes = make()
    save_episodes(tmp_path / "new.jsonl", episodes, "abc")
    reference_save(tmp_path / "ref.jsonl", episodes, "abc")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


def test_writer_formats_edge_values_as_nine_digit_text(tmp_path):
    save_episodes(tmp_path / "e.jsonl", [edge_episode()], "abc")
    step = (tmp_path / "e.jsonl").read_text().splitlines()[2]
    assert step == '{"s":[-0,0,1e-300,-1e-300,4.94065646e-324],"c":0}'


@settings(max_examples=60, deadline=None)
@given(episode_lists())
def test_writer_and_loader_match_the_reference_codec(tmp_path_factory, episodes):
    root = tmp_path_factory.mktemp("codec")
    save_episodes(root / "new.jsonl", episodes, "abc")
    reference_save(root / "ref.jsonl", episodes, "abc")
    assert (root / "new.jsonl").read_bytes() == (root / "ref.jsonl").read_bytes()
    got, head = load_episodes(root / "new.jsonl")
    want, want_head = reference_load(root / "new.jsonl")
    assert head == want_head
    assert_same_episodes(got, want)


# --- loader ------------------------------------------------------------------


@pytest.mark.parametrize("make", [chain_corpus, corridor_corpus, lambda: [edge_episode()]])
def test_loader_matches_the_per_line_loader(tmp_path, make):
    path = tmp_path / "eps.jsonl"
    save_episodes(path, make(), "abc")
    got, head = load_episodes(path)
    want, want_head = reference_load(path)
    assert head == want_head
    assert_same_episodes(got, want)


def test_loader_accepts_hand_formatted_lines_like_the_per_line_loader(tmp_path):
    # Spaces, reordered keys, blank lines, a missing flag and no final
    # newline all leave the written frame and take the line-by-line path.
    path = tmp_path / "eps.jsonl"
    save_episodes(path, chain_corpus(count=3), "abc")
    lines = path.read_text().splitlines()
    edited = []
    for k, line in enumerate(lines):
        doc = json.loads(line)
        if "s" in doc and k % 3 == 0:
            line = json.dumps({"c": doc["c"], "s": doc["s"]})
        elif "s" in doc and k % 3 == 1 and doc["c"] == 0:
            line = json.dumps({"s": doc["s"]}) + "\n"
        edited.append(line)
    path.write_text("\n".join(edited))
    got, _ = load_episodes(path)
    want, _ = reference_load(path)
    assert_same_episodes(got, want)


def test_loader_reads_episodes_longer_than_one_block(tmp_path):
    obs = np.arange(2500 * 5, dtype=np.float64).reshape(2500, 5) / 7.0
    ep = Episode(observations=obs, terminal=Terminal.TIME_LIMIT, seed=1)
    path = tmp_path / "long.jsonl"
    save_episodes(path, [ep, edge_episode()], "abc")
    got, _ = load_episodes(path)
    assert_same_episodes(got, reference_load(path)[0])


def _line_of(exc, path):
    match = re.match(rf"{re.escape(str(path))}:(\d+):", str(exc))
    return int(match.group(1)) if match else None


GARBAGE = list('x"[]{},:9-. e') + ["", "null", "\n"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_garbled_step_lines_fail_on_the_same_line(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("garbled") / "eps.jsonl"
    save_episodes(path, chain_corpus(count=4), "abc")
    lines = path.read_text().splitlines(keepends=True)
    k = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith('{"s"')]))
    line = lines[k]
    pos = data.draw(st.integers(0, len(line) - 1))
    kind = data.draw(st.sampled_from(["truncate", "replace", "insert"]))
    if kind == "truncate":
        lines[k] = line[:pos] + "\n"
    else:
        junk = data.draw(st.sampled_from(GARBAGE))
        lines[k] = line[:pos] + junk + line[pos + (kind == "replace"):]
    path.write_text("".join(lines))

    try:
        want = reference_load(path)[0]
    except SchemaError as exc:
        want_line = _line_of(exc, path)
        with pytest.raises(SchemaError) as got:
            load_episodes(path)
        if want_line is not None:
            assert _line_of(got.value, path) == want_line
        return
    except (ValueError, TypeError) as exc:
        # The per-line loader crashed (say, on a string value); the loader
        # now reports the line instead.
        with pytest.raises(SchemaError) as got:
            load_episodes(path)
        assert _line_of(got.value, path) is not None, (exc, got.value)
        return
    try:
        got = load_episodes(path)[0]
    except SchemaError as exc:
        # Only values the per-line loader coerced may be refused.
        assert re.search(r"must be numbers|flag must be 0 or 1", str(exc)), exc
        return
    assert_same_episodes(got, want)


@pytest.mark.parametrize(
    "value", ['"abc"', '"1.5"', "null", "[1.0]", "{}"], ids=["string", "numeric-string",
                                                           "null", "nested-list", "object"]
)
def test_non_numeric_observation_values_name_the_line(tmp_path, value):
    path = tmp_path / "eps.jsonl"
    save_episodes(path, chain_corpus(count=3), "abc")
    lines = path.read_text().splitlines(keepends=True)
    k = [i for i, line in enumerate(lines) if line.startswith('{"s"')][4]
    doc = json.loads(lines[k])
    doc["s"][0] = json.loads(value)
    lines[k] = json.dumps(doc, separators=(",", ":")) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(SchemaError, match=rf"{re.escape(str(path))}:{k + 1}: observation"):
        load_episodes(path)


@pytest.mark.parametrize(
    "flag", ['"1"', "null", "2", "[0]"], ids=["string", "null", "two", "list"]
)
def test_bad_collision_flags_name_the_line(tmp_path, flag):
    path = tmp_path / "eps.jsonl"
    save_episodes(path, chain_corpus(count=3), "abc")
    lines = path.read_text().splitlines(keepends=True)
    k = [i for i, line in enumerate(lines) if line.startswith('{"s"')][2]
    lines[k] = re.sub(r'"c":\d', '"c":' + flag, lines[k])
    path.write_text("".join(lines))
    with pytest.raises(SchemaError, match=rf":{k + 1}: collision flag"):
        load_episodes(path)


def _edit(index, change):
    """Edit the JSON record on line `index` in place."""

    def edit(lines):
        doc = json.loads(lines[index])
        change(doc)
        lines[index] = json.dumps(doc, separators=(",", ":")) + "\n"

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _edit(0, lambda doc: doc["h"].update(obs_dim=str(doc["h"]["obs_dim"]))),
        _edit(0, lambda doc: doc.update(h=5)),
        _edit(1, lambda doc: doc["e"].pop("steps")),
        _edit(1, lambda doc: doc["e"].update(seed=None)),
        _edit(1, lambda doc: doc.update(e=[1, 2])),
        _edit(2, lambda doc: doc["s"].__setitem__(0, 10**400)),
    ],
    ids=["string-obs-dim", "header-not-object", "meta-missing-steps", "null-seed",
         "meta-not-object", "overflow"],
)
def test_malformed_records_raise_schema_errors(tmp_path, edit):
    path = tmp_path / "eps.jsonl"
    save_episodes(path, chain_corpus(count=3), "abc")
    lines = path.read_text().splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines))
    with pytest.raises(SchemaError):
        load_episodes(path)


@pytest.mark.parametrize("episodes", [[], [Episode(np.zeros((3, 0)), Terminal.COLLISION, 0)]],
                         ids=["no-episode", "no-feature"])
def test_the_writer_refuses_a_file_without_an_episode_or_a_feature(tmp_path, episodes):
    with pytest.raises(ValueError, match="refusing"):
        save_episodes(tmp_path / "eps.jsonl", episodes, "abc")
    assert not (tmp_path / "eps.jsonl").exists()


@pytest.mark.parametrize("key", ["episodes", "obs_dim"])
def test_a_header_that_declares_zero_episodes_or_features_is_a_schema_error(tmp_path, key):
    head = {"version": SCHEMA_VERSION, "spec_hash": "abc", "obs_dim": 2, "episodes": 1, key: 0}
    path = tmp_path / "eps.jsonl"
    path.write_text(json.dumps({"h": head}) + "\n")
    with pytest.raises(SchemaError, match=f"'{key}' must be a positive integer"):
        load_episodes(path)


def test_non_utf8_file_is_a_schema_error(tmp_path):
    path = tmp_path / "eps.jsonl"
    save_episodes(path, chain_corpus(count=2), "abc")
    path.write_bytes(path.read_bytes() + b'{"s":[\xff],"c":0}\n')
    with pytest.raises(SchemaError, match="UTF-8"):
        load_episodes(path)


# --- collision flags against the terminal ------------------------------------


def flag_corpus(path):
    """A time_limit and a collision episode of three steps each, saved to path.

    Returns the file's lines: lines[4] is the final step of the time_limit
    episode, lines[6] and lines[8] the first and final steps of the
    collision episode.
    """

    obs = np.arange(6, dtype=np.float64).reshape(3, 2)
    save_episodes(path, [Episode(obs, Terminal.TIME_LIMIT, 1),
                         Episode(obs + 6, Terminal.COLLISION, 2)], "abc")
    return path.read_text().splitlines(keepends=True)


@pytest.mark.parametrize(
    "line, flag",
    [(6, 1), (4, 1), (8, 0)],
    ids=["collision-on-a-non-final-step", "final-collision-in-a-time-limit-episode",
         "no-final-collision-in-a-collision-episode"],
)
def test_collision_flags_that_disagree_with_the_terminal_are_schema_errors(tmp_path, line, flag):
    path = tmp_path / "eps.jsonl"
    lines = flag_corpus(path)
    assert [json.loads(lines[k])["c"] for k in (2, 3, 4, 6, 7, 8)] == [0, 0, 0, 0, 0, 1]
    assert [ep.terminal for ep in load_episodes(path)[0]] == [Terminal.TIME_LIMIT,
                                                              Terminal.COLLISION]
    lines[line] = re.sub(r'"c":\d', f'"c":{flag}', lines[line])
    path.write_text("".join(lines))
    with pytest.raises(SchemaError, match="collision flags"):
        load_episodes(path)
