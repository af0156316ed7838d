"""Episode file version 2: exact round trips, the documented layout checked
against a reference writer and loader built from zipfile and the .npy header
functions alone, stable bytes, and a SchemaError for every malformed archive."""

import io
import json
import struct
import time
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskhorizon.artifacts import canonical_json
from riskhorizon.envs import (
    ChainWorld,
    CorridorWorld,
    generate_episodes,
)
from riskhorizon.episodes import (
    FORMAT,
    SCHEMA_VERSION,
    TERMINAL_CODES,
    Episode,
    SchemaError,
    Terminal,
    load_episodes,
    save_episodes,
)

CHAIN = ChainWorld(
    n_states=3,
    hazard=(0.05, 0.1, 0.3),
    transition=((0.6, 0.4, 0.0), (0.3, 0.4, 0.3), (0.0, 0.5, 0.5)),
    start_distribution=(0.5, 0.3, 0.2),
    max_steps=30,
    stack_frames=2,
)


def chain_corpus(count=20, seed=5):
    episodes, _ = generate_episodes(CHAIN, count, seed)
    return episodes


def corridor_corpus(count=6, seed=5):
    episodes, _ = generate_episodes(CorridorWorld(), count, seed)
    return episodes


def assert_same_episodes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.terminal is b.terminal and a.seed == b.seed
        assert a.observations.dtype == b.observations.dtype == np.float64
        assert a.observations.shape == b.observations.shape
        assert a.observations.tobytes() == b.observations.tobytes()


# --- reference codec: a per-value writer and a per-line loader ---------------

# The documented members: .npy type string and struct format of one value.
LAYOUT = {"header": ("|u1", "B"), "observations": ("<f8", "d"), "steps": ("<i8", "q"),
          "terminal": ("|i1", "b"), "seed": ("<u8", "Q")}
CODES = {"collision": 0, "time_limit": 1, "blocked": 2}


def reference_save(path, episodes, spec_hash):
    """The documented archive, its values packed one at a time."""

    header = json.dumps({"format": "riskhorizon-episodes", "version": 2,
                         "obs_dim": episodes[0].obs_dim, "episodes": len(episodes),
                         "spec_hash": spec_hash}, sort_keys=True, separators=(",", ":"))
    rows = [row for ep in episodes for row in ep.observations.tolist()]
    members = {
        "header": ((len(header.encode()),), list(header.encode())),
        "observations": ((len(rows), episodes[0].obs_dim), [v for row in rows for v in row]),
        "steps": ((len(episodes),), [ep.steps for ep in episodes]),
        "terminal": ((len(episodes),), [CODES[ep.terminal.value] for ep in episodes]),
        "seed": ((len(episodes),), [ep.seed for ep in episodes]),
    }
    with zipfile.ZipFile(path, "w") as zf:
        for name, (shape, values) in members.items():
            descr, fmt = LAYOUT[name]
            with zf.open(name + ".npy", "w", force_zip64=True) as fid:
                np.lib.format.write_array_header_1_0(
                    fid, {"descr": descr, "fortran_order": False, "shape": shape})
                for v in values:
                    fid.write(struct.pack("<" + fmt, v))


def reference_load(path):
    """(episodes, header) of the documented archive, read one observation row
    (one line of the matrix) at a time."""

    def read(zf, name, rows=False):
        with zf.open(name + ".npy") as fid:
            assert np.lib.format.read_magic(fid) == (1, 0)
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fid)
            descr, fmt = LAYOUT[name]
            assert (dtype.str, fortran) == (descr, False)
            if rows:
                line = "<%d%s" % (shape[1], fmt)
                return [struct.unpack(line, fid.read(struct.calcsize(line)))
                        for _ in range(shape[0])]
            return list(struct.unpack("<%d%s" % (shape[0], fmt), fid.read()))

    with zipfile.ZipFile(path) as zf:
        head = json.loads(bytes(read(zf, "header")))
        lines = read(zf, "observations", rows=True)
        steps, codes, seeds = (read(zf, name) for name in ("steps", "terminal", "seed"))
    terminals = {code: Terminal(value) for value, code in CODES.items()}
    episodes, start = [], 0
    for n, code, seed in zip(steps, codes, seeds):
        episodes.append(Episode(np.array(lines[start:start + n]), terminals[code], seed))
        start += n
    return episodes, head


# --- archives edited member by member ----------------------------------------


def members(path):
    with np.load(path, allow_pickle=True) as archive:
        return {name: archive[name] for name in archive.files}


def rewrite(path, **changes):
    """Write `path` again with members replaced; a member set to None is left out."""

    arrays = {**members(path), **changes}
    with open(path, "wb") as fh:
        np.savez(fh, **{k: v for k, v in arrays.items() if v is not None})


def header_bytes(doc) -> np.ndarray:
    return np.frombuffer(canonical_json(doc).encode(), dtype=np.uint8)


def edit_header(path, **changes):
    head = json.loads(members(path)["header"].tobytes())
    rewrite(path, header=header_bytes({**head, **changes}))


@pytest.fixture
def saved(tmp_path):
    """A saved chain corpus: 3 episodes of 2, 1 and 4 rows of 6 values."""

    path = tmp_path / "eps.jsonl"
    save_episodes(path, chain_corpus(count=3), "abc")
    return path


# --- round trip --------------------------------------------------------------

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1e-300, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1, 1 / 3, 4503599627370497.0, 123456789.0123456789]


def edge_corpus():
    obs = np.array(EDGE_VALUES * 2, dtype=np.float64).reshape(-1, 5)
    return [Episode(obs[:4], Terminal.COLLISION, 0),
            Episode(obs[4:5], Terminal.TIME_LIMIT, 2**63 - 2),
            Episode(obs[5:], Terminal.BLOCKED, 12345)]


values = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_VALUES))


@st.composite
def episode_lists(draw):
    obs_dim = draw(st.integers(1, 6))
    episodes = []
    for _ in range(draw(st.integers(1, 4))):
        steps = draw(st.integers(1, 12))
        obs = draw(st.lists(values, min_size=steps * obs_dim, max_size=steps * obs_dim))
        episodes.append(Episode(observations=np.array(obs).reshape(steps, obs_dim),
                                terminal=draw(st.sampled_from(Terminal)),
                                seed=draw(st.integers(0, 2**63 - 2))))
    return episodes


@settings(max_examples=60, deadline=None)
@given(episode_lists())
@example(edge_corpus())
def test_writer_and_loader_match_the_reference_codec(tmp_path_factory, episodes):
    # Loading returns what was saved bit for bit: -0.0, subnormals, +-1e308,
    # seeds up to 2**63 - 2 and every terminal.
    root = tmp_path_factory.mktemp("codec")
    save_episodes(root / "new", episodes, "abc")
    reference_save(root / "ref", episodes, "abc")
    assert (root / "new").read_bytes() == (root / "ref").read_bytes()
    got, head = load_episodes(root / "new")
    want, want_head = reference_load(root / "new")
    assert head == want_head == {"format": FORMAT, "version": SCHEMA_VERSION,
                                 "obs_dim": episodes[0].obs_dim, "episodes": len(episodes),
                                 "spec_hash": "abc"}
    assert_same_episodes(got, want)
    assert_same_episodes(got, episodes)


@pytest.mark.parametrize("make", [chain_corpus, corridor_corpus, lambda: edge_corpus()])
def test_writer_bytes_match_the_per_value_writer(tmp_path, make):
    # They are also the bytes np.savez writes for the same members.
    episodes = make()
    save_episodes(tmp_path / "new", episodes, "abc")
    reference_save(tmp_path / "ref", episodes, "abc")
    with open(tmp_path / "savez", "wb") as fh:
        np.savez(fh, **members(tmp_path / "new"))
    assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()
    assert (tmp_path / "new").read_bytes() == (tmp_path / "savez").read_bytes()


@pytest.mark.parametrize("make", [chain_corpus, corridor_corpus, lambda: edge_corpus()])
def test_loader_matches_the_per_line_loader(tmp_path, make):
    save_episodes(tmp_path / "eps", make(), "abc")
    got, head = load_episodes(tmp_path / "eps")
    want, want_head = reference_load(tmp_path / "eps")
    assert head == want_head
    assert_same_episodes(got, want)


def test_loaded_observations_are_views_of_one_matrix(tmp_path):
    save_episodes(tmp_path / "eps", corridor_corpus(), "abc")
    got, _ = load_episodes(tmp_path / "eps")
    owner = got[0].observations.base
    assert owner is not None and owner.size == sum(ep.observations.size for ep in got)
    assert all(ep.observations.base is owner for ep in got)


def test_loader_reads_episodes_longer_than_one_block(tmp_path):
    # NumPy reads an archive member in blocks of BUFFER_SIZE bytes.
    rows = 2 * np.lib.format.BUFFER_SIZE // (5 * 8) + 3
    obs = np.arange(rows * 5, dtype=np.float64).reshape(rows, 5) / 7.0
    episodes = [Episode(obs, Terminal.TIME_LIMIT, 1), *edge_corpus()]
    save_episodes(tmp_path / "long", episodes, "abc")
    assert_same_episodes(load_episodes(tmp_path / "long")[0], episodes)


# --- layout and bytes --------------------------------------------------------


def test_the_file_holds_exactly_the_documented_members(saved):
    episodes = chain_corpus(count=3)
    got = members(saved)
    assert {name: (a.dtype, a.ndim) for name, a in got.items()} == {
        "header": (np.uint8, 1), "observations": (np.float64, 2), "steps": (np.int64, 1),
        "terminal": (np.int8, 1), "seed": (np.uint64, 1)}
    assert json.loads(got["header"].tobytes()) == {
        "format": "riskhorizon-episodes", "version": 2, "obs_dim": 6, "episodes": 3,
        "spec_hash": "abc"}
    assert got["observations"].tobytes() == np.concatenate(
        [ep.observations for ep in episodes]).tobytes()
    assert got["steps"].tolist() == [ep.steps for ep in episodes]
    assert got["seed"].tolist() == [ep.seed for ep in episodes]
    assert [TERMINAL_CODES[k] for k in got["terminal"].tolist()] == [ep.terminal for ep in episodes]
    assert TERMINAL_CODES == (Terminal.COLLISION, Terminal.TIME_LIMIT, Terminal.BLOCKED)


def test_save_writes_exactly_the_given_path(tmp_path):
    # np.savez given a path without `.npz` would append the suffix.
    for name in ("episodes.jsonl", "episodes"):
        save_episodes(tmp_path / name, chain_corpus(count=2), "abc")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["episodes", "episodes.jsonl"]


def test_two_saves_two_seconds_apart_write_the_same_bytes(tmp_path):
    # Zip times have a 2-second resolution; members carry no write time.
    episodes = chain_corpus(count=3)
    save_episodes(tmp_path / "a", episodes, "abc")
    time.sleep(2.1)
    save_episodes(tmp_path / "b", episodes, "abc")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


# --- the writer's refusals ---------------------------------------------------


@pytest.mark.parametrize("episodes", [[], [Episode(np.zeros((3, 0)), Terminal.COLLISION, 0)]],
                         ids=["no-episode", "no-feature"])
def test_the_writer_refuses_a_file_without_an_episode_or_a_feature(tmp_path, episodes):
    with pytest.raises(ValueError, match="refusing"):
        save_episodes(tmp_path / "eps.jsonl", episodes, "abc")
    assert not (tmp_path / "eps.jsonl").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_the_writer_refuses_a_non_finite_value(tmp_path, value):
    episodes = chain_corpus(count=3)
    episodes[2].observations[3, 4] = value
    with pytest.raises(ValueError, match=r"non-finite observation value \(episode 2, row 3\)"):
        save_episodes(tmp_path / "eps.jsonl", episodes, "abc")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_the_writer_refuses_a_seed_outside_uint64(tmp_path, seed):
    episodes = chain_corpus(count=2)
    episodes[1].seed = seed
    with pytest.raises(OverflowError):
        save_episodes(tmp_path / "eps.jsonl", episodes, "abc")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", [1.5, "7", True, None], ids=["float", "string", "bool", "none"])
def test_the_writer_refuses_a_seed_that_is_not_an_integer(tmp_path, seed):
    episodes = chain_corpus(count=2)
    episodes[1].seed = seed
    with pytest.raises(ValueError, match=r"seed that is not an integer \(episode 1: "):
        save_episodes(tmp_path / "eps.jsonl", episodes, "abc")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(2**64 - 1)], ids=["int64", "uint64"])
def test_the_writer_takes_a_numpy_integer_seed(tmp_path, seed):
    episodes = chain_corpus(count=2)
    episodes[1].seed = seed
    save_episodes(tmp_path / "eps.jsonl", episodes, "abc")
    assert load_episodes(tmp_path / "eps.jsonl")[0][1].seed == int(seed)


# --- the loader's refusals ---------------------------------------------------


def test_a_version_1_file_names_the_version_and_says_to_rerun_gen(tmp_path):
    path = tmp_path / "eps.jsonl"
    path.write_text('{"h":{"episodes":1,"obs_dim":2,"spec_hash":"abc","version":1}}\n'
                    '{"e":{"seed":1,"steps":1,"terminal":"collision"}}\n{"c":1,"s":[0,1]}\n')
    with pytest.raises(SchemaError, match=r"version 1 .*re-run `riskhorizon gen`"):
        load_episodes(path)


NPY = io.BytesIO()
np.save(NPY, np.zeros((3, 2)))


@pytest.mark.parametrize("content", [b"", b"hello\n", b"PK\x05\x06" + bytes(18), NPY.getvalue()],
                         ids=["empty", "text", "empty-zip", "npy"])
def test_a_file_that_is_not_an_episode_archive_is_a_schema_error(tmp_path, content):
    path = tmp_path / "eps.jsonl"
    path.write_bytes(content)
    with pytest.raises(SchemaError, match="not an episode file"):
        load_episodes(path)


def test_every_truncation_is_a_schema_error(saved):
    data = saved.read_bytes()
    for cut in range(0, len(data), 7):
        saved.write_bytes(data[:cut])
        with pytest.raises(SchemaError):
            load_episodes(saved)


def test_a_member_declaring_more_values_than_memory_holds_is_a_schema_error(tmp_path):
    # Valid CRCs, but an .npy header that declares about 9 TiB; NumPy tries
    # to allocate the shape before it reads the member.
    with open(tmp_path / "eps", "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
        with zf.open("header.npy", "w", force_zip64=True) as member:
            np.lib.format.write_array_header_1_0(
                member, {"descr": "|u1", "fortran_order": False, "shape": (10**13,)})
            member.write(b"{}")
    with pytest.raises(SchemaError, match="corrupt episode archive"):
        load_episodes(tmp_path / "eps")


@pytest.mark.parametrize("key", ["episodes", "obs_dim"])
def test_a_header_that_declares_zero_episodes_or_features_is_a_schema_error(saved, key):
    edit_header(saved, **{key: 0})
    with pytest.raises(SchemaError, match=f"'{key}' must be a positive integer"):
        load_episodes(saved)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: edit_header(p, obs_dim="6"), "'obs_dim' must be a positive integer"),
        (lambda p: rewrite(p, header=header_bytes(5)), "header must be an object"),
        (lambda p: rewrite(p, steps=None), "archive members"),
        (lambda p: rewrite(p, seed=np.array([None] * 3, dtype=object)), "Object arrays"),
        (lambda p: rewrite(p, terminal=np.zeros((3, 1), dtype=np.int8)), "'terminal' must be"),
        (lambda p: rewrite(p, observations=np.full((sum(members(p)["steps"]), 6), 1e999)),
         "non-finite"),
    ],
    ids=["string-obs-dim", "header-not-object", "meta-missing-steps", "null-seed",
         "meta-not-object", "overflow"],
)
def test_malformed_records_raise_schema_errors(saved, edit, message):
    edit(saved)
    with pytest.raises(SchemaError, match=message):
        load_episodes(saved)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"extra": np.zeros(3)}, "archive members"),
        ({"observations": None}, "archive members"),
        ({"header": None}, "archive members"),
        ({"seed": np.arange(3, dtype=np.int64)}, "'seed' must be uint64"),
        ({"steps": np.arange(1, 4, dtype=np.int32)}, "'steps' must be int64"),
        ({"terminal": np.zeros(3, dtype=np.uint8)}, "'terminal' must be int8"),
        ({"header": np.zeros((2, 2), dtype=np.uint8)}, "header is not UTF-8 JSON"),
        ({"observations": np.zeros(6)}, r"not float64 of shape \(6,\)"),
        ({"observations": np.zeros((4, 6), dtype=">f8")}, "'observations' must be float64"),
        ({"observations": np.zeros((4, 6), dtype=np.float32)}, "'observations' must be float64"),
        ({"seed": np.arange(4, dtype=np.uint64)}, r"'seed' must be uint64 of shape \(3,\)"),
        ({"terminal": np.zeros(2, dtype=np.int8)}, r"'terminal' must be int8 of shape \(3,\)"),
        ({"observations": np.zeros((4, 5))}, r"of shape \(4, 6\), not float64 of shape \(4, 5\)"),
    ],
    ids=["extra", "no-observations", "no-header", "seed-int64", "steps-int32", "terminal-uint8",
         "header-2d", "observations-1d", "observations-big-endian", "observations-float32",
         "seeds-too-many", "terminals-too-few", "observations-narrow"],
)
def test_a_missing_unknown_or_misshapen_member_is_a_schema_error(saved, change, message):
    rewrite(saved, **change)
    with pytest.raises(SchemaError, match=message):
        load_episodes(saved)


@pytest.mark.parametrize(
    "value", [np.array(["abc"] * 4), np.array(["1.5"] * 4), np.array([None] * 4, dtype=object),
              np.zeros((4, 6, 1)), np.array([{}] * 4, dtype=object)],
    ids=["string", "numeric-string", "null", "nested-list", "object"],
)
def test_non_numeric_observation_values_name_the_line(saved, value):
    # A version 2 file has no lines: the error names the member instead.
    rewrite(saved, observations=value)
    with pytest.raises(SchemaError, match="'observations' must be float64|Object arrays"):
        load_episodes(saved)


@pytest.mark.parametrize(
    "steps", [[0, 10, 10], [-1, 11, 10], [5, 5, 5], [20, 10, 10], [2**62, 2**62, 2**62]],
    ids=["zero", "negative", "short", "long", "huge"])
def test_step_counts_that_do_not_cover_the_rows_are_schema_errors(tmp_path, steps):
    obs = np.zeros((20, 2))
    save_episodes(tmp_path / "eps", [Episode(obs[:5], Terminal.COLLISION, 1),
                                     Episode(obs[5:10], Terminal.BLOCKED, 2),
                                     Episode(obs[10:], Terminal.TIME_LIMIT, 3)], "abc")
    rewrite(tmp_path / "eps", steps=np.array(steps, dtype=np.int64))
    with pytest.raises(SchemaError, match="step counts"):
        load_episodes(tmp_path / "eps")


@pytest.mark.parametrize("code", [3, -1, 127, -128])
def test_an_unknown_terminal_code_is_a_schema_error(saved, code):
    rewrite(saved, terminal=np.array([0, code, 1], dtype=np.int8))
    with pytest.raises(SchemaError, match="unknown terminal code"):
        load_episodes(saved)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_observation_names_the_episode_and_row(saved, value):
    obs = members(saved)["observations"]
    obs[2 + 1 + 3, 1] = value
    rewrite(saved, observations=obs)
    with pytest.raises(SchemaError, match=r"non-finite observation value \(episode 2, row 3\)"):
        load_episodes(saved)


@pytest.mark.parametrize("change", [{"version": 1}, {"version": 3}, {"format": "other"}],
                         ids=["version-1", "version-3", "format"])
def test_a_header_of_another_format_or_version_is_a_schema_error(saved, change):
    edit_header(saved, **change)
    with pytest.raises(SchemaError, match="not supported"):
        load_episodes(saved)


@pytest.mark.parametrize("header", [b"{", b"[1, 2]", b'{"format": 1}'],
                         ids=["not-json", "list", "missing-keys"])
def test_a_header_that_is_not_the_documented_object_is_a_schema_error(saved, header):
    rewrite(saved, header=np.frombuffer(header, dtype=np.uint8))
    with pytest.raises(SchemaError, match="header"):
        load_episodes(saved)


def test_non_utf8_file_is_a_schema_error(saved):
    rewrite(saved, header=np.frombuffer(b'{"format":"\xff"}', dtype=np.uint8))
    with pytest.raises(SchemaError, match="UTF-8"):
        load_episodes(saved)
