"""Binary workspace files: corrupt, mangled, half-written or mismatched files
exit 2 with one line."""

import contextlib
import errno
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from usertopics import cli

from helpers import PROFILE_FILES

SPEC = {
    "n_topics": 3,
    "n_domains": 20,
    "n_users": 40,
    "sessions": {"dist": "fixed", "lo": 10},
    "seed": 5,
}
CLUSTER = ["cluster", "-M", "3", "-K", "3", "--restarts", "2"]
COMMANDS = [
    CLUSTER,
    ["sweep-k", "-M", "3", "--k-min", "2", "--k-max", "3", "--restarts", "1"],
    ["bench-m", "--m-list", "3", "--repeats", "1", "-K", "2", "--restarts", "1"],
]


def run(argv):
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def clustered(tmp_path_factory):
    """A workspace after ingest and cluster; tests work on copies."""
    root = tmp_path_factory.mktemp("clustered")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC))
    assert run(["synth", "--spec", spec, "--out-dir", root / "synth"])[0] == 0
    ws = root / "ws"
    assert run(["ingest", "--workspace", ws, "--sessions", root / "synth" / "sessions.csv"])[0] == 0
    assert run([*CLUSTER, "--workspace", ws])[0] == 0
    return ws


@pytest.fixture()
def ws(clustered, tmp_path):
    copy = tmp_path / "ws"
    shutil.copytree(clustered, copy)
    return copy


def assert_one_line_data_error(rc, err, what):
    assert rc == 2, err
    assert err.startswith(f"data error: {what}"), err
    assert err.count("\n") == 1, err


def resave(path, arr, **kwargs):
    with open(path, "wb") as fh:
        np.save(fh, arr, **kwargs)


def rewrite(name, change, **save_kwargs):
    """Mangler: load an array file, change the array, save it with np.save."""
    return lambda ws: resave(ws / name, change(np.load(ws / name)), **save_kwargs)


def edit_bytes(name, change):
    """Mangler: change a file's bytes."""
    return lambda ws: (ws / name).write_bytes(change((ws / name).read_bytes()))


def edit_meta(**changes):
    """Mangler: change sidecar keys; ``...`` drops the key."""
    def edit(ws):
        meta = json.loads((ws / "profile.meta.json").read_text())
        meta.update(changes)
        meta = {k: v for k, v in meta.items() if v is not ...}
        (ws / "profile.meta.json").write_text(json.dumps(meta))

    return edit


def edit_names(key, change):
    """Mangler: change the sidecar's list of names under ``key``."""
    def edit(ws):
        names = json.loads((ws / "profile.meta.json").read_text())[key]
        edit_meta(**{key: change(names)})(ws)

    return edit


def edit_first_long_row(change):
    """Mangler: change the column indices of the first row with two or more entries."""
    def edit(ws):
        indptr = np.load(ws / "profile.indptr.npy")
        indices = np.load(ws / "profile.indices.npy")
        lo = indptr[int(np.flatnonzero(np.diff(indptr) >= 2)[0])]
        indices[lo : lo + 2] = change(indices[lo : lo + 2])
        resave(ws / "profile.indices.npy", indices)

    return edit


MANGLE = {
    "wrong dtype": rewrite("profile.indices.npy", lambda a: a.astype("<i4")),
    "big-endian": rewrite("profile.data.npy", lambda a: a.astype(">f8")),
    "wrong ndim": rewrite("profile.data.npy", lambda a: a.reshape(-1, 1)),
    "one entry short": rewrite("profile.data.npy", lambda a: a[:-1]),
    "pickled objects": rewrite("profile.data.npy", lambda a: a.astype(object), allow_pickle=True),
    "inf entry": rewrite("profile.data.npy", lambda a: np.where(np.arange(a.size) == 3, np.inf, a)),
    "indptr not monotone": rewrite("profile.indptr.npy", lambda a: a[::-1].copy()),
    "column out of range": rewrite("profile.indices.npy", lambda a: a + 10_000),
    "unsorted row": edit_first_long_row(lambda pair: pair[::-1]),
    "duplicate cell": edit_first_long_row(lambda pair: pair[[0, 0]]),
    "trailing bytes": edit_bytes("profile.data.npy", lambda b: b + b"\0" * 8),
    "garbage header": edit_bytes(
        "profile.indptr.npy", lambda b: b[:10] + b"{not a header" * 4 + b[62:]),
    "not npy": edit_bytes("profile.indptr.npy", lambda b: b"0 1 2\n"),
    "empty file": edit_bytes("profile.indices.npy", lambda b: b""),
    "sidecar garbage": edit_bytes("profile.meta.json", lambda b: b"\xff{oops"),
    "sidecar not an object": edit_bytes("profile.meta.json", lambda b: b"[1, 2]"),
    "sidecar key missing": edit_meta(nnz=...),
    "sidecar extra key": edit_meta(checksum="x"),
    "sidecar nnz a string": edit_meta(nnz="12"),
    "sidecar n_users a bool": edit_meta(n_users=True),
    "sidecar nnz disagrees": edit_meta(nnz=1),
    "sidecar bad provenance": edit_meta(provenance="made_up"),
    "sidecar nested too deep": edit_bytes(
        "profile.meta.json", lambda b: b"[" * 200_000 + b"]" * 200_000),
    "sidecar without names": edit_meta(users=..., domains=...),
    "users not a list": edit_meta(users="u00000"),
    "domain not a string": edit_names("domains", lambda names: [7, *names[1:]]),
    "user a lone surrogate": edit_names("users", lambda names: ["\ud800", *names[1:]]),
    "users one short": edit_names("users", lambda names: names[:-1]),
    "duplicate domain": edit_names("domains", lambda names: [names[1], *names[1:]]),
    "data file missing": lambda ws: (ws / "profile.data.npy").unlink(),
}


@pytest.mark.parametrize("case", sorted(MANGLE))
def test_mangled_profile_exits_2(ws, case):
    MANGLE[case](ws)
    assert_one_line_data_error(*run([*CLUSTER, "--workspace", ws]), "corrupt profile matrix")


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_rejects_a_truncated_profile(ws, command):
    path = ws / "profile.indices.npy"
    path.write_bytes(path.read_bytes()[:-5])
    assert_one_line_data_error(*run([*command, "--workspace", ws]), "corrupt profile matrix")


def test_missing_sidecar_is_no_matrix(ws):
    (ws / "profile.meta.json").unlink()
    assert_one_line_data_error(*run([*CLUSTER, "--workspace", ws]), "no ingested profile matrix")


def test_text_workspace_must_be_reingested(ws):
    for path in ws.glob("profile.*"):
        path.unlink()
    (ws / "profile.triplets.txt").write_text("2 1 1\n0 0 5.0\n")
    (ws / "profile.users.txt").write_text("0,u1\n1,u2\n")
    (ws / "profile.domains.txt").write_text("0,a.com\n")
    assert_one_line_data_error(*run([*CLUSTER, "--workspace", ws]), "no ingested profile matrix")


def test_nothing_is_unpickled(ws, monkeypatch):
    import pickle

    def refuse(*args, **kwargs):
        raise AssertionError("a workspace file was unpickled")

    monkeypatch.setattr(pickle, "load", refuse)
    monkeypatch.setattr(pickle, "loads", refuse)
    MANGLE["pickled objects"](ws)
    assert run([*CLUSTER, "--workspace", ws])[0] == 2


def corruptions(names):
    """(file name, truncate-to length or None, bit index or None)."""
    return st.tuples(
        st.sampled_from(names),
        st.one_of(st.integers(min_value=0, max_value=100_000), st.none()),
        st.integers(min_value=0, max_value=8 * 100_000),
    )


def corrupt(ws: Path, name: str, cut, bit):
    path = ws / name
    data = bytearray(path.read_bytes())
    if cut is not None:
        data = data[: cut % (len(data) + 1)]
    elif data:
        bit %= 8 * len(data)
        data[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(data))


@settings(max_examples=60)
@given(damage=corruptions(PROFILE_FILES))
def test_truncated_or_bit_flipped_workspace_never_tracebacks(clustered, damage):
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "ws"
        shutil.copytree(clustered, ws)
        corrupt(ws, *damage)
        rc, err = run([*CLUSTER, "--workspace", ws])
        assert rc in (0, 2), err
        if rc == 2:
            assert err.startswith("data error:") and err.count("\n") == 1, err


def test_model_files_are_plain_npy(clustered):
    feature = json.loads((clustered / "feature.meta.json").read_text())
    m = np.load(clustered / "lsa.sigma.npy", allow_pickle=False).shape[0]
    assert m == int(CLUSTER[CLUSTER.index("-M") + 1])
    shapes = {"U": (feature["n_users"], m), "sigma": (m,), "V": (feature["n_domains"], m)}
    for name, shape in shapes.items():
        raw = np.load(clustered / f"lsa.{name}.npy", allow_pickle=False)
        assert raw.dtype.str == "<f8" and raw.shape == shape and np.isfinite(raw).all()


# --------------------------------------------------------------------------
# provenance: the profile must be the one ingest_manifest.json records
# --------------------------------------------------------------------------


def reingest(clustered, ws, *extra):
    """Ingest the log of the ``clustered`` workspace into ``ws``."""
    log = clustered.parent / "synth" / "sessions.csv"
    return run(["ingest", "--workspace", ws, "--sessions", log, *extra])


def files(ws):
    return {p.name: p.read_bytes() for p in ws.iterdir()}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_needs_the_ingest_manifest(ws, command):
    (ws / "ingest_manifest.json").unlink()
    before = files(ws)
    rc, err = run([*command, "--workspace", ws])
    assert_one_line_data_error(rc, err, f"no ingest manifest under {ws}")
    assert files(ws) == before


NO_CHECKSUM = {
    "garbage": "\xff{oops",
    "an array": "[1, 2]",
    "no results": "{}",
    "results an array": '{"results": [1]}',
    "no checksum": '{"results": {}}',
    "checksum a number": '{"results": {"profile_checksum": 7}}',
    "nested too deep": "[" * 100_000,
}


@pytest.mark.parametrize("case", sorted(NO_CHECKSUM))
def test_ingest_manifest_without_a_checksum_exits_2(ws, case):
    (ws / "ingest_manifest.json").write_text(NO_CHECKSUM[case], encoding="latin-1")
    rc, err = run([*CLUSTER, "--workspace", ws])
    assert_one_line_data_error(rc, err, f"{ws / 'ingest_manifest.json'} records no")


def test_profile_of_another_ingest_exits_2(clustered, ws, tmp_path):
    other = tmp_path / "other"
    assert reingest(clustered, other, "--metric", "requests")[0] == 0
    assert run([*CLUSTER, "--workspace", other])[0] == 0  # valid in its own workspace
    for name in PROFILE_FILES:
        shutil.copy(other / name, ws / name)
    rc, err = run([*CLUSTER, "--workspace", ws])
    assert_one_line_data_error(rc, err, f"profile matrix under {ws} does not match")


def test_profile_of_an_ingest_that_failed_after_writing_it_exits_2(clustered, ws, monkeypatch):
    write_rows = cli.write_rows

    def disk_full(path, *args, **kwargs):
        if path.name == "domain_stats.txt":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return write_rows(path, *args, **kwargs)

    monkeypatch.setattr(cli, "write_rows", disk_full)
    rc, err = reingest(clustered, ws, "--metric", "requests")
    assert rc == 2 and os.strerror(errno.ENOSPC) in err
    assert (ws / "profile.meta.json").is_file()  # the new profile is complete
    rc, err = run([*CLUSTER, "--workspace", ws])
    assert_one_line_data_error(rc, err, f"no ingest manifest under {ws}")
