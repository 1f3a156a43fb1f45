import collections
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from usertopics import cli
from usertopics.ingest import write_sessions_csv
from usertopics.synth import (
    _SPEC_KEYS,
    SynthSpec,
    adjusted_rand_index,
    disjoint_topic_word,
    generate,
    overlapping_topic_word,
    write_truth,
)

from oracles import (
    ari_pair_counting,
    generate_records,
    purity,
    read_truth,
    to_records,
    write_sessions_rows,
)


def spec_with(**kw):
    base = dict(
        n_topics=2,
        n_domains=10,
        n_users=4,
        topic_word=disjoint_topic_word(2, 10),
        sessions_lo=20,
        sessions_hi=20,
        seed=0,
    )
    base.update(kw)
    return SynthSpec(**base)


MINIMAL_SPEC = {"n_topics": 2, "n_domains": 10, "n_users": 3}

# JSON spec key -> (a value other than its default, the field it sets, the field's value)
SPEC_KEY_CASES = {
    "n_topics": (5, "n_topics", 5),
    "n_domains": (12, "n_domains", 12),
    "n_users": ("7", "n_users", 7),
    "sessions.dist": ("uniform", "sessions_dist", "uniform"),
    "sessions.lo": (7, "sessions_lo", 7),
    "sessions.hi": (90, "sessions_hi", 90),
    "universal_domain": ("portal.example", "universal_domain", "portal.example"),
    "seed": (9, "seed", 9),
}


class TestSpecValidation:
    def test_rows_must_be_stochastic(self):
        bad = disjoint_topic_word(2, 10)
        bad[0, 0] += 0.5
        with pytest.raises(ValueError):
            spec_with(topic_word=bad)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            SynthSpec.from_dict({"n_topics": 2, "n_domains": 4, "n_users": 2, "bogus": 1})

    def test_from_dict_topics_kinds(self):
        raw = {"n_topics": 2, "n_domains": 10, "n_users": 3}
        assert SynthSpec.from_dict(raw).topic_word.shape == (2, 10)
        raw["topics"] = {"kind": "overlap", "share": 0.2}
        spec = SynthSpec.from_dict(raw)
        assert np.allclose(spec.topic_word.sum(axis=1), 1.0)
        for share, expected in ((0.5, 0.5), ("0", 0.0), (None, 0.2)):
            raw["topics"] = {"kind": "overlap"} if share is None else {"kind": "overlap",
                                                                       "share": share}
            topic_word = SynthSpec.from_dict(raw).topic_word
            assert np.array_equal(topic_word, overlapping_topic_word(2, 10, expected))

    def test_from_dict_left_out_keys_keep_defaults(self):
        spec = SynthSpec.from_dict(MINIMAL_SPEC)
        for f in dataclasses.fields(SynthSpec):
            if f.default is not dataclasses.MISSING:
                assert getattr(spec, f.name) == f.default, f.name
        assert SynthSpec.from_dict({**MINIMAL_SPEC, "sessions": {"lo": 7}}).sessions_hi == 7

    @pytest.mark.parametrize("key", list(SPEC_KEY_CASES))
    def test_from_dict_key_sets_its_field(self, key):
        value, name, expected = SPEC_KEY_CASES[key]
        outer, _, inner = key.partition(".")
        raw = {**MINIMAL_SPEC, outer: {inner: value} if inner else value}
        assert getattr(SynthSpec.from_dict(raw), name) == expected
        assert getattr(SynthSpec.from_dict(MINIMAL_SPEC), name) != expected

    @pytest.mark.parametrize("key", ["user_topic_mode", "fixed_mixture", "mixed_concentration",
                                     "bytes_median", "bytes_sigma", "universal_share",
                                     "topics.rows"])
    def test_from_dict_refuses_a_removed_key(self, key):
        outer, _, inner = key.partition(".")
        raw = {**MINIMAL_SPEC, outer: {inner: 1} if inner else 1}
        with pytest.raises(ValueError, match=rf"unknown spec keys: \['{key}'\]"):
            SynthSpec.from_dict(raw)
        if not inner:  # the field behind the key is gone too
            with pytest.raises(TypeError):
                spec_with(**{key: 1})

    def test_every_spec_key_has_a_case(self):
        # the topics keys pick the topic-word matrix: test_from_dict_topics_kinds
        assert set(SPEC_KEY_CASES) | {"topics.kind", "topics.share"} == set(_SPEC_KEYS)

    def test_domain_names_is_not_a_field(self):
        with pytest.raises(TypeError):
            spec_with(domain_names=tuple("abcdefghij"))
        assert spec_with().domain_names == tuple(f"dom{j:04d}" for j in range(10))

    def test_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_topics": 2, "n_domains": 6, "n_users": 3}))
        assert SynthSpec.from_file(path).n_users == 3

    @pytest.mark.parametrize(
        "domain, message",
        [
            ("bad domain", "domain contains whitespace: 'bad domain'"),
            ("http://a.com", "domain carries a scheme prefix"),
            ("a\x00.com", "domain contains a control character"),
            (5, "universal_domain must be a string"),
            ("dom0001", "universal_domain 'dom0001' is a topic domain"),
            ("dom0009", "universal_domain 'dom0009' is a topic domain"),
        ],
    )
    def test_bad_universal_domain(self, domain, message):
        with pytest.raises(ValueError, match=message):
            spec_with(universal_domain=domain)


class TestGenerate:
    def test_single_topic_frequencies(self):
        # T=1 degenerate: empirical domain marginal matches row 0 within 1%
        spec = spec_with(
            n_topics=1,
            topic_word=disjoint_topic_word(1, 10),
            n_users=20,
            sessions_lo=5000,
            sessions_hi=5000,
        )
        sessions = to_records(generate(spec)[0])
        counts = collections.Counter(s.domain for s in sessions)
        total = len(sessions)
        for j, name in enumerate(spec.domain_names):
            empirical = counts[name] / total
            assert abs(empirical - spec.topic_word[0, j]) <= 0.01

    def test_seeded_bit_identical(self):
        a_sessions, a_truth = generate(spec_with(seed=9))
        b_sessions, b_truth = generate(spec_with(seed=9))
        assert to_records(a_sessions) == to_records(b_sessions)
        assert np.array_equal(a_truth.dominant, b_truth.dominant)

    def test_universal_domain_everywhere(self):
        spec = spec_with(universal_domain="portal.example", n_users=10)
        sessions = to_records(generate(spec)[0])
        per_user = collections.defaultdict(set)
        for s in sessions:
            per_user[s.user_id].add(s.domain)
        assert all("portal.example" in doms for doms in per_user.values())

    def test_universal_share_of_sessions(self):
        spec = spec_with(universal_domain="portal.example", sessions_lo=40, sessions_hi=40)
        sessions = to_records(generate(spec)[0])
        per_user = collections.Counter(
            s.user_id for s in sessions if s.domain == "portal.example"
        )
        assert all(count == 12 for count in per_user.values())  # 30% of 40

    def test_hard_mode_one_hot(self):
        # disjoint topics: every session of a user lies in its planted topic's block
        spec = spec_with(n_users=30)
        table, truth = generate(spec)
        assert set(truth.dominant.tolist()) == {0, 1}
        for s in to_records(table):
            topic = truth.dominant[truth.user_ids.index(s.user_id)]
            assert spec.topic_word[topic, spec.domain_names.index(s.domain)] > 0

    def test_overlapping_topics_share_pool(self):
        tw = overlapping_topic_word(2, 12, 0.25)
        assert np.allclose(tw.sum(axis=1), 1.0)
        shared_cols = np.flatnonzero((tw > 0).all(axis=0))
        assert shared_cols.size > 0
        assert np.allclose(tw[:, shared_cols].sum(axis=1), 0.25)

    def test_truth_file_roundtrip(self, tmp_path):
        _, truth = generate(spec_with())
        write_truth(truth, tmp_path / "truth.csv")
        back = read_truth(tmp_path / "truth.csv")
        assert back == {u: int(t) for u, t in zip(truth.user_ids, truth.dominant)}


@st.composite
def specs(draw):
    """Small specs of every kind: topic layout, session counts and universal domain."""
    n_topics = draw(st.integers(1, 4))
    n_domains = draw(st.integers(n_topics + 1, 12))
    layout = draw(st.sampled_from(["disjoint", "overlap", "matrix"]))
    if layout == "disjoint":
        topic_word = disjoint_topic_word(n_topics, n_domains)
    elif layout == "overlap":
        topic_word = overlapping_topic_word(n_topics, n_domains, draw(st.sampled_from([0.0, 0.2, 0.6])))
    else:
        weights = np.array(
            draw(st.lists(st.integers(0, 3), min_size=n_topics * n_domains, max_size=n_topics * n_domains)),
            dtype=np.float64,
        ).reshape(n_topics, n_domains)
        weights[:, 0] += 1  # every row has mass
        topic_word = weights / weights.sum(axis=1, keepdims=True)
    lo = draw(st.integers(1, 8))
    universal = draw(st.sampled_from([None, "portal.example"]))
    return SynthSpec(
        n_topics=n_topics,
        n_domains=n_domains,
        n_users=draw(st.integers(1, 6)),
        topic_word=topic_word,
        sessions_dist=draw(st.sampled_from(["fixed", "poisson", "uniform"])),
        sessions_lo=lo,
        sessions_hi=lo + draw(st.integers(0, 8)),
        universal_domain=universal,
        seed=draw(st.integers(0, 2**32)),
    )


class TestColumnarGenerate:
    @settings(max_examples=150, deadline=None)
    @given(spec=specs())
    def test_matches_per_record_oracle(self, spec):
        table, truth = generate(spec)
        records, dominant, log_text = generate_records(spec)
        assert to_records(table) == records
        assert truth.dominant.tolist() == dominant
        assert len(set(table.domains)) == len(table.domains)
        with tempfile.TemporaryDirectory() as tmp:
            ours, oracle = Path(tmp) / "columns.csv", Path(tmp) / "rows.csv"
            write_sessions_csv(table, ours, truth.log_text())
            write_sessions_rows(records, oracle, log_text)
            assert ours.read_bytes() == oracle.read_bytes()

    def test_universal_domain_named_like_a_topic_domain(self):
        with pytest.raises(ValueError, match="universal_domain 'dom0001' is a topic domain"):
            spec_with(universal_domain="dom0001", n_users=10)
        table, _ = generate(spec_with(universal_domain="dom0010", n_users=10))  # one past the last
        assert table.domains[-1] == "dom0010" and len(set(table.domains)) == 11


# the pipebench workloads' smoke_spec, and sha256 of the synth outputs for them
SMOKE_SPECS = {
    "campus-logs": {
        "n_topics": 4,
        "n_domains": 40,
        "n_users": 120,
        "topics": {"kind": "overlap", "share": 0.2},
        "sessions": {"dist": "poisson", "lo": 60},
        "universal_domain": "portal.example",
    },
    "wide-rank": {
        "n_topics": 4,
        "n_domains": 520,
        "n_users": 520,
        "sessions": {"dist": "fixed", "lo": 30},
    },
}


# sha256 of the ingest outputs for the smoke corpora above (matrix sidecars as compact JSON)
INGEST_SHA = {
    ("campus-logs", 7): {
        "domain_stats.txt": "da2d27ba4c7b7139b55633c096263c9163b1cb9ef06e053377fe078a114493fc",
        "profile.data.npy": "da2e66966aa884ed16bc043c00f8704cd3160f7a84595e00972f78a10f1afee1",
        "profile.indices.npy": "3418d7747fbb868909df46c67e952b2fa3426badcd529146a8427e4592547ac4",
        "profile.indptr.npy": "c60725f39bd242b677c2af021ea23507b09d5ed431d75424301ac9b3e92793b6",
        "profile.meta.json": "713f4813476939515cd5c68f890feef1574c82899c178e6581ea4bb674f05c56",
    },
    ("campus-logs", 905): {
        "domain_stats.txt": "92db63505fac5ccfaf05933b530b223bf4f405f903b5a72826e42dbbde7ded02",
        "profile.data.npy": "be0e8c33db31a690b35952c448c705d3a6d889396fd0264e798dc4630bc42051",
        "profile.indices.npy": "2f227293660e9ff65f3285197db5ab4031bc250c0572b643061c8cfdd3a0e5d8",
        "profile.indptr.npy": "b4b84d774e64255769fdeb4024ee949efa5550a8e5fc1126fe05d951320bd845",
        "profile.meta.json": "e2087950bc45daa2f8002a5e0a026e79b9af0072aa99e411827af06e99b2f954",
    },
    ("wide-rank", 7): {
        "domain_stats.txt": "ad2eb58d2cf7bf91389c6f0183fedc9bf5834b252f617bd340b2b22890fe4357",
        "profile.data.npy": "97788080c2c6239ecef2a011ebdf4a978864ec158479a277ee94e83b7b4530a8",
        "profile.indices.npy": "a3caa0e506add18c4d503809919557b0ab84191cff7a966fcc818ded49b0a7d4",
        "profile.indptr.npy": "90ff1e6701181beb5ff15c21c6cc52c3b6c9777f70df2b05cdbf5306bbbf0110",
        "profile.meta.json": "8e59ba063563d62fdffdfeeff1f306360ed0ff0d365c3128713a112b24450b62",
    },
    ("wide-rank", 905): {
        "domain_stats.txt": "a08cbccd854996014bcce8926689d93d44a1ea2a57e6cc2f8c861ff5f0960199",
        "profile.data.npy": "480666e09a8d4d8bca90b318c656dfd9b11c921a0db488a827be2cd1424f1564",
        "profile.indices.npy": "d4ef0194b6277c15aae13bdc0c5c5d3096281b047ccdec13bbc0be34c01b42cd",
        "profile.indptr.npy": "0d4f6a82fcb5f4eae69adb784a505b48b2eb0f602ff9284f9c84c8ef26c9a155",
        "profile.meta.json": "fd9d89086dfcd7a0601874d42661d53a8ab7d03f63917d44c727bb69a0fe8db0",
    },
}


@pytest.mark.parametrize(
    "workload, seed, sessions_sha, truth_sha",
    [
        ("campus-logs", 7, "518b0242ce8e250095689532163c02190da1a4f50a93e105a8a6c39b3ebea63a",
         "66a9f74d319a1182c0c25f4290d52aaddf782ecfe19751be705b152f114a330d"),
        ("campus-logs", 905, "2586cb78f4c0768d69876615b09bfcd31af9937531e839bcd6dc99b578004f21",
         "53a40561422cf1b101da8f3290817988841261a6693bcfaeaa6011f336ab8b3b"),
        ("wide-rank", 7, "29e90b3a03f858c4c93865bfe0ecba9492d692b1fe6ad06a5c3298c41e09ec21",
         "ae2f2adee8b6133e0c614467d63b5cb43778d787ad43e0f022d29f4641b45d23"),
        ("wide-rank", 905, "aa2e23d3520c069712512aa6b62be04080cfe0a5bd4c953d2250c0af86b06041",
         "3b744e39054a7d740e7d59712aa7e7f9f7f26100429785b60abf6e5136879e77"),
    ],
)
def test_smoke_spec_outputs_pinned(tmp_path, workload, seed, sessions_sha, truth_sha):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SMOKE_SPECS[workload], "seed": seed}))
    out = tmp_path / "synth"
    assert cli.main(["synth", "--spec", str(spec), "--out-dir", str(out)]) == 0
    assert hashlib.sha256((out / "sessions.csv").read_bytes()).hexdigest() == sessions_sha
    assert hashlib.sha256((out / "truth.csv").read_bytes()).hexdigest() == truth_sha
    ws = tmp_path / "ws"
    assert cli.main(["ingest", "--workspace", str(ws), "--sessions",
                     str(out / "sessions.csv")]) == 0
    digests = {name: hashlib.sha256((ws / name).read_bytes()).hexdigest()
               for name in INGEST_SHA[workload, seed]}
    assert digests == INGEST_SHA[workload, seed]


class TestAdjustedRandIndex:
    def test_identical(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_relabeling_invariant(self):
        assert adjusted_rand_index([0, 0, 1, 2], [5, 5, 9, 7]) == 1.0

    def test_matches_pair_counting_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            a = rng.integers(0, 3, size=n).tolist()
            b = rng.integers(0, 3, size=n).tolist()
            assert adjusted_rand_index(a, b) == pytest.approx(
                ari_pair_counting(a, b), abs=1e-12
            )

    def test_symmetry(self, rng):
        a = rng.integers(0, 4, size=12).tolist()
        b = rng.integers(0, 4, size=12).tolist()
        assert adjusted_rand_index(a, b) == pytest.approx(
            adjusted_rand_index(b, a), abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0], [0, 1])


class TestPurity:
    def test_perfect(self):
        assert purity([0, 0, 1], [5, 5, 7]) == 1.0

    def test_single_cluster_two_classes(self):
        assert purity([0, 0, 0, 0], [0, 0, 1, 1]) == 0.5

    def test_singletons(self):
        assert purity([0, 1, 2], [0, 0, 0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            purity([0], [0, 1])
