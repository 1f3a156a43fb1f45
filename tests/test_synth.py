import collections
import contextlib
import ctypes
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from usertopics import _kernels, cli
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

from helpers import CLUSTER_OUTPUTS
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


def _openblas_core() -> str | None:
    """The core name numpy's OpenBLAS runs its kernels for (as `_kernels` finds
    that library), or None where it is not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        except OSError:
            continue
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


# LAPACK, BLAS and numpy's SIMD loops may round differently on another CPU or
# numpy, so the pinned cluster and sweep-k outputs are keyed by both
HOST_KEY = (_openblas_core(), np.__version__)

# demographics and transactions for the pinned campus-logs seed-7 cluster run:
# every fourth user has no birth year, and some users no transactions
SIDE_TEXTS = {
    "demographics": "user_id,gender,birth_year,enrol_year,degree_type\n" + "".join(
        f"u{i:05d},{('male', 'female', 'unknown')[i % 3]},{1985 + i % 13 if i % 4 else ''},,\n"
        for i in range(120)),
    "transactions": "user_id,timestamp,amount\n" + "".join(
        f"u{i * 7 % 110:05d},2014-09-{1 + i % 28:02d}T12:00:00Z,{i * 37 % 1000 / 8}\n"
        for i in range(300)),
}

# sha256 of what `cluster -M 8 -K 4` and `sweep-k -M 8 --k-max 6` write on the
# smoke corpora, manifests aside, and of the JSON of [results.inertia,
# results.kmeans_runs] of each manifest
PIPELINE_SHA = {
    ("SkylakeX", "2.4.6"): {
        ("campus-logs", 7): {
            "assignments.csv": "de68049067fff99950beb8285cbc23ae25a6129b32717240bda2476dc56d3a34",
            "centroids.txt": "d13c0d308b20accf02ec705a358603ec32c6e25654e89d50acbc708d079dba37",
            "cluster results": "59758bec87115a2ae151d1ec2858e823318d2c7e9a972d1e045db872c7be66be",
            "feature.data.npy": "f335f94c6c9eea08db755584877d1c7d1d2e54d1beaa6cbcf2fb4fedb82fcfdb",
            "feature.indices.npy": "33c6e0d3ff471fc4a7caf98e1526c02ef247db6139a8c7231f72f16dbb091207",
            "feature.indptr.npy": "392273097b77a9ee0473c575f014eeb7ed0efea24790b4098db17b7ac40ece36",
            "feature.meta.json": "915b345dfef7320c27be1c22c6a8e85bfbb7b404e1bbdf885c0109e749c373c3",
            "lsa.U.npy": "7dbaa71a88d63b56af701b75ad85235702ca0883c3d28cd9251e0c27935968c2",
            "lsa.V.npy": "a124e8ba55b36fa587d85721d099b0095dcb92698aa35d3d013ac1ed3ee28369",
            "lsa.sigma.npy": "f2f83ec6da324e3959f073f2176c111aa62a3e8c28106f820707a8f4078df112",
            "report_birth_years.txt": "d69f75494059e689034c49a3839cb6f3dd757a800255da84e9815506b97206e9",
            "report_gender.txt": "cd4da39c10f0577812e73074a567cb8d4e456d12e2a7eb5aa44d6fd21fc309cb",
            "report_spend.txt": "2fffc807a0b99e41b1e64087ed625b13681217bb7ea90a628c026deb4b9319da",
            "report_topics.txt": "19b95867063332802bdd53112ee3de538ee708aea6a970ce7db445c77b5dd206",
            "summary.json": "e7d4e3a7afd6d5061ab8215953f53655283870bd5d126a4c42f8eef393055325",
            "sweep-k results": "ab1acb38e2faffccc88c35cb349c09ff8835c264155e33f9546c4192d7470a08",
            "sweep_k.txt": "b87f1db361c6aab6db6ea99a2a728029b5e47fa6c92aed9ea5e8bc120f7e33c4",
        },
        ("campus-logs", 905): {
            "assignments.csv": "6308ab621c412ae9b11f6b4ae15a448bdbc5b07c2debcebde88421a3f646b635",
            "centroids.txt": "3fb3562fa5d4e83eba874e09216da4392358c3b6c97542efd45ebc5e830edb45",
            "cluster results": "33e0056efb0236bb0023abdad32774886686927d001cd655f5ff5435f3d387cb",
            "feature.data.npy": "571f5d8eb0b0d9522b9371eeb2ea959524b542cd2590d1115b5dfc3b1667353b",
            "feature.indices.npy": "dea333ed329c219960a0dd4061f59e6c7ee4bef246c22701acbaa5edac1af5b9",
            "feature.indptr.npy": "6e7e39820165203251c5ab7600c5a072a4a36aadb5a5189efed158f039861426",
            "feature.meta.json": "4f64b4ac73d35f665dec849c496889bae79bd3cc3567490e89f5161f00f1210b",
            "lsa.U.npy": "0982a555a111e7417bd4d97afa39be82499c4e3123a6ca8f13c5b604ca09bff6",
            "lsa.V.npy": "4bab42836ff82e129a09da1a76ce1762fb41c7e5fe4b1a2f1f1cb816973a6d07",
            "lsa.sigma.npy": "1f09b7e4f918307f4a80576e4a7c5c9f6424569bc1fe53fdd2266529ee50be0c",
            "report_birth_years.txt": "fc316c9a6d8516ce8da936905ef5653796497f120370ab4cc8fb8ae7246b7372",
            "report_gender.txt": "bc297adc0bb643b4045d06267f2982c896d4d8df8a1ab927f2e93504e59446fe",
            "report_spend.txt": "09649288dfaaea0dd1f37abf3f6c1009d2215bed78247ae66e5a0eac620d9ca5",
            "report_topics.txt": "87d095756b868d6e6d1a8f108fc1f7399c20184aba078a8c35b7f8494eeb7544",
            "summary.json": "24656b43e61b9b99cd9ea68bd61b5e4bd159756670cba8c3387c8f31515a3859",
            "sweep-k results": "7f4451791b3bbc0c158bd7dba95aaae18fa5fa3a1c822aa221c055407c5d2c26",
            "sweep_k.txt": "57baebb9a574e95ed30e015980b058870191b9324c170cd1286c7b7e27317019",
        },
        ("wide-rank", 7): {
            "assignments.csv": "efc80d9da08d678fc59cbfa4d51ae10a81a7c1859369f078e4b34405d2704042",
            "centroids.txt": "2f9cc621f91981b28e41615b4c53f591e29340811065f99baa9617b365eb0c77",
            "cluster results": "b22534dcc0a59dc8626cab1f94fe853bcde8b223532829d4e5068d90713e3f9d",
            "feature.data.npy": "b9c989cc6ef7fd30a9082550bd8d53545f31d973818317f7b7b0789e8da9c912",
            "feature.indices.npy": "a3caa0e506add18c4d503809919557b0ab84191cff7a966fcc818ded49b0a7d4",
            "feature.indptr.npy": "90ff1e6701181beb5ff15c21c6cc52c3b6c9777f70df2b05cdbf5306bbbf0110",
            "feature.meta.json": "d0d362a33dd2a1f7604f94845579aa06e4e4b67ee21df3fe6cc43fe273a82181",
            "lsa.U.npy": "bc78b4fdbbbe7335d8c9b12008f7fa6a926078f3453670ee2fbc99aca1264a40",
            "lsa.V.npy": "c2d0b665705bbf599f6948686f33525e8a8756c1cb63405c405e8f5d50365006",
            "lsa.sigma.npy": "6ae5aec78745506ba098e5de1e42779c2e436a3a61d5b5153b9100cf10b98f00",
            "report_birth_years.txt": "fc316c9a6d8516ce8da936905ef5653796497f120370ab4cc8fb8ae7246b7372",
            "report_gender.txt": "82c7c983906c1fd47103597b35dc0d3f249658621e228b7cae7be7694f1e8666",
            "report_spend.txt": "af29bb95ac094da7eb77bc1ecd290c05f9bf48ba3462004bb5adf4776b115949",
            "report_topics.txt": "813f6ff86c57afb07edae25464ec5d7765fb38647999d69872d1b8ec44dfadfe",
            "summary.json": "854aba8ea0b5a35b71467536fcf59682bf8d807818d4b1ece0528e2d99817475",
            "sweep-k results": "f6724c5bb5b64921831ae319e497d07812a3f593d8c21ba015c17e0a3d2e7b19",
            "sweep_k.txt": "9d786ec9c76c6d5979792187ef79fcfd334e16a00ccb8ac72cbc3f70a0299992",
        },
        ("wide-rank", 905): {
            "assignments.csv": "b4da8c85ee6f2f1454d0b2530939662dbba672061187937deb052e368efd6a77",
            "centroids.txt": "ed91a79ce9a23df1fd6001ac1b5f02eabd04e0378962154cc05b02efe3f004e8",
            "cluster results": "bafd5f8583dd2ab3a17731c8cb114f8814d0d52134c25c9f161b10394f7c62f9",
            "feature.data.npy": "dda69f4a4943d41053701d7a42952973e9a5aee96f390388b5d3d1a9e47e7580",
            "feature.indices.npy": "d4ef0194b6277c15aae13bdc0c5c5d3096281b047ccdec13bbc0be34c01b42cd",
            "feature.indptr.npy": "0d4f6a82fcb5f4eae69adb784a505b48b2eb0f602ff9284f9c84c8ef26c9a155",
            "feature.meta.json": "4ff8a9b17dae6e08df33b4a8dd06bb63c3d79a1a354e2b7095ed8abf2d6025b0",
            "lsa.U.npy": "c16b1079429fbf1b58b1aa05449a7d2d174de563a27e6b716eea57ac4064976a",
            "lsa.V.npy": "d973a664850038999ff0bb867df98471f6c8ea707a72730b697209efb6b799b6",
            "lsa.sigma.npy": "faaf2a5cb1eccb6b67091ceca8e85dabec52812e2d4edef2ab2e469a99ea8f9a",
            "report_birth_years.txt": "fc316c9a6d8516ce8da936905ef5653796497f120370ab4cc8fb8ae7246b7372",
            "report_gender.txt": "3c6bda918c816a19255a3046eb3cd48c47c5dc287025d77efd39de9f891e4972",
            "report_spend.txt": "7081973907526ee87a658be0c2576fe8f6b4748a318ee7aea4a1c47833c9e30f",
            "report_topics.txt": "0b33a365465c29be21bad41bd4fc4ce3691e24c043aea092a97b49b743d09267",
            "summary.json": "bc0704d1613f28b623bbdadcfa95b5f68fd23a7020d07fb262b167059debeee3",
            "sweep-k results": "97d17d3ec9f5377912ec5a0e8a35936a95d9bfd1f37474b109e815c50f0e2392",
            "sweep_k.txt": "b0a3f07996166428477b242176f1f1d63789ab631bdbc68abb3db4bec3203d9d",
        },
    },
}


@contextlib.contextmanager
def _blas_threads(n: int):
    """Run the body with numpy's OpenBLAS on ``n`` threads, where it is found."""
    functions = _kernels._openblas_threads()
    if functions is None:
        yield
        return
    get, set_ = functions
    previous = get()
    set_(n)
    try:
        yield
    finally:
        set_(previous)


def _pipeline_digests(ws: Path, out: Path, side_args: list[str]) -> dict[str, str]:
    cluster_dir, sweep_dir = out / "cluster", out / "sweep-k"
    assert cli.main(["cluster", "--workspace", str(ws), "--out-dir", str(cluster_dir),
                     "-M", "8", "-K", "4", *side_args]) == 0
    assert cli.main(["sweep-k", "--workspace", str(ws), "--out-dir", str(sweep_dir),
                     "-M", "8", "--k-max", "6"]) == 0
    paths = [cluster_dir / name for name in CLUSTER_OUTPUTS] + [sweep_dir / "sweep_k.txt"]
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}
    for path in (cluster_dir, sweep_dir):
        results = json.loads((path / "manifest.json").read_text())["results"]
        runs = json.dumps([results["inertia"], results["kmeans_runs"]]).encode()
        digests[f"{path.name} results"] = hashlib.sha256(runs).hexdigest()
    return digests


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
def test_smoke_spec_outputs_pinned(tmp_path, capsys, workload, seed, sessions_sha, truth_sha):
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
    side_args = []
    if (workload, seed) == ("campus-logs", 7):
        for name, text in SIDE_TEXTS.items():
            (tmp_path / f"{name}.csv").write_text(text)
            side_args += [f"--{name}", str(tmp_path / f"{name}.csv")]
    with _blas_threads(1):
        digests = _pipeline_digests(ws, tmp_path / "threads_1", side_args)
    if HOST_KEY in PIPELINE_SHA:
        assert digests == PIPELINE_SHA[HOST_KEY][workload, seed]
        return
    with _blas_threads(2):
        assert _pipeline_digests(ws, tmp_path / "threads_2", side_args) == digests
    with capsys.disabled():
        print(f"\n{workload} seed {seed}: no pinned cluster and sweep-k digests for OpenBLAS "
              f"core {HOST_KEY[0]} and numpy {HOST_KEY[1]}; the pin was not checked, only "
              "1 against 2 BLAS threads")


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
