"""The bytes of every ``classify`` and ``report`` artifact on a small
fixed-seed synthetic corpus with abstracts, pinned as SHA-256 digests.

The oracle and golden-value tests check what the tables mean; this test
checks that a refactor leaves every byte of them as it was. A change that
alters a table on purpose re-pins the digests it changes, and says why.
"""

import hashlib
import json

from selfcite.cli import main

CONFIG = {"n_authors": 40, "year_start": 2000, "year_end": 2014, "seed": 13}

# figS9_by_gender.csv is pinned with its empty discipline column, written
# by similarity_means(key="gender"). Whoever drops that column re-pins this
# digest too.
PINS = {
    "papers.jsonl": "1729959d16fce2367d51209b369288241b91036ba290271d7f022b419541a7d6",
    "authors.jsonl": "3b00770f4da63a5ce2be7eb34c1fc6db135bdcdb834c6a3dd26e6a7bd7334c7e",
    "classifications.tsv": "481bce94e2b3f6eed4d87e9769afd4ca7ca00654c01db36e421b0ebfd0e5a511",
    "edges.tsv": "ab5d231547661bda3bbc3c9866c3ff3bc77a5489fd7d48e710c392cee883a32d",
    "fig1_age_curves.csv": "4ec148edd9c81391fcd6ce9311f44d0dd985f7d2acdb68b70dafac1ed492aebe",
    "fig2_attribution_curve.csv":
        "e59f0945686dc78132403efd69c2db3de139543c4470aad6514eceb78a5eb246",
    "fig3a_distributions.csv": "9213d18cc6af3df7b8daace894fe5c6300a538bd5054d549478cf0359588c5f9",
    "fig3b_means.csv": "2d00dddad35cec09ba131283ee1633c355b0fa0cec73a0dc4aecba05dfd11212",
    "fig3c_by_age.csv": "862596fb3bdce1849ce17b142ac6e745f6c01f808a0cea4482e8c4ae7d15acdf",
    "fig3d_by_selfref.csv": "287b7f79a349fb18fe96b9238a893d5c780f188997ee84ba7133605ea23b2fcd",
    "figS10_individual.csv": "d430bbfb2e33a34b68e47ce099d247325e69a78a7c8517a7cea74357318156ad",
    "figS11_distributions.csv":
        "6710c16eee155c6fe4869e5839785af87a9368ab32e179470ae5a4ef7f779519",
    "figS2_S5_age_curves_by_production.csv":
        "ca2ac948d2bb16a224960bce454847f39062a32344e7dbc59156b217b5c221cb",
    "figS6_citation_age.csv": "31a96efc71e9e77475139d500378447235c3dade8a52f7cb9f2c783fd17f07e6",
    "figS7_strata.csv": "3f9dbee1f9fc9353c7cfdd62e4251d120adc29e212aeaba7aed35ec58f0817f1",
    "figS8_heatmap.csv": "1775b1c840e0f913e478333d4c7f17e7431aa629a338c1b371e4985b5065a12c",
    "figS9_by_gender.csv": "dff5fc93ee9e044c5919005a9b9864beddb29ac875e4ad1340fe89d114d8d44b",
    "inflation_weights.csv": "790658d07d4f7110e84b2d953f9093304a9a4962025f0678fcaa1ab92eaff955",
}


def test_classify_and_report_bytes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    corpus = tmp_path / "corpus"
    assert main(["synth", "--config", str(config), "--out", str(corpus)]) == 0
    out = tmp_path / "out"
    inputs = ["--papers", str(corpus / "papers.jsonl"),
              "--authors", str(corpus / "authors.jsonl"), "--out", str(out)]
    assert main(["classify", *inputs]) == 0
    assert main(["report", *inputs]) == 0
    # run_manifest.json records times and paths, so it is not pinned
    files = [corpus / "papers.jsonl", corpus / "authors.jsonl",
             *(p for p in out.iterdir() if p.name != "run_manifest.json")]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    assert digests == PINS
