"""Golden output: the bytes `refclass run` writes on two small fixed corpora.

Both runs produce all 12 variants and compare them with the planted labels
of every paper.  The first corpus uses the report-heavy benchmark's
generator params at 300 papers, seed 11; there every JL paper prunes to one
category, so its six JL tables are identical.  The second uses the
dense-converge benchmark's params and flags at 300 papers, seed 11, where
all six JL tables differ, so it pins the F/NF and threshold paths of the JL
phase too.  Any change to a classification table, its sidecar or a report
table changes a digest below; update them only together with an
explanation of which bytes moved and why.
"""

from __future__ import annotations

import hashlib

from refclass.cli import main
from refclass.synth import SynthParams, generate

GOLDEN = {
    "JL-F-0.5.csv":
        "9c9421c72d365f28e235e1a3067c56161f3a4a4fbb397e3a8fe3651d507c1385",
    "JL-F-0.5.csv.meta.json":
        "9db6facec6f265fd1d01a8b074aa7e67b3823ca0a4e99dffe8a7b95bb51a66a3",
    "JL-F-0.67.csv":
        "9c9421c72d365f28e235e1a3067c56161f3a4a4fbb397e3a8fe3651d507c1385",
    "JL-F-0.67.csv.meta.json":
        "c8a7822e86c2bd23cab6d1ebfda094e10d2aed0373815bcec6683816e6de0822",
    "JL-F-0.8.csv":
        "9c9421c72d365f28e235e1a3067c56161f3a4a4fbb397e3a8fe3651d507c1385",
    "JL-F-0.8.csv.meta.json":
        "9f320725076df55767d780ae9a06a27ce5a3576f415a26795d97d63524a764b9",
    "JL-NF-0.5.csv":
        "9c9421c72d365f28e235e1a3067c56161f3a4a4fbb397e3a8fe3651d507c1385",
    "JL-NF-0.5.csv.meta.json":
        "96902a6e55da1f5a7b1e5669ff9b8e80f81f288361d26a11f7a3e054bfdbf635",
    "JL-NF-0.67.csv":
        "9c9421c72d365f28e235e1a3067c56161f3a4a4fbb397e3a8fe3651d507c1385",
    "JL-NF-0.67.csv.meta.json":
        "54dc7a4c293707d1c926652a93f9a0297e54890b08679a0cd534aa1692d5fdef",
    "JL-NF-0.8.csv":
        "9c9421c72d365f28e235e1a3067c56161f3a4a4fbb397e3a8fe3651d507c1385",
    "JL-NF-0.8.csv.meta.json":
        "dae99625f8e3a2b33d7eff332675ebf47a70d026bcfa7f5c336f64742555b2ff",
    "U1-F-0.5.csv":
        "9a168d9088e432ece06c98370371de09ac35244a3300ecfc013b77acfcabd2fa",
    "U1-F-0.5.csv.meta.json":
        "83e7b4019d62c7def7bccb1212dcb202c63de3b574eced60a8061af856e6f215",
    "U1-F-0.67.csv":
        "e10437364e7fda8a58ee5d5d6171d84f05166b52683adc6e36ebdd3b4d8305e4",
    "U1-F-0.67.csv.meta.json":
        "ab13f386413faa28909821a66759f189484ff112ac99a4a88a187c7c8cba4000",
    "U1-F-0.8.csv":
        "e10437364e7fda8a58ee5d5d6171d84f05166b52683adc6e36ebdd3b4d8305e4",
    "U1-F-0.8.csv.meta.json":
        "43d6e2f25eb08e8cb94896f8347cc773577b07f0ee9542bd9bdd98d94736a3ca",
    "U1-NF-0.5.csv":
        "1dfe8059e84e15c6a785b103e69a7c7b2a20171717ae74060a014f5e86891a6c",
    "U1-NF-0.5.csv.meta.json":
        "0d13b0cd3d7d6408f993881e9ad0f8eee4893bf11c8b5886fc8efcea47c68f4c",
    "U1-NF-0.67.csv":
        "cb39a9360e4f6a4151b605e3c810ff4e6893791593e5469ff7641fd7cc012c81",
    "U1-NF-0.67.csv.meta.json":
        "05ae0aeefef8acf90857e5fb8b93c5bb1baf5aa95028b256a62d608b5cc3abec",
    "U1-NF-0.8.csv":
        "e10437364e7fda8a58ee5d5d6171d84f05166b52683adc6e36ebdd3b4d8305e4",
    "U1-NF-0.8.csv.meta.json":
        "a7f5cfe5c06f7c915b2f491683cdd9a6a4ce2dd10b9a19b39b65fe77ad447e3f",
    "report/acv.csv":
        "855669c2e2bd28462fe45e83fd83e3042b8461fe7315b99860f8e5d50932e81a",
    "report/areas.csv":
        "329b3a0960edddd98f281e13ba9a19ec597b72cbfe32bb9de62bdb58af5bc314",
    "report/flow_initial_to_JL-F-0.5.csv":
        "7da897ccec50eeb3e1301114b24f2a3a15bba292ecc35794cdec4c4e4fe826ae",
    "report/flow_initial_to_JL-F-0.67.csv":
        "7da897ccec50eeb3e1301114b24f2a3a15bba292ecc35794cdec4c4e4fe826ae",
    "report/flow_initial_to_JL-F-0.8.csv":
        "7da897ccec50eeb3e1301114b24f2a3a15bba292ecc35794cdec4c4e4fe826ae",
    "report/flow_initial_to_JL-NF-0.5.csv":
        "7da897ccec50eeb3e1301114b24f2a3a15bba292ecc35794cdec4c4e4fe826ae",
    "report/flow_initial_to_JL-NF-0.67.csv":
        "7da897ccec50eeb3e1301114b24f2a3a15bba292ecc35794cdec4c4e4fe826ae",
    "report/flow_initial_to_JL-NF-0.8.csv":
        "7da897ccec50eeb3e1301114b24f2a3a15bba292ecc35794cdec4c4e4fe826ae",
    "report/flow_initial_to_U1-F-0.5.csv":
        "1c5fd8e3fdadc44846ba1ba71c129c4ad078a9cfd28f33ef65f7c039d1770a33",
    "report/flow_initial_to_U1-F-0.67.csv":
        "228fa90cda7f3ef11691d8191e2558d34607aa6d0e4034319277b3aeb0bf897d",
    "report/flow_initial_to_U1-F-0.8.csv":
        "228fa90cda7f3ef11691d8191e2558d34607aa6d0e4034319277b3aeb0bf897d",
    "report/flow_initial_to_U1-NF-0.5.csv":
        "aff6eaf81aaca45a6743caf9a280b30b3ee0c034e06af74b328bfffb8d0e86b3",
    "report/flow_initial_to_U1-NF-0.67.csv":
        "95291bdf027e3b3c3b04f6c630e82492eccd7e122597946d840dc85da78698f6",
    "report/flow_initial_to_U1-NF-0.8.csv":
        "228fa90cda7f3ef11691d8191e2558d34607aa6d0e4034319277b3aeb0bf897d",
    "report/flow_initial_to_planted.csv":
        "228fa90cda7f3ef11691d8191e2558d34607aa6d0e4034319277b3aeb0bf897d",
    "report/metadata.json":
        "795c6e5e92a864dc4662dc26974a7a4925b45ea84b2c317ba3de23a8b46364c0",
    "report/pairwise.csv":
        "c52ca76c02f1d9a543d921c984cc49a4a4fc3c4a33326287ea398f484118773b",
    "report/retention.csv":
        "530d1cfcd2c0f965fa1fad6d879f2e04038359999123e88f9354bfb75a87b353",
    "report/structure.csv":
        "a22a98ee3dcc6a0b9f7f6ee56366c3b0e291a1b230ac266acfd7a7fa5d76b5f5",
}

GOLDEN_DENSE = {
    "JL-F-0.5.csv":
        "30c56b6378252fe17fbf9eca194025cd6185b4d0776490f83b96dd98900c6285",
    "JL-F-0.5.csv.meta.json":
        "a29e2f82fbac54ec45d7162350049eebe97ec3568c5d0737ea4588f04eb3d29f",
    "JL-F-0.67.csv":
        "2473cae66277e90ef204f79156b14ea5216d7292cf90e9b1cb9703c3e245fce2",
    "JL-F-0.67.csv.meta.json":
        "26d4e556c2c0f8ced1fbe7ea7e1ccaeeab1b55fd8a73b4d4b6cac73edbfd995a",
    "JL-F-0.8.csv":
        "b32f063fee02c8a4252975c87d51140cfc0ad85dabe976fd31f9f2cefd38e2bf",
    "JL-F-0.8.csv.meta.json":
        "a69510ab0f0df51bd4d3a63ee4e77b99cab49f35b8f46258d2130217c97e276e",
    "JL-NF-0.5.csv":
        "6886702f6afe09857db5b3578bebcb5706082cea023b9af0044c62b608319957",
    "JL-NF-0.5.csv.meta.json":
        "a4cdff23be47da1a7ca73285b7e7cdcece4a53daa205579098ab7e36d733c05d",
    "JL-NF-0.67.csv":
        "302498fc22571ad061e637ae6072d280a49de63113b0e26791cc1da8def01a00",
    "JL-NF-0.67.csv.meta.json":
        "9d147165632b50ec4ea23fffa9be6c0dfa58eaa8a49868af0fed75c9c26b2df6",
    "JL-NF-0.8.csv":
        "ab5fbcf6cc3fbaf8fe87960e72dc4400fc64c2dd4253aee9b6698009c85087d7",
    "JL-NF-0.8.csv.meta.json":
        "bc4175bfa79836779cab047e6d5671437e7031a586545b5dea7fc734ef9fe88f",
    "U1-F-0.5.csv":
        "2446622b10c4277170399fec2ec2f27a2b3f69ab200ecf25efc06805edcb5101",
    "U1-F-0.5.csv.meta.json":
        "d0e7ae4710b28f39096634c72dfc57775ac857d4c275bfd0b4f4cc4569b329bb",
    "U1-F-0.67.csv":
        "93becbab578ca1d3ed02ace93c11e32b36ba977c4c5d9792ac4b685834d284e6",
    "U1-F-0.67.csv.meta.json":
        "93bbbb53f8ccc12d6c3fb44ce0b6187a80c435ff68df4c48df92869a2be64928",
    "U1-F-0.8.csv":
        "f56ddaf5c0646f5cccba98f71a8affabb47a5240baad3a1a59b49ac5b4229073",
    "U1-F-0.8.csv.meta.json":
        "8ddfab0334a11e6e922c8735d92269c90957875258521d9b19556cd65b4fa714",
    "U1-NF-0.5.csv":
        "bb198e0ce05765d5ebd7bd10ad165ad577a790826d425bb4fd1ebd9e6c993b6e",
    "U1-NF-0.5.csv.meta.json":
        "4543efeb63d5211211d2afb8b181c45de1df86c5e175602008434335f85b04eb",
    "U1-NF-0.67.csv":
        "600f9bf2710ec9cc31fd50f7ced3dded0d5b9d26ce73339ef366870ca9699b4c",
    "U1-NF-0.67.csv.meta.json":
        "1c7f4408a1e7094c62dc4aa0265a364d9d86ee04ab4bb28d7c4a6fce0d8e78bc",
    "U1-NF-0.8.csv":
        "bab9081c405038754d3481824d4f93892c2994464aee86333cbe4957bee581b9",
    "U1-NF-0.8.csv.meta.json":
        "e82c4c4ad256ce49a4863aae3424378dbb920c70416ccb389bb7f766dc9847bb",
    "report/acv.csv":
        "0041a5c0bf41424c33a7c12565e96d955c745fdce13c566973fb984f706a1e3b",
    "report/areas.csv":
        "b97ed8a5561918d23f5a78f9d65905593b4d17330ce79831d7dc93b80c84d707",
    "report/flow_initial_to_JL-F-0.5.csv":
        "27f9ab7a84839d5bfa52b2d74efa3326dd821efff9f8d7d699c2dc331e204331",
    "report/flow_initial_to_JL-F-0.67.csv":
        "4278754f474f8be9041c6f5a17a7eec70f532891ba58a67193689280d74e9308",
    "report/flow_initial_to_JL-F-0.8.csv":
        "9470d58a435806f568a994a77836f00e2a1938e899fcaed9fa8f40c5409f98d9",
    "report/flow_initial_to_JL-NF-0.5.csv":
        "9222fd339d5b1cd7222dbca801a5b5938a372f3525789724919c7fc3ecabedf9",
    "report/flow_initial_to_JL-NF-0.67.csv":
        "920c52a3ed244ec7ceedd978aa7087fdff6b053d030ba5c73bdaef4033514207",
    "report/flow_initial_to_JL-NF-0.8.csv":
        "8906ee81a88837e62665b8172cf738bd3a5ffa47eb5330e5b6d9c2b0d3917ce5",
    "report/flow_initial_to_U1-F-0.5.csv":
        "0baad779f9af7513ccf38cded5e8d73213ccc11c61d841575779ed1871d1cfc8",
    "report/flow_initial_to_U1-F-0.67.csv":
        "8893b149eb39418ced3e0360f8653ac29565c985226cb54cafc9c2e71f115b2f",
    "report/flow_initial_to_U1-F-0.8.csv":
        "7579228dfd00df322d284fd8bd6f46d1c7a47aac21c8da505606188e131f9d7f",
    "report/flow_initial_to_U1-NF-0.5.csv":
        "a998db35acd252ef7250df2b2bb5bcaaad640240af4815a9e3783611cad1a860",
    "report/flow_initial_to_U1-NF-0.67.csv":
        "8cf1761f800ec184bc14f427961a78d9a21aff4a94b0b3ea0dcd71097c8aee34",
    "report/flow_initial_to_U1-NF-0.8.csv":
        "0808bf8c74052a03002896384144df9f49ec5d25c6f7eb2f17b0dabe05e3d397",
    "report/flow_initial_to_planted.csv":
        "06d279cc4b8be373734e3b0d5713cecebcf6f61e5015738fa3a10cc8b3ae3259",
    "report/metadata.json":
        "795c6e5e92a864dc4662dc26974a7a4925b45ea84b2c317ba3de23a8b46364c0",
    "report/pairwise.csv":
        "d707795c18aa5ba0c65484ad3cb71ce9991303e7e99a17be2214df935d15576e",
    "report/retention.csv":
        "14d37f3ede02ad89f8ad30b6c3bc5db37aae156c9d8ccd15e3890e7881d2655d",
    "report/structure.csv":
        "f551c9264ad13f911c834dbaf0300d846c03f72ea0111082e51ea55cb147a28a",
}


def run_digests(tmp_path, params: SynthParams, *flags: str) -> dict[str, str]:
    corpus = generate(params)
    data = tmp_path / "data"
    corpus.write(data)
    planted = data / "planted.csv"
    with open(planted, "w", encoding="utf-8", newline="") as fh:
        fh.write("paper_id,category_code,weight\n")
        for pid, code in sorted(corpus.labels.items()):
            fh.write(f"{pid},{code},1.0\n")
    out = tmp_path / "out"
    assert main(["run", "--dir", str(data), "--out", str(out), *flags,
                 "--compare", f"planted={planted}"]) == 0
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run.log"}


def test_run_outputs_match_golden_digests(tmp_path):
    params = SynthParams(n_papers=300, n_categories=16, seed=11, journal_noise=0.1,
                         misc_fraction=0.1, multidisciplinary_fraction=0.05)
    assert run_digests(tmp_path, params) == GOLDEN


def test_dense_corpus_outputs_match_golden_digests(tmp_path):
    params = SynthParams(n_papers=300, n_categories=285, n_areas=26, seed=11,
                         journal_noise=0.3, ref_noise=0.3, misc_fraction=0.1,
                         multidisciplinary_fraction=0.2)
    digests = run_digests(tmp_path, params, "--threshold", "1e-12",
                          "--max-iterations", "30")
    assert digests == GOLDEN_DENSE
