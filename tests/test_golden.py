"""Golden output: the bytes `refclass run` writes on a small fixed corpus.

The corpus uses the report-heavy benchmark's generator params at 300
papers, seed 11; the run produces all 12 variants and compares them with
the planted labels of every paper.  Any change to a classification table,
its sidecar or a report table changes a digest below; update them only
together with an explanation of which bytes moved and why.
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


def test_run_outputs_match_golden_digests(tmp_path):
    corpus = generate(SynthParams(n_papers=300, n_categories=16, seed=11,
                                  journal_noise=0.1, misc_fraction=0.1,
                                  multidisciplinary_fraction=0.05))
    data = tmp_path / "data"
    corpus.write(data)
    planted = data / "planted.csv"
    with open(planted, "w", encoding="utf-8", newline="") as fh:
        fh.write("paper_id,category_code,weight\n")
        for pid, code in sorted(corpus.labels.items()):
            fh.write(f"{pid},{code},1.0\n")
    out = tmp_path / "out"
    assert main(["run", "--dir", str(data), "--out", str(out),
                 "--compare", f"planted={planted}"]) == 0
    digests = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.rglob("*"))
               if p.is_file() and p.name != "run.log"}
    assert digests == GOLDEN
