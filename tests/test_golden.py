"""Golden artefacts: the README's commands emit byte-identical files.

Each command below is copied from the README, or is the README's attack at
n = 8 and n = 16 over 40 rounds, where decision-oracle probes revisit many
configurations, or is the attack at n = 5 over 100 rounds and at n = 7 over
60 rounds, odd sizes whose witnesses repeat modulo the period 2n only after
a stem of n + 2 rounds, so that most of each trace is the replayed loop,
or is the restricted attack at n = 5 and n = 8, whose
progressive delivery chain starts at c_2, or is one of two negative controls
whose violation traces the checker records: a fuzz run and the exhaustive
fail-to-receive check, or is the nested ``fts-over-ftr-over-flp`` stack,
whose audit is the synchronizer's projection alone, or is a seeded random
adversary under ``run``: fail-to-receive, and restricted fail-to-send,
whose draw is redone whenever it would silence its sender completely.  The README's flp
``run`` and every ``simulate`` command also pin their stderr summary, which
carries the fairness or faithfulness audit's findings.  Each runs in-process
with ``$ADVERSIM_OUTDIR`` pointing at a fresh directory, so commands that
name no output path write to their documented defaults there.  The sha256 of
every trace and report is compared with a constant recorded from the code
before the simulation wrappers stopped encoding their payloads (the attacks at
n = 8 and n = 16: before oracle probes were memoized; the attacks at n = 5
and n = 7: before the attack replayed its loop; the flp run: before the
asynchronous engine kept one queue per destination; the two negative
controls: before the checker re-ran a violation's faults to record its
trace; the three fts/ftr ``run`` commands: before adversaries became plain
fault sequences; the restricted attacks: before the chain came from one fan-out
round; the nested stack and the ``simulate`` summaries: before the
simulation audits moved out of the command-line front end); a change to any of these digests is a change to the emitted
artefacts and has to be justified.
"""

import hashlib

import pytest

from adversim.cli import main

README_COMMANDS = {
    "attack": (
        0,
        ["attack", "--protocol", "phase-king-lite", "--n", "3", "--rounds", "30",
         "--out", "attack.jsonl", "--report", "witnesses.jsonl"],
    ),
    "attack-n8": (
        0,
        ["attack", "--protocol", "phase-king-lite", "--n", "8", "--rounds", "40",
         "--out", "attack.jsonl", "--report", "witnesses.jsonl"],
    ),
    "attack-n16": (
        0,
        ["attack", "--protocol", "phase-king-lite", "--n", "16", "--rounds", "40",
         "--out", "attack.jsonl", "--report", "witnesses.jsonl"],
    ),
    "attack-n5-100": (
        0,
        ["attack", "--protocol", "phase-king-lite", "--n", "5", "--rounds", "100",
         "--out", "attack.jsonl", "--report", "witnesses.jsonl"],
    ),
    "attack-n7-60": (
        0,
        ["attack", "--protocol", "phase-king-lite", "--n", "7", "--rounds", "60",
         "--out", "attack.jsonl", "--report", "witnesses.jsonl"],
    ),
    "attack-restricted-n5": (
        0,
        ["attack", "--restricted", "--protocol", "phase-king-lite", "--n", "5", "--rounds", "40",
         "--out", "attack.jsonl", "--report", "witnesses.jsonl"],
    ),
    "attack-restricted-n8": (
        0,
        ["attack", "--restricted", "--protocol", "phase-king-lite", "--n", "8", "--rounds", "40",
         "--out", "attack.jsonl", "--report", "witnesses.jsonl"],
    ),
    "check-naive-majority": (
        1,
        ["check", "--protocol", "naive-majority", "--n", "3", "--mode", "exhaustive",
         "--depth", "2"],
    ),
    "check-fuzz-naive-majority": (
        1,
        ["check", "--mode", "fuzz", "--protocol", "naive-majority", "--n", "4", "--runs", "50",
         "--seed", "3"],
    ),
    "check-ftr-phase-king-lite": (
        1,
        ["check", "--protocol", "phase-king-lite", "--n", "3", "--model", "ftr", "--depth", "3"],
    ),
    "run-fts-silent": (
        0,
        ["run", "--model", "fts", "--protocol", "phase-king-lite", "--n", "3", "--inputs", "1,0,0",
         "--adversary", "silent:1", "--horizon", "6", "--out", "run.jsonl"],
    ),
    "run-ftr-random": (
        0,
        ["run", "--model", "ftr", "--protocol", "phase-king-lite", "--n", "3", "--inputs", "1,0,0",
         "--adversary", "random", "--seed", "5", "--horizon", "12"],
    ),
    "run-fts-restricted-random": (
        0,
        ["run", "--model", "fts", "--restricted", "--protocol", "phase-king-lite", "--n", "4",
         "--inputs", "1,0,1,0", "--adversary", "random", "--seed", "5", "--horizon", "12"],
    ),
    "run-flp": (
        0,
        ["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite", "--n", "3",
         "--inputs", "1,0,1", "--scheduler", "random", "--seed", "4", "--horizon", "200",
         "--fairness-window", "12"],
    ),
    "simulate-fts-over-ftr": (
        0,
        ["simulate", "--stack", "fts-over-ftr", "--protocol", "phase-king-lite", "--n", "3",
         "--inputs", "1,0,0", "--adversary", "random", "--seed", "9", "--horizon", "30"],
    ),
    "simulate-ftr-over-flp": (
        0,
        ["simulate", "--stack", "ftr-over-flp", "--protocol", "phase-king-lite", "--n", "4",
         "--inputs", "1,0,1,0", "--scheduler", "random", "--seed", "2", "--crash", "2:40",
         "--horizon", "700"],
    ),
    "simulate-flp-over-ftr": (
        0,
        ["simulate", "--stack", "flp-over-ftr", "--protocol", "phase-king-lite", "--n", "3",
         "--inputs", "1,1,0", "--adversary", "silent:2", "--horizon", "50"],
    ),
    "simulate-fts-over-ftr-over-flp": (
        0,
        ["simulate", "--stack", "fts-over-ftr-over-flp", "--protocol", "phase-king-lite",
         "--n", "4", "--inputs", "1,0,1,0", "--scheduler", "random", "--seed", "2",
         "--crash", "1:30", "--horizon", "1500"],
    ),
}

GOLDEN_SHA256 = {
    "attack": {
        "attack.jsonl": "c133f1b502edc964031cbdceb4c846f1b434ac28a0a297e4b9ebae5d0051e983",
        "witnesses.jsonl": "f0fb598e6cd30e7fabf4aa9562dad0a90b83446c5790700c942f985eaa3bad78",
    },
    "attack-n8": {
        "attack.jsonl": "dc79baba8c840547bdddb97b0ed9a2a7c9885c567be398102c119f37bbff2cd3",
        "witnesses.jsonl": "6c36d92128cda607421fc74cc6aeb6ec1cbafc743399abdfc8d0265f95204fef",
    },
    "attack-n16": {
        "attack.jsonl": "434f0db29c460ba5363afae44bb27380d032064b608a30e881590557f00be6c8",
        "witnesses.jsonl": "64a23a49838974df9910a34be3a6b378139a3cf7dd9c68a3ec036e41fc401705",
    },
    "attack-n5-100": {
        "attack.jsonl": "aa5a662aad88c260d7a88bc01db8b992074d516fa51978c8cc697e205e89a98b",
        "witnesses.jsonl": "0aed39132c819cb6cd2e0675a1b29830c00c8b08b308399686bcbb11b0d1ffc1",
    },
    "attack-n7-60": {
        "attack.jsonl": "a915b7605098cca5b0357b4f83a62c861d2f91a1591ff72da10b4db0b7de2600",
        "witnesses.jsonl": "fb3370772b5e1594be1948dc8500beae4b7ebf6089a3da983e87accb6625ad4f",
    },
    "attack-restricted-n5": {
        "attack.jsonl": "987338eb51a9f0536e05069f764d1a77e4826ffcd966498e2b1510fdb8ddaa14",
        "witnesses.jsonl": "bf1460ac30364db0c1ca846917bfab80129d52b9f18779c7378dd53decee80e3",
    },
    "attack-restricted-n8": {
        "attack.jsonl": "af196a59f609a4db0e1ce4da0ee5bbabac8857ed8bd4f1a590fdb69870bb247f",
        "witnesses.jsonl": "6d4a254cf159d460d817f1024cd49838aeaf9e5ced9d69443973496a552f59a2",
    },
    "check-naive-majority": {
        "violation.trace.jsonl": "06bcbeb5d60d0b2a0da0532169d6f658228fc22233b9a9d3f51788ce135ed291",
        "violation.report.jsonl": "65728e46fc5bd26fadeea77b73f7719ed648d1e93d0400d6d5cf613483e612cb",
    },
    "check-fuzz-naive-majority": {
        "violation.trace.jsonl": "2908ea80e10bf844de648ccf074ef4334aa41ada51dbd5ce4eb0065e58c89877",
        "violation.report.jsonl": "008857cc3f2113dadd664b5741c73c34eeca8ab545f751ffaaed0c713cd75f9b",
    },
    "check-ftr-phase-king-lite": {
        "violation.trace.jsonl": "15c3212d0e4684550f0adc070c037e158e2d31277fb9d5ed50a1f266832048d2",
        "violation.report.jsonl": "401d919fd6f9235f80322314c9c12c2c7b8b7149a53e318a0fced26df2f80920",
    },
    "run-fts-silent": {
        "run.jsonl": "d15c65b8d9f396919136ed60808a2498cfcc4781d50d28f5a144fb4d57a2864a",
    },
    "run-ftr-random": {
        "run.trace.jsonl": "5eb5bc3940cb54beae7a040898b2f0020cbe8591681a2d936f871697e0762b8d",
    },
    "run-fts-restricted-random": {
        "run.trace.jsonl": "73b4a8a4ce202e8b749d8ec6cc7972b9d7b600a74c9238e586b1188cd82ac27c",
    },
    "run-flp": {
        "run.trace.jsonl": "d46657ff5908d471cfef7d04aed3c794faa6b8b0d2df9e82b503bb18dcdb118d",
    },
    "simulate-fts-over-ftr": {
        "simulate.trace.jsonl": "ce1eef3d028496f88d10f664400ce89b16941f74682bc74c1cf05959791ffde1",
        "simulate.report.jsonl": "17de4f8a61fc4355b8c718b8d48be9ab555f58b39311353bc0c9930c9f212a4d",
    },
    "simulate-ftr-over-flp": {
        "simulate.trace.jsonl": "15796b276008bd3ec0bb09d763f1580e6ea9cd25de3cf2fb2e124181474299f1",
        "simulate.report.jsonl": "090e58a3e78d35c03a489209d84fb72d1d94b40b1a168e070f1f3547e3deef89",
    },
    "simulate-flp-over-ftr": {
        "simulate.trace.jsonl": "a6a4627ed99b47d35ed73ecfaf13846c8ffa5359dfb58c22ba9d6c3688d9f952",
        "simulate.report.jsonl": "1f9190c4f9fcac9d8f6162d37aa54247571a2468fdd9a9201cd6d95f233e7bbe",
    },
    "simulate-fts-over-ftr-over-flp": {
        "simulate.trace.jsonl": "310cdf9b61764ade8f66b23ca95591bc8a79c6490a37c02ea2d8154600d977ac",
        "simulate.report.jsonl": "c760920f864d8a054af3fbf8d35c1f86d10747020bf14dd5dc84d6bbc4079620",
    },
}


# stderr lines other than the one naming the output path
GOLDEN_STDERR = {
    "run-flp": [
        "fairness: message 20 to process 1 undelivered after 12 steps",
        "fairness: message 92 to process 1 undelivered after 12 steps",
        "fairness: message 104 to process 1 undelivered after 12 steps",
        "fairness: message 170 to process 1 undelivered after 12 steps",
        "run: model=flp protocol=ftr-over-flp:phase-king-lite n=3 horizon=200 "
        "outputs={0: 0, 1: 0, 2: 0} fairness=VIOLATED",
    ],
    "simulate-fts-over-ftr": ["simulate: 10 simulated rounds, min core size 3"],
    "simulate-ftr-over-flp": ["simulate: crashed=2 min_round=112 projection_valid=True"],
    "simulate-flp-over-ftr": ["simulate: 150 simulated messages, 52 not fully delivered"],
    "simulate-fts-over-ftr-over-flp": ["simulate: crashed=1 min_round=246 projection_valid=True"],
}


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_artefacts_match_golden_digests(name, tmp_path, monkeypatch, capsys):
    expected_code, argv = README_COMMANDS[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ADVERSIM_OUTDIR", str(tmp_path))
    assert main(argv) == expected_code
    if name in GOLDEN_STDERR:
        lines = capsys.readouterr().err.splitlines()
        assert [ln for ln in lines if not ln.startswith("trace written")] == GOLDEN_STDERR[name]
    digests = {
        fname: hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
        for fname in GOLDEN_SHA256[name]
    }
    assert digests == GOLDEN_SHA256[name]
