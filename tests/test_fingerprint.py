"""Golden fingerprint: sha256s of the CLI CSVs of the criterion-10 configs.

The hashes pin the draw order and the arithmetic of every estimator the CLI
runs.  They change only with a change whose stated purpose is a new draw
order; any other change that moves one has altered a result.
"""

import hashlib
import json

import pytest

from contactenv import cli
from test_acceptance import DETERMINISM_CONFIGS

GOLDEN = {
    "c1": "d03ed15edb7e3e224343b06df8b05f8b28f3f883e328637722d5313133ab1be2",
    "survival": "d961d0b070b1e588f5f2ecd403e2b1bc65f39ed5a07159a8ebca5fd45861bd69",
    "percolation": "a623eda02c26583eebfc9ca37ef9743e5b6e6739627d5a5a76ff88c69a08aeb8",
    "phase-scan": "1ddb5c3972ebefa2353a31192deb280ac0887ab51d586ba1c55d42d8b0ace302",
    "bounds": "c1dd253c70080a319696dbbda8a5cd93f9441878098038bb6e533c11dbd647f9",
    "blocks": "1a0426694cf5afe0280e2578cd2ae17fd16d0d5577383ed776ae2d19d87d9e02",
    "duality": "41174ae7baac5c9e4cd826ab3547a9d41ff6f43ea33f52471199bc375cb7c327",
    "critical": "5b8bcc8161b47166bfbbaaf4fc118d128065121dfd5ac7e6cbf6387c13a63c4b",
}

# the survival config at 130 replicas, more than one 64-replica chunk
SURVIVAL_130 = "34be4da711022bf7e7a589db6ddf9c5a05a86d1f489b1115598adde3d00a0dde"


def _csv_sha(doc, out_dir):
    cfg = cli.parse_config(json.dumps(doc))
    cfg.out_dir = str(out_dir)
    assert cli.run(cfg) == cli.EXIT_OK
    return hashlib.sha256((out_dir / f"{cfg.label()}.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("doc", DETERMINISM_CONFIGS, ids=lambda doc: doc["subcommand"])
def test_criterion_10_csvs_match_their_golden_hashes(doc, tmp_path):
    assert _csv_sha(doc, tmp_path) == GOLDEN[doc["subcommand"]]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_survival_csv_does_not_depend_on_threads(threads, tmp_path):
    doc = next(doc for doc in DETERMINISM_CONFIGS if doc["subcommand"] == "survival")
    doc = dict(doc, reps=130, threads=threads)
    assert _csv_sha(doc, tmp_path) == SURVIVAL_130
