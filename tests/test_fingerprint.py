"""Golden fingerprint: sha256s of the CLI CSVs of the criterion-10 configs,
and of every field of a fixed corpus of engine runs.

The hashes pin the draw order and the arithmetic of every estimator the CLI
runs, and of every engine entry point.  They change only with a change whose stated purpose is a new draw
order; any other change that moves one has altered a result.
"""

import hashlib
import json
import random

import pytest

from contactenv import (analysis, background_path, blocks, build_box, build_timeline,
                        cli, coupled_bounds_cpdp, coupled_region, decided_times,
                        delayed_variant, dual_evolve, engine, evolve, evolve_released,
                        evolve_truncated, make_spec, reference, reverse_view, richardson,
                        thin_view)
from contactenv.engine import (SUPPRESS_ARROWS, SUPPRESS_RECOVERIES_AND_BACKGROUND,
                               RunParams)
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


def test_phase_scan_csv_matches_its_golden_hash_under_the_python_kernel(tmp_path,
                                                                      monkeypatch):
    # the levels sweep is written twice, and this CSV is its one end-to-end fingerprint
    monkeypatch.setattr(engine, "_lib", reference)
    doc = next(doc for doc in DETERMINISM_CONFIGS if doc["subcommand"] == "phase-scan")
    assert _csv_sha(doc, tmp_path) == GOLDEN["phase-scan"]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_survival_csv_does_not_depend_on_threads(threads, tmp_path):
    doc = next(doc for doc in DETERMINISM_CONFIGS if doc["subcommand"] == "survival")
    doc = dict(doc, reps=130, threads=threads)
    assert _csv_sha(doc, tmp_path) == SURVIVAL_130


# ---------------------------------------------------------------------------
# the engine-run corpus
#
# Every entry point on fixed tables of the four kinds (frozen, dynamical
# percolation, noisy voter, ising), on forward, thinned, reversed and
# re-reversed views, with and without stop_on_extinct, in d = 1 and 2, and on
# one table of about 17k events, several chunks long, under each kernel.  Each
# group's hash covers every Trajectory field, serialised with repr (so floats
# are written exactly), and the flags and edge deltas of the background paths.

def _traj_key(x):
    return repr((x.t_end, sorted(x.c0), sorted(x.b0), x.site_deltas, x.edge_deltas,
                 sorted(x.c_final), sorted(x.b_final), x.tau_ex, x.boundary_touched))


def _path_key(path):
    flags = "".join("1" if f else "0" for f in path.arrow_open)
    return repr((flags, path.edge_deltas, sorted(path.b_final)))


def _group(g, spec, lam_max, r_max, T, seed, c0, b0, a_sites):
    q = 0.0 if spec is None else spec.flip_rate
    lam, r = lam_max / 2, r_max * 0.8
    t_star = T * 0.7
    P = RunParams(g, lam_max, r_max, spec, T)
    Pt = RunParams(g, lam, r, spec, T)
    Ps = RunParams(g, lam, r, spec, t_star)
    L = g.half_width
    tl = build_timeline(g, lam_max, r_max, q, T, seed)
    rv = reverse_view(thin_view(tl, lam, r), t_star)
    out = [
        _traj_key(evolve(Pt, c0, b0, thin_view(tl, lam, r), stop_on_extinct=True)),
        _traj_key(evolve(P, c0, b0, tl)),
        _traj_key(evolve(Pt, c0, b0, tl, want_deltas=False)),
        _traj_key(evolve_truncated(max(L - 2, 0), P, c0, b0, tl, stop_on_extinct=True)),
        _traj_key(evolve_released(Pt, c0, b0, tl, T / 4)),
        _traj_key(delayed_variant(SUPPRESS_ARROWS, T / 5, P, c0, b0, tl)),
        _traj_key(delayed_variant(SUPPRESS_RECOVERIES_AND_BACKGROUND, T / 5, Pt, c0, b0, tl,
                                  stop_on_extinct=True)),
        _traj_key(richardson(c0, thin_view(tl, lam), T / 2)),
        _traj_key(evolve(Ps, c0, b0, rv)),
        _traj_key(evolve(Ps, c0, b0, rv, stop_on_extinct=True)),
        _traj_key(evolve(Ps, c0, b0, reverse_view(rv, t_star), stop_on_extinct=True)),
        _traj_key(evolve_truncated(max(L - 1, 0), Ps, c0, b0, rv)),
        _traj_key(richardson(c0, rv, t_star * 0.6)),
        _traj_key(dual_evolve(a_sites, P, b0, tl, t_star)),
        _traj_key(dual_evolve(a_sites, Pt, b0, tl, T)),
        _path_key(background_path(spec, b0, tl)),
        _path_key(background_path(spec, (), reverse_view(tl, t_star))),
        _path_key(background_path(spec, b0, reverse_view(reverse_view(tl, t_star), t_star))),
    ]
    if spec is not None:
        out += [_traj_key(x) for x in coupled_bounds_cpdp(P, c0, b0, tl)]
    return out


def _corpus():
    dp = make_spec("dynamical-percolation", alpha=1.0, beta=0.7)
    voter = make_spec("noisy-voter", alpha=0.8, beta=0.6)
    ising2 = make_spec("ising", beta_inv=0.12, d=2)
    g1, g2, g_long = build_box(1, 6), build_box(2, 3), build_box(1, 40)
    rng = random.Random(2718)

    def sets(g, p):
        c0 = tuple(s for s in range(g.n_sites) if rng.random() < p)
        b0 = tuple(e for e in range(g.n_edges) if rng.random() < 0.5)
        a = tuple(s for s in range(g.n_sites) if rng.random() < p)
        return c0, b0, a

    return {
        "frozen-1d": _group(g1, None, 2.5, 1.0, 8.0, 11, *sets(g1, 0.3)),
        "dp-1d": _group(g1, dp, 2.5, 1.0, 8.0, 12, *sets(g1, 0.3)),
        "voter-1d": _group(g1, voter, 2.0, 1.0, 8.0, 13, *sets(g1, 0.3)),
        "ising-2d": _group(g2, ising2, 1.5, 1.0, 5.0, 14, *sets(g2, 0.2)),
        "frozen-2d": _group(g2, None, 1.0, 1.0, 5.0, 15, *sets(g2, 0.2)),
        # about 16,800 events, past the kept prefix of 8192
        "dp-1d-long": _group(g_long, dp, 2.0, 1.0, 30.0, 16, (g_long.origin(),),
                             tuple(range(0, g_long.n_edges, 2)), (g_long.origin() + 2,)),
    }


GOLDEN_RUNS = {
    "frozen-1d": [
        "0c2a7a8960c1c36db6c519ddc2bf4448d0a57b08f194aff94b98178029816396",
        "dc270d6d5592f2f3ebcb7cfdb79903647bf7b7a719a4884b8f442c65089037a3",
        "e7c3da9b10c2cec705ea67fe0a7dbf18e643033ae504b03025423571873b4077",
        "f2ae261b7373ed9d9e75452133e98bcc961a9ea838722597236001a080ef34c6",
        "11beb156cb0d40b827509cbf3a8a7d9bc00efbccef3a82dd91f9c1a0135a6a5a",
        "5b061093ee36ccc754c74e0ea7554058b5e7b4b3562dc9bf77d9d9c9e7a3f8c4",
        "2bb1e74091050d97c7afb1bf63ee890a61e935d329fe38a871ff9e66009a7b7f",
        "548fc182df9bcf0a5d73c2bf057d934d7561005f4a3755ad5655a59bd047d4a9",
        "4db3879f09b48535b2d84c6f4772318d04b5e6efb750b9ae54885ad6be73e395",
        "4db3879f09b48535b2d84c6f4772318d04b5e6efb750b9ae54885ad6be73e395",
        "c2ccee70b4105aa6c871c7a629accfd4ccb7084da5b3c3c51f06645dd13dc4be",
        "c40f21a3feb9523eb061d9c0c2d216647c93667de1dcc5fc1dacb2c3c1d03594",
        "5025120e1633f33cbef129f7a784c4a42c4ec5024fd260d3a8829f9554e28fe6",
        "7664779f9ed25856cc909d48682f6c2b17eb0e639b691dc850a8a4ce431a242e",
        "cbc0da53fbfd5aeac1a1f5da411da1e3ff1083a3e8d1dc89c651369e80a89691",
        "bf3a8a5cb2d1c9a3b0b65702593fcd8f8141d274c0e780a9d6f4947c8eb93ec4",
        "63d6bf8466f0747a8cec141c039a4741dc73a5f7408f5c669cfab2154473523d",
        "9a79e10cc258b932f4bce9e4efeaad9432897c3b5cac407bb6bd88354498f292",
    ],
    "dp-1d": [
        "973ac458cf30206ec2ee16fff768460773cbab9b69124630fa5248ad517573af",
        "ff16a5014a30e80e9d5efce2dc26708a5f7cdc0b5e060e6add13f32b1a1e796b",
        "a9a06f0f0ba8e5bfc5b5b64af7a09933a6301f214d83c14c9c0a0450d7563980",
        "211c016f56d14630b0612768bcff1f8d895f12fcd39046e1c5d8570c53c36779",
        "31b1c896e86133e0fff8babbb9da2ab53d13caa79bc40dd29bb19bf6dd82baf7",
        "c9a553a11281bec499608a789bd0959ba8c68315c6cf3915dd974b6db03a3c6c",
        "d46fdb59300b2d7a2b560103994751149b20068f0e4d8ee6f8131dd361adaa00",
        "8f7ab69938824fae7ae0ef29e484b41307e82bc641e8a004f689655c015f1d73",
        "60a8f75dfacc598cd61e151a8697ae456a9a49364ca67f7565ef434440b0a9a1",
        "60a8f75dfacc598cd61e151a8697ae456a9a49364ca67f7565ef434440b0a9a1",
        "d59c519cfe7106cd067065ad31ef73bf8d0b5bef874c6bd2757093a12bdc1bc4",
        "60a8f75dfacc598cd61e151a8697ae456a9a49364ca67f7565ef434440b0a9a1",
        "304b471a3c511115f6bc9ad6ca85122aac85c04e5a35cfb5afb97c0e7aa74b3b",
        "c840b6921e3011a47cbc9086ebb961595b6cb35d340fe1dd402f6035499a1dda",
        "de3698009a7523d85cd0a61db5adb4e511d5dcf2e8bf035196cca180595da3a1",
        "1d0db0bc0ca108cfab0e15af1ea722789934e6298be2c4d4fec11d58adad9d56",
        "0597a24dab3bc407a174cc0fc14b7a9e686fedc3ff55c115482673e75051aa9b",
        "9ca6842776610fa3db794a929a367f84187afb8a88ce9d4401f550a9e14c6d2e",
        "ff16a5014a30e80e9d5efce2dc26708a5f7cdc0b5e060e6add13f32b1a1e796b",
        "ff16a5014a30e80e9d5efce2dc26708a5f7cdc0b5e060e6add13f32b1a1e796b",
        "ff16a5014a30e80e9d5efce2dc26708a5f7cdc0b5e060e6add13f32b1a1e796b",
    ],
    "voter-1d": [
        "f65864c03fb95f78c051d2bfcba20bd11c19da2e9dc9b367a4941fd8c625ad1b",
        "9b028a021966e44dff489ba7374118e3d12448d6eb1821411af1dca8d88904ed",
        "6fc3d63edfcf5dd126d5be5b119ca637cff4a43403ecd9195c61cdffd2369191",
        "8ba90f6a3d76a5bae7e7a73dcaf03fc3842b8ab777cf571034bdb5a04121667a",
        "672a88e3484d273bc5f484877fc859456486f2d18319eaeaff06f50336938929",
        "3917c0c50b83d7b6f15f062f865a38d80be9de983667efce6f1b4a2bcb2f4eab",
        "043997174ad1b96a94a87c35e64b11f23b5c60a6da3af1651a141bb1bc11a952",
        "eeca1bffee28350a8bf57677d8762030d9c39b7b2343ef1dfa5ab1e06406f8cc",
        "1f6ef6085c8a635e979a4f7b27cbd3a52a9bcb2624837b2a381ec5c60f5d470c",
        "1f6ef6085c8a635e979a4f7b27cbd3a52a9bcb2624837b2a381ec5c60f5d470c",
        "0e06f72f01343b8ec3018ac41edcc7cd1490516a06afc1a9ad4dbb946a8053e4",
        "c2bd6512ea17a3625fd56b7b1b7361cd6e2f4af0f1f5a9f7426faf9e8a0e0ec2",
        "47e3b253cac94389c018dbc846db196a0659b2dfa82962956965d5ed9dcf25f8",
        "6e77b26ae8f618341f6f66215e8407cce443d3b02b6275f1b82c300fbc1c422a",
        "41a1e2f507429d3bad2bfd6ee35b0c522c6ded20ef7749f19e32daaf6cc2e607",
        "20e5b4fa4c2a85a3e6637235db0e8c1f5c369ddcaa641368c325c0f648dff811",
        "4d32ad229c3642c9178bf092c6a5dec8947b8a8e8c481a646e0d72e9bcd68117",
        "5833c2638c4c67077938758a809fbdd3cdaf16aaa75701948add41530c7e355e",
        "5e73341252d5a046fee3e96dfc1086358650be4cafa82ae40b642f4b476268e1",
        "9b028a021966e44dff489ba7374118e3d12448d6eb1821411af1dca8d88904ed",
        "c1b33450869d21e66dcdc740eba0d450c70ffdd0452a67493f829bf7081e28fb",
    ],
    "ising-2d": [
        "a3f8bcf2192626094c590538af97ac3cabc579ef9faa609d7745f0af8f513c4b",
        "5156872af40965cd37ea323525b62b1242e8e3ba22b0c5ececd7f6cd43210ced",
        "8f61dd7da3cc66f39468a43281f3928ea82e74db02d1bf828a9e036a4e0928f6",
        "5872d02b02a0c95c95e2d7eac04d9ea92469a9027dee1b4dbd802a4e0a9b6b3f",
        "bb9c6e744ec73710591546c3e22523e265b2c465989693470ec0d68bcc0366fc",
        "636d3ad4d573767a0f8992d36a294d5cf51b61d1c619622b6d988faf17c2e122",
        "4db6ac11cc2ea6f9858f84139c301338d698609758d6eeb826e5ea1dcea8dbcf",
        "c81a594390bbddc1b8980eac2960c4f3a667822bb01cf4f9bf2e2ca9800a2baa",
        "e12f7ceec260f0c1a4272bc95419958220a9032b3e2d037c13071af10276a9df",
        "e12f7ceec260f0c1a4272bc95419958220a9032b3e2d037c13071af10276a9df",
        "3c068692c6b0795de8c3f05e9469a70c5ef3e0baa11ac210167f08e04f9af0ef",
        "98dbddc82b179a9084c7609016740d8e28fa73b21bbd6ba364fb2f261b6ea3eb",
        "fa240977fd32cf3836cf206920121e6f1a6b855fa2702b4d90d49d051602d606",
        "ca2a6d1083348a3b16f901737e52a13431591227379222af0615cb08fb874955",
        "c4871f6dacbf95b1c55c148e48b6e3af637996b78dd8c10ddfec1873ba4ec046",
        "4f6b344ead6db428353ef7a092be342bd3d0254d05f3a610a5ada62ae9d3e1ab",
        "fcde8aa3307a8c120fc10dceda940cf8a259c9f6e00aec38b53630afe3f3bb02",
        "66c920b67a454e6e277bf8f32dbf5fc59dbea34a8e2decfdccd2fc477cd5e0cb",
        "e88f5191fea6ba3a442c6d8bb1df4c55a6c9a792c584ee2e6d4600cc3da650c8",
        "5156872af40965cd37ea323525b62b1242e8e3ba22b0c5ececd7f6cd43210ced",
        "97d6add517901b38340ad712e914c25cf1dcda5c4bfec7ca6429e6b23f5afef3",
    ],
    "frozen-2d": [
        "8b48923ff1a83b8c97d032eb823efba71b06dc4a3199bdd3dad5a66288b323ae",
        "c829755f52113952c755a73130c97a9b929a1632348670d28ec0bc4143b83af6",
        "c9cd7b03f65ed0b238cd8bb34d2299dec153539d7078f264ba8aa7c6747d3327",
        "6a7144768f007a5043e07a24df7606bb905daefc86869867108dfc4f90ca5b97",
        "5d70f51bf4298ff90fbbaf5f4bdad8753f2e1dc0e5e77543dd7ba0c912c78a41",
        "a83f46ca31717b9bbca74c1097837f26a728155906790c52871ad87e81b67233",
        "de199809f57b10e0d626cf84e70460d0c50ba4e67c6f33e57c777b68f1d83c9f",
        "d7fa0336e22d99a842d71172ef790e26f53886486ea44768124cb8f0050e4098",
        "b964ae63f16be8eec5c743374f0c7554e85b72efa3281941b5231840e574b8ae",
        "b964ae63f16be8eec5c743374f0c7554e85b72efa3281941b5231840e574b8ae",
        "de0c4c2ded5a4f9f5d3dfcd2a784d3a34740d76b31f5b66a5cbda95529691fcf",
        "b964ae63f16be8eec5c743374f0c7554e85b72efa3281941b5231840e574b8ae",
        "017e697c42fdcae0ef69a50e7928ce9d95d5fa250595c781c376899ac6246ae3",
        "89fded04fca99101b9af2057955399164dff498475f17120c016d8396f62f451",
        "3885cda86dd9b250640139a940842c5c84ff5e63911abcbddd7fcb8a3e2f465e",
        "4fbb46dab770a04fccc11646454005140441f1d38136f5674b6c926e1789b1d4",
        "ca0a34a7b36262447c4006a6ffcb2699a8520b915272eeb3670c7a27f4ca545a",
        "97050d738ef7afc0925d44ef09be2c3692c679961d30d5c3eae8076aaca53b35",
    ],
    "dp-1d-long": [
        "97c05c4449581318ad6e4930be2443bc3f047a86c7c4658dbb5f6bd4292f5c79",
        "40ca71aab13cb86c4939afed1f7c4254f0b4df4ad9c957ad8303165f2b3a7c8e",
        "3ea0ec2ade13f99d9d14f9971a69c9af7699fe4ce65b4d04358d6c8251d2af8e",
        "ec5f02ea4edd68d308815da577f85a358d84c462bf09b38de72e6ff54bccefc0",
        "a52d3e2caaa5a00b827a4584777a0d8aad14c8687ba16c63b266ff74ca10ff00",
        "4bf0e2ac47b1e8f2cfe94e2ebef4f5e36b74905a9e6e39005bfb40db438ded42",
        "4492f90dabcc1e782af529b7e444ac20daed8448053ca1063d2c9e9fd13754bf",
        "ad7ee55101a67f6f335553b904fd4f1c48b8e783df4888f7d525262f2d3614f2",
        "c9e4000d5c14598018eba7256d985625deda09eb91f4b3914ed159517f629ed8",
        "8af1dbafebd23ac93dbc7fd969f36886044f5242cf3684138f45a0700178f47a",
        "bc1b500b78f18a53b75e96685a18ca3fa56729c415da8c9f7f7b54fb4d81750c",
        "c9e4000d5c14598018eba7256d985625deda09eb91f4b3914ed159517f629ed8",
        "49bed8835954452a06201bc0080e73e434669ddd137508a03d9597c0cad7d306",
        "b192f61d6149d37439060d0e08fd5c03e88b387d8c6f6be26152b714cfe21379",
        "32c111d827d95ea9a64ad16d476329e710d5a94c6afabf5cb3c0d4e7d5f70fa2",
        "0f43e2810c7ef25d467f663397455d140f6a4998680b5b278c175119eece4f85",
        "6933123487fc45213dace190da4b638c8aad692444f2feb92db012b0735f934b",
        "4a911efd8a60e4c7b24eb8df35213c9d060ad8ec2483785b7e6a6fcd6da9f60c",
        "40ca71aab13cb86c4939afed1f7c4254f0b4df4ad9c957ad8303165f2b3a7c8e",
        "40ca71aab13cb86c4939afed1f7c4254f0b4df4ad9c957ad8303165f2b3a7c8e",
        "40ca71aab13cb86c4939afed1f7c4254f0b4df4ad9c957ad8303165f2b3a7c8e",
    ],
}


@pytest.mark.parametrize("kernel", ["c", "python"])
def test_engine_run_corpus_matches_its_golden_hashes(kernel, monkeypatch):
    if kernel == "python":
        monkeypatch.setattr(engine, "_lib", reference)
    elif engine._lib is reference:
        pytest.skip("the compiled kernel did not load: no C compiler")
    got = {name: [hashlib.sha256(k.encode()).hexdigest() for k in keys]
           for name, keys in _corpus().items()}
    assert got == GOLDEN_RUNS


# ---------------------------------------------------------------------------
# library estimators that no CLI config reaches
#
# Each pin hashes the repr of every field an estimator returns (Estimates,
# report rows, decided times, coupled regions), at small sizes, under each
# kernel: conditions, local survival, growth against coupling, coupling
# speed, decided times and coupled regions under the three environment
# kinds, the block events with a positive infection rate, and self-duality.

def _estimator_pins():
    dp = make_spec("dynamical-percolation", alpha=1.0, beta=0.7)
    voter = make_spec("noisy-voter", alpha=0.8, beta=0.6)
    ising2 = make_spec("ising", beta_inv=0.12, d=2)
    g1, g2 = build_box(1, 12), build_box(2, 5)
    frozen = RunParams(g1, 2.0, 1.0, None, 6.0)
    dyn = RunParams(g1, 2.5, 1.0, dp, 6.0)
    dyn2 = RunParams(g2, 1.5, 1.0, make_spec("dynamical-percolation", alpha=1.0, beta=0.7,
                                                  d=2), 4.0)
    tables = {"dp": (dp, build_timeline(build_box(1, 8), 0.0, 0.0, dp.flip_rate, 6.0, 31)),
              "voter": (voter, build_timeline(build_box(1, 8), 0.0, 0.0, voter.flip_rate,
                                              6.0, 32)),
              "ising-2d": (ising2, build_timeline(build_box(2, 3), 0.0, 0.0,
                                                  ising2.flip_rate, 4.0, 33))}
    pins = {
        "condition_block_curve": analysis.condition_block_curve(
            dyn, 2, [0.0, 0.5, 1.5, 3.0, 6.0], 40, 5),
        "condition_block_curve-2d": analysis.condition_block_curve(
            dyn2, 1, [0.0, 1.0, 4.0], 20, 6),
        "local_survival_proxy-frozen": analysis.local_survival_proxy(
            frozen, g1.origin(), 6.0, 40, 7),
        "local_survival_proxy-dp": analysis.local_survival_proxy(
            dyn, g1.origin() + 1, 6.0, 40, 8),
        "growth_vs_coupling_curve": analysis.growth_vs_coupling_curve(
            1.0, dp, [0.0, 0.5, 1.0, 2.0, 4.0], 4.0, 40, 9),
        "growth_vs_coupling_curve-small-box": analysis.growth_vs_coupling_curve(
            1.5, dp, [0.0, 1.0, 3.0], 3.0, 30, 10, L=4),
        "coupling_speed_report-dp": analysis.coupling_speed_report(
            dp, [0.0, 0.5, 1.0, 2.0], 60, 11),
        "coupling_speed_report-voter": analysis.coupling_speed_report(
            voter, [0.0, 0.5, 1.0, 2.0], 60, 12),
        "estimate_block_event-A1": blocks.estimate_block_event(
            blocks.A1, 1, 2, 1.5, RunParams(build_box(1, 3), 2.0, 1.0, dp, 2.5), 60, 13),
        "estimate_block_event-A2": blocks.estimate_block_event(
            blocks.A2, 1, 2, 1.5, RunParams(build_box(1, 4), 2.0, 1.0, dp, 2.5), 60, 14),
        "estimate_block_event-A3": blocks.estimate_block_event(
            blocks.A3, 1, 2, 1.5, RunParams(build_box(1, 6), 2.5, 1.0, dp, 3.0), 60, 15),
        "estimate_block_event-A3-2d": blocks.estimate_block_event(
            blocks.A3, 1, 1, 1.0, RunParams(build_box(2, 4), 2.5, 1.0, dyn2.spec, 2.0),
            30, 16),
        "self_duality_check": analysis.self_duality_check(
            2.0, 1.0, 1.0, 0.7, [(0,)], [(2,)], 3.0, 60, 17, L=10),
    }
    for name, (spec, tl) in tables.items():
        pins[f"decided_times-{name}"] = decided_times(spec, tl)
        pins[f"decided_times-{name}-reversed"] = decided_times(spec, reverse_view(tl, 4.0))
        region = coupled_region(spec, tl, 2.0)
        pins[f"coupled_region-{name}"] = (region.edges.tolist(), region.edges.dtype.str,
                                         region.exact, region.horizon, region.t)
    return pins


GOLDEN_ESTIMATORS = {
    "condition_block_curve":
        "b3b6c50f1049f63d4a3c1e1054b54763226ee45efad203c1fe70a085baee794d",
    "condition_block_curve-2d":
        "90108c8bfadbf5e161fb8b63429c7f16811bba1954e18c23c0a681597e2154f6",
    "local_survival_proxy-frozen":
        "ab576a1c02f0d5275d829bcf096e40323a3cdbb918a2710b61f9216ddfd353a1",
    "local_survival_proxy-dp":
        "184c69f39f8968e83e968ae0159f2ef4a1ce9e85fe6adb9f23dfbb598dab2746",
    "growth_vs_coupling_curve":
        "8981f61005c77c1f608d31eaab1d0073293ded8ae6fea54e2f66d6f1e0dde535",
    "growth_vs_coupling_curve-small-box":
        "207a5cb1cd3cd60ec03a33c926659a7b6dc705a7e68c4f824316308157ca9a87",
    "coupling_speed_report-dp":
        "0270e4d7c72855c964faa3bfcc2f3860343355022d3d86d71445081801a6ace4",
    "coupling_speed_report-voter":
        "a4d284f44987e274a6261d91e236bd88b8d02940b2cd6cbd0446ee48e8ffb5be",
    "estimate_block_event-A1":
        "f2f1cce75529b2930a4b39f3f1c626f10602dedaeff3038ffdfbc59edc5cce4e",
    "estimate_block_event-A2":
        "a1a92cb663211a640e3cfd4c236bedf88580bd941a06b2c9459f4d012c3f179c",
    "estimate_block_event-A3":
        "eae6b552cc46cb35b31a9aada7176680734dd046bd9b215184c40b08e6e3f8f3",
    "estimate_block_event-A3-2d":
        "0650135f48959409ed5d4005c81b36fcdae22170fd16763195862a3f9327ddda",
    "self_duality_check":
        "89e275fad0b3d1504c3e56e04177c5b5ca1e2cdcdf7fe80b6d504cd2aa94a71b",
    "decided_times-dp":
        "c295d3a273a3d3f7871b09c3e606af36e26875cf850a3cb416d111448eaaf77e",
    "decided_times-dp-reversed":
        "b31cd1a382e9acb48055b7a05e9adb28c1d55c0148ab08c4ee3000f4c35ce0fd",
    "coupled_region-dp":
        "9eee752d28b4f33ae5d518e799af336f80b1090f84e752febb54f15c4f538943",
    "decided_times-voter":
        "091550a23bb4bf0f8372ca6d006717977859e1fa0be59c478f7200326e62f19d",
    "decided_times-voter-reversed":
        "a1adb71d7567178c51ef901ce2964f8df967f3fc4d819dd93e8a78d52aad8eee",
    "coupled_region-voter":
        "bf6771e91d515f6d7302bd7dd2ec810576712a522967b27369eb44e2ab2601aa",
    "decided_times-ising-2d":
        "bf2a097944d22f4a38a3c13d56873d6695e92d52eb6d4319ae221dab8279cb79",
    "decided_times-ising-2d-reversed":
        "574f5ef1ecfe46e8a94302c6dea031630c794d375d03568b4b6f41761c36eb20",
    "coupled_region-ising-2d":
        "35ac5ac17c080ebf17786ad9f1e70e398e4bef0880a6a60722099a22bbab0309",
}


@pytest.mark.parametrize("kernel", ["c", "python"])
def test_library_estimators_match_their_golden_hashes(kernel, monkeypatch):
    if kernel == "python":
        monkeypatch.setattr(engine, "_lib", reference)
    elif engine._lib is reference:
        pytest.skip("the compiled kernel did not load: no C compiler")
    got = {name: hashlib.sha256(repr(out).encode()).hexdigest()
           for name, out in _estimator_pins().items()}
    assert got == GOLDEN_ESTIMATORS
