"""Golden regression tests: exact pinned outputs for fixed seeds.

Everything in this library is deterministic given (scale, seed), so these
values must never drift silently — a change here means an algorithm or a
generator changed behavior, which must be deliberate and documented.
"""

import pytest

from repro.coloring import balance_report, color_and_balance, greedy_coloring
from repro.community import louvain
from repro.graph import load_dataset
from repro.graph.datasets import DATASETS

#: ``CSRGraph.fingerprint()`` of every dataset stand-in at scale 0.05
DATASET_FINGERPRINTS = {
    ("cnr", 0): "9d7f2deb9ca18c48141bd9b4ec15e7f6e4d2408bb3005827bfbc132d0d6bbff4",
    ("cnr", 1): "a11a60bfabded8860eeebfd71723400400e66786ebca414b766e6453e5c3cc41",
    ("copapers", 0): "4f5ee9a33b8dbc1e07fa8388c63a218ae0b4263654ae849ead347d52fb3efad1",
    ("copapers", 1): "826faf34c1734370335e40e73f233e395584be29da9a26fec997bf06d84ec0b6",
    ("channel", 0): "cf1f3518b61a85c2b9cd72ae166c3d4dd63072c5e664713d035cfb84042e0322",
    ("channel", 1): "7c8c1378af0eb9b261a8034b37785e0f7c3ddb204dedd26f050de6b93b528bf4",
    ("mg2", 0): "2c7917ae944f791ba274e6e58ae9d3bc53174ed17fc56729569b96447ddb1eff",
    ("mg2", 1): "10f05724911d07c1b6ffa448763908659f0666e28fa5e5be062b846209257d1e",
    ("uk2002", 0): "a5ccf1e177d288382087e6616edec82006b172730ce62bf3b5fbbc92e257be7c",
    ("uk2002", 1): "1550a336a39f572a7dd93bf4966d300bfefdfd83474544cdcdc149f07f279eac",
    ("europe_osm", 0): "32b876b7ea6981dc0a83cc377a665c002ef8da107ff09c26b6d0757cba548bfe",
    ("europe_osm", 1): "993d28fff5b4ff319a6792fdc2efdc28529c24e4d006fa7f4af2957029a5ad5d",
    ("jacband", 0): "82796595f5958c7a33ca48f3e2414dc1744ad6291db4b6fa3b760423045c7bfc",
    ("jacband", 1): "74694bc7a611289dc3e8f472ecc978bcc4f2749337b4c91a30629c226683d46a",
    ("jacrand", 0): "0139a7450d63dc1b365610bae6bdd86b06ef2086ca7afb75f0051b87d084db6e",
    ("jacrand", 1): "e55434210a21c723cd2d090186045e08c65f11a9d80c3150edd09cf59420692c",
}


@pytest.fixture(scope="module")
def cnr06():
    return load_dataset("cnr", scale=0.06, seed=1)


class TestGoldenGraphs:
    def test_cnr_structure(self, cnr06):
        assert cnr06.num_vertices == 1024
        assert cnr06.num_edges == 11063

    def test_channel_structure(self):
        g = load_dataset("channel", scale=0.1, seed=0)
        assert g.num_vertices == 1152
        assert g.num_edges == 8752


    def test_every_dataset_is_pinned(self):
        assert {name for name, _ in DATASET_FINGERPRINTS} == set(DATASETS)

    @pytest.mark.parametrize("name, seed", sorted(DATASET_FINGERPRINTS))
    def test_dataset_fingerprint(self, name, seed):
        graph = load_dataset(name, scale=0.05, seed=seed)
        assert graph.fingerprint() == DATASET_FINGERPRINTS[name, seed]


class TestGoldenColoring:
    def test_ff_colors_and_skew(self, cnr06):
        init = greedy_coloring(cnr06)
        assert init.num_colors == 40
        assert balance_report(init).rsd_percent == pytest.approx(259.35, abs=0.01)

    def test_vff_result(self, cnr06):
        vff = color_and_balance(cnr06, "vff")
        assert balance_report(vff).rsd_percent == pytest.approx(8.55, abs=0.01)
        assert vff.meta["moves"] == 692

    def test_channel_ff_colors(self):
        g = load_dataset("channel", scale=0.1, seed=0)
        assert greedy_coloring(g).num_colors == 12


class TestGoldenCommunity:
    def test_louvain_modularity(self, cnr06):
        res = louvain(cnr06)
        assert res.modularity == pytest.approx(0.49133, abs=1e-5)
        assert res.num_communities == 162
