"""Every driver CSV keeps its bytes.

Each run goes through ``cli.main`` as a user would start it, and every CSV
it writes is compared by sha256 with the table below.  A change that moves
an output on purpose updates the table in the same change and says which
digests moved and why; any other change leaves the table alone.  ``bench``
reports timings and is not pinned.
"""

import hashlib

import pytest

from papradmm import cli

# subcommand arguments of each pinned run, seed and output directory aside
RUNS = {
    "table2": ["table2", "--symbols", "200"],
    "psd": ["psd", "--symbols", "200"],
    "ccdf": ["ccdf", "--symbols", "200"],
    "ber_awgn": ["ber", "--symbols", "200"],
    "ber_multipath": ["ber", "--symbols", "200", "--channel", "multipath", "--workers", "2"],
    "convergence": ["convergence", "--symbols", "8"],
}
SEEDS = (12345, 1)

# sha256 of each CSV, keyed by (seed, run, file)
DIGESTS = {
    (12345, "table2", "table2.csv"): "cd9179a725fe0d970b66b86cd4e3cd8e248884310f071cf6d816d2524762fda1",
    (12345, "psd", "psd.csv"): "bf65bd592ccc8bacbc3fea7cf657c290ca0311faa451d77e9aed47824bab6137",
    (12345, "ccdf", "ccdf.csv"): "22db2c5b17803501a90c18beadbe9aeb22b422b04d7f7bc91241760613d2b16c",
    (12345, "ber_awgn", "ber.csv"): "21325d6d53db263f16ccee209b2b968426079a901cb014c84d5a6ad1edbb7536",
    (12345, "ber_multipath", "ber.csv"): "46999abe73873187c9d5edb7549dec4c9f601f6a39f71fa08f742fbc9d414014",
    (12345, "convergence", "consensus_gap.csv"): "4ae20e3b78ce3ff4a1fe1565866abffe4bda0292e0bf781212388c88951abad3",
    (12345, "convergence", "convergence.csv"): "8b1d17d27f8a14adf49a990fa3ad8da81441514f3d40414433c6118103833ec0",
    (1, "table2", "table2.csv"): "b39324f43d2d1d2b516a95ccbc2086a91118aa337e317173d8c066b3a72359d2",
    (1, "psd", "psd.csv"): "37850a913605a5c34e5d157290a02766720f2bc3384cfead781da75279a5e596",
    (1, "ccdf", "ccdf.csv"): "af03b942f4101f4feee106d1ee14a79bc45882b1075bdf46b351fa4b4ceb6b03",
    (1, "ber_awgn", "ber.csv"): "22c170e7aa0c475ef1c2c4ac4be097d4f8eff77a104199656f80a37a2873325a",
    (1, "ber_multipath", "ber.csv"): "606c5b5b0383ec626341318fa2f0ee245d76e022aa97378f98611d8043451664",
    (1, "convergence", "consensus_gap.csv"): "6f2fa9e56a3fac584383fc8e7f214bc732f868e0f0417a37d5439663b11955ed",
    (1, "convergence", "convergence.csv"): "d4078085a241736674f27445fce11312e50473134a9cfe0fc3e18bc8bd25de82",
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("run", RUNS)
def test_driver_csvs_keep_their_bytes(run, seed, tmp_path, capsys):
    assert cli.main(RUNS[run] + ["--seed", str(seed), "--out", str(tmp_path)]) == 0
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("*.csv")
    }
    want = {name: digest for (s, r, name), digest in DIGESTS.items() if (s, r) == (seed, run)}
    assert got == want
