"""Pinned CLI output: the exit code and the sha256 of stdout of cheap commands.

A change that must leave every verdict and every printed value as it was
runs this file instead of diffing output by hand.  When a change alters
output on purpose, print ``run_digest(argv)`` for each command, update its
row, and say in the change log which rows moved and why.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from tbtl.cli import main

FAMILIES = [
    "--type A",
    "--type BI --m 1",
    "--type BI --m 2",
    "--type BII",
    "--type BIII",
    "--type standard",
]

COMMANDS = [
    *[f"psi {f} --n 5" for f in FAMILIES],
    *[f"psi {f} --n 4 --at q=2,Q=3/5,Q0=7" for f in FAMILIES],
    *[f"verify --check all {f} --n 4" for f in FAMILIES],
    *[f"enumerate {f} --n 5 --format json" for f in FAMILIES],
    "table --nmax 7",
    "conjecture --nmax 5",
    "identities --draws 20",
    "spectrum --type A --n 5",
    "correlate --n 5 --alpha 2 --plus 4 --at q=2,Q=3",
    "correlate --n 5 --alpha 2 --plus 4",
    # N <= 3 (relations) and N <= 2 (commutant) check every unit column;
    # larger N are decided by locality and must print the same
    *[f"verify --check {c} --n {n}" for c in ("relations", "commutant") for n in (2, 3, 4, 8)],
]

GOLDEN = {
    "psi --type A --n 5": (0, "16c996968ef603330b449af5f579ea58c074172e25528945013eefd56e777beb"),
    "psi --type BI --m 1 --n 5": (0, "a48b6834f2cde29b29db6d87a014c005fd7ed960d08c0202b6d84dd905b70da9"),
    "psi --type BI --m 2 --n 5": (0, "786db5e4572b4499b20b55d810726543376bcec8a1a37a17a2e321404ff3923e"),
    "psi --type BII --n 5": (0, "258f91f96e5ba3a4722be1b8a9617e424b100c42ae2e7b2ef297f68b25135870"),
    "psi --type BIII --n 5": (0, "489a14a754dc87da60b39daa010643f1479bc2592b8b1da30ed85b27ced52263"),
    "psi --type standard --n 5": (0, "7277c47937093cd8bd1581688178ac3fdd8c885c6d7ff0070b4107e4469681bf"),
    "psi --type A --n 4 --at q=2,Q=3/5,Q0=7": (0, "651d2299db074caa5290453fbcdeb00a9b673fd8a503ecff22a38057c4ba6acd"),
    "psi --type BI --m 1 --n 4 --at q=2,Q=3/5,Q0=7": (0, "cb75f85f2baa6fe9db3c0e0b93366ec89b317b2d6ec2b2ad26c0833fe370c674"),
    "psi --type BI --m 2 --n 4 --at q=2,Q=3/5,Q0=7": (0, "4529a07343ab621e235a7cc1763097513fe27fecf223c2df40297d0a4dac51e4"),
    "psi --type BII --n 4 --at q=2,Q=3/5,Q0=7": (0, "c55415e1e01ddc0631c9007ef3744f464e6daeb9bbe1b0495c822e1bd90ebfd7"),
    "psi --type BIII --n 4 --at q=2,Q=3/5,Q0=7": (0, "70ab7ee002fc14cb6b4cb7544fcace66123a07029f6a1e921adb247968265b8e"),
    "psi --type standard --n 4 --at q=2,Q=3/5,Q0=7": (0, "8b96ada33b6d1995f43e64a0f36bd948411a1129f06ff0e755d4362ca09d0e35"),
    "verify --check all --type A --n 4": (0, "97c8447cee54ecc4acb64049e9e5b31e52f8f27e5b12c383ae58b61b10cbd0fb"),
    "verify --check all --type BI --m 1 --n 4": (0, "22e27268c1b3aaf07f252ab62134222a94861ce2827cfce4bbba824840c8cb3b"),
    "verify --check all --type BI --m 2 --n 4": (0, "ce4280170c546a07a14a7408c6f912739095463f75b1209b5bbf511ffe50f56a"),
    "verify --check all --type BII --n 4": (0, "556aa9d082cbe952b6270d41ca5ed764d50a70b1aa036233e74edca022f7dea8"),
    "verify --check all --type BIII --n 4": (0, "05113801da1e8c784073ef5cbf0a8c54017c773c9910f70ed8478a7179878a51"),
    "verify --check all --type standard --n 4": (0, "aaa4f4b09b01fabedf81de729bf11aee7a7cbadce34f26cbc106b8d6435ac4db"),
    "enumerate --type A --n 5 --format json": (0, "17bc29c955852659bcd55c1d15b792825074921ac57ef126942220ddcfeef668"),
    "enumerate --type BI --m 1 --n 5 --format json": (0, "dc1ddd4ccb6630bc71f168f25164f0109ba178ea1822ae6a776f857225acd186"),
    "enumerate --type BI --m 2 --n 5 --format json": (0, "68e567ac5be3bed9b2ce1a86c9912923ac5453a20a212df522defa3ce6def098"),
    "enumerate --type BII --n 5 --format json": (0, "79ab85a66ac840a44ec54e544964681f6686308454f3c40f49a2fbf21fd6fdcc"),
    "enumerate --type BIII --n 5 --format json": (0, "5c038e2217e3c6c9af8f3d8dbf31ec96aa2b2a8b765ad1e5a883312f519b8c42"),
    "enumerate --type standard --n 5 --format json": (0, "a50062faedf929982b757d1a9759732e3787c4a50ad18a5139d6520bf9495a7d"),
    "table --nmax 7": (0, "0ba9ce1679cf1d3b96ce58ef91cdea0c507057a6d4e53b16bcdc445cbd6518ce"),
    "conjecture --nmax 5": (0, "d01207553a6da32180bce05dea13d28449abfa3f8927897d64bccaf149e13ca5"),
    "identities --draws 20": (0, "3b66067d8dfd0c7027961d6d7999dc773bd2c91525d3a73d7767661ea5b6886c"),
    "spectrum --type A --n 5": (0, "6f92eeab5d62a1f5f0ae56c511b94a73f45adf2aa7c6530c22e77a4d2b4bb2c9"),
    "correlate --n 5 --alpha 2 --plus 4 --at q=2,Q=3": (0, "6b38a3363d2c04f11e1dd1f8be9b2c2bf102c565281c7061c2e15c4993975a12"),
    "correlate --n 5 --alpha 2 --plus 4": (0, "0ae138691615f10e4fd3f276e5f3397ab5912273b0631a6774f27c9573b63c40"),
    "verify --check relations --n 2": (0, "e8f188f167db15545337c5948c9886787ff6db173d8f5334865711581a9f56c9"),
    "verify --check relations --n 3": (0, "30f39f6c1b42907a00ad397e7303976f416fe7edf2a10aa934872153598b415e"),
    "verify --check relations --n 4": (0, "f89fe18833e0db76442213038469ccbe8fdd2af225a77000713092c7686ba6c7"),
    "verify --check relations --n 8": (0, "54514ad7773aa9df7ccbfa5ba7be0bcdabc3bffabeedc185c5f5e17ed9e73c50"),
    "verify --check commutant --n 2": (0, "4bde47cc157cbba3905b2bc28d338d1c3fe4350e41e4615dfa3164d189a5400f"),
    "verify --check commutant --n 3": (0, "450b73798d953e1e9c026894293bfe4c5a2b1f8ecc2195ca96a8f26820c61f06"),
    "verify --check commutant --n 4": (0, "e383e82234fb6050a3864cb911649e07e774cb27f21c789941f3551803ac9f27"),
    "verify --check commutant --n 8": (0, "b782929afe83899183cfd6ec53bb2f017ea13eb78336e7d91638841ba6322924"),
}


def run_digest(argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv.split())
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_every_command_is_pinned():
    assert sorted(GOLDEN) == sorted(COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS)
def test_cli_output_unchanged(argv):
    assert run_digest(argv) == GOLDEN[argv]
