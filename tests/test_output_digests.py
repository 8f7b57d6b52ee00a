"""Byte identity of decomp and canonical output, against SHA-256 digests
recorded from the tuple-label, LaurentPoly implementation of the Fock
route: decomp at rank 10 for the paper's three (4,2) charges and at rank 8
for (3,3), charge (0,1,2), in every format, canonical for three labels
whose builds take the wedge route for a highest-weight label, and decomp at
rank 6 for three widely spread charges, whose bead masks are placed closer
than the charge, and the crystal's JSON, plain and enveloped, whose layers
are iterators within an iterator."""

import hashlib

import pytest

from qfock.cli import main

DIGESTS = [
    ("decomp --e=4 --charge=0,1 --rank=10 --format=csv",
     "7373155e70f6ed1d4bf90b40b9ec9d954826c5964986b26688bc8764a3a92d18", 50007),
    ("decomp --e=4 --charge=0,1 --rank=10 --format=latex",
     "42c93c3e41608bce69d7e3bf2a82dccf9264bcbff8099b497ec05003f6cab3fb", 368691),
    ("decomp --e=4 --charge=0,1 --rank=10 --format=json --keep-q",
     "85bfd799655eca9f66c627de2aa93d14e5e6b0f8c48299c99c10c4c940b01961", 422306),
    ("decomp --e=4 --charge=4,1 --rank=10 --format=csv",
     "e6dd4787d3774aa0e8994fcaa4224190cff08c9dda9ef9f761019df965b9201f", 52387),
    ("decomp --e=4 --charge=4,1 --rank=10 --format=latex",
     "5c42660418c6f5e1cd747921cd9910534ba44753465e9c339dd9d6b16ca4907b", 368691),
    ("decomp --e=4 --charge=4,1 --rank=10 --format=json --keep-q",
     "762a14908e3af3e398f298f7132a4c6b1a639e9a8b883e1b7cdad13b6a631f4f", 426749),
    ("decomp --e=4 --charge=0,5 --rank=10 --format=csv",
     "7a6d089bd35b457f197fc3f6e9ba467f9a9085f081cca1c1587a3101ba14ecab", 52451),
    ("decomp --e=4 --charge=0,5 --rank=10 --format=latex",
     "d5fa53405ea25fb10ed63857c2009f24ecbc71778e0016da6a564b620a324c35", 368691),
    ("decomp --e=4 --charge=0,5 --rank=10 --format=json --keep-q",
     "635c383e5aef2cac2d66886f0361331a26b99078085a51076cf389ca1cb06d62", 427631),
    ("decomp --e=3 --charge=0,1,2 --rank=8 --format=csv",
     "6cb52446fad6e08373dd0a836ebd43998abf1d49267f7733ec8ef2b7f61704bd", 123719),
    ("decomp --e=3 --charge=0,1,2 --rank=8 --format=latex",
     "8ce9b9be5631481f62bdc8cb1f8dbad3093d1ffa9871f921e586986466cc063f", 497700),
    ("decomp --e=3 --charge=0,1,2 --rank=8 --format=json --keep-q",
     "7367a863cc1e974fd05f542119aeebbadee25a03c4e62511399f3f130b31b0e3", 1072696),
    ("canonical --e=4 --charge=0,1 --mp=-|3,1 --keep-q",
     "f35ded9a274015739e3e7cce934e281124f742efac163419f44ed9c047b998d7", 293),
    ("canonical --e=3 --charge=0,1,2 --mp=2|2|2,1 --keep-q",
     "531659317b90862341e837402374769d143e3962f61136775be30529cb8365ac", 5896),
    ("canonical --e=2 --charge=0,1 --mp=3,1|3 --keep-q",
     "50e4233b6b7240ae693cbeedcd6d0e9310f27ee0da8119a081fe44a1eabde572", 3091),
    ("decomp --e=4 --charge=0,100000 --rank=6 --format=json --keep-q",
     "bf704ad6b44616a853c6be4807f74f30c53546346e0981afe15dcc6005a7a449", 20087),
    ("decomp --e=3 --charge=96,49,2 --rank=6 --format=json --keep-q",
     "f958e79c487ec39abd32c504860818fbe173d8e48d4e166f1755bdaa73237075", 175288),
    ("decomp --e=3 --charge=0,40,-30 --rank=6 --format=csv",
     "1ce569f749fb53cc038690d5c345d01e9ec21537ecd2ad9b6f5e530d493d4648", 15735),
    ("crystal --e=4 --charge=0,5 --rank=6 --format=json",
     "aedb22b69043c107f486667a712994e60531f8afa060a3326efea7e59d3072fd", 23531),
    ("--json crystal --e=4 --charge=0,5 --rank=6 --format=json",
     "dd7f5496a56bb8e09781407a91ae6cddcb3e40c732dad13688a9b83c159887a5", 27987),
]


@pytest.mark.parametrize("command, digest, length", DIGESTS, ids=[c for c, _d, _n in DIGESTS])
def test_output_matches_recorded_digest(capsys, command, digest, length):
    assert main(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(captured.out) == length
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
