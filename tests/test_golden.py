"""Golden outputs: the bytes the CLI writes for fixed seeded invocations.

The first nine digests were recorded before the spread kernel, the analysis
surface and the edge-list writer were consolidated; the ``*_n1000``, WS
saturation and projected label-order digests were recorded before the
generators and graph construction stopped recomputing degrees, label indices
and edge order; the mixed edge-list and seeded event-file digests were
recorded before edge lists were read in blocks and the projection and the
generators built their graphs from arrays; the mixed event-file digests were
recorded before event files were read in blocks and normalized in numpy (the
``ascii_clean`` ones by running that earlier code on the file); the BA
duplicate-draw digest was recorded before BA kept one flat endpoint list as
its edge list. A refactor that claims unchanged outputs must leave every one
of them as it is. A digest covers a whole ``--out`` tree (relative paths and
file contents) or one stdout capture.
"""

from __future__ import annotations

import hashlib
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from gossipnet import ingest
from gossipnet.cli import main

# parameters of the bundled *_n200 configs, two realizations each
N200 = {
    "er": ["--model", "ER", "--N", "200", "--p", "0.04"],
    "ba": ["--model", "BA", "--N", "200", "--m0", "10", "--m", "4"],
    "ws": ["--model", "WS", "--N", "200", "--k", "4", "--p", "0.1"],
}
SEED = ["--seed", "7", "--realizations", "2"]

# parameters of the bundled *_n1000 configs, one realization each
N1000 = {
    "er": ["--model", "ER", "--N", "1000", "--p", "0.02"],
    "ba": ["--model", "BA", "--N", "1000", "--m0", "10", "--m", "10"],
    "ws": ["--model", "WS", "--N", "1000", "--k", "20", "--p", "0.1"],
}

# a WS ring this dense saturates nodes: with seed 7 the three realizations
# skip 5 rewires whose node is already adjacent to every other node
WS_SATURATED = ["--model", "WS", "--N", "8", "--k", "6", "--p", "0.9", "--seed", "7",
                "--realizations", "3"]

# a two-node seed clique and m = m0: the first new nodes redraw many duplicate
# targets, and each redraw takes one more value from the structure stream
BA_DUPLICATES = ["--model", "BA", "--N", "300", "--m0", "2", "--m", "2", "--seed", "7",
                 "--realizations", "3"]

EVENTS = "p1 ana\np1 bo\np1 cy\np2 ana\np2 bo\np3 bo\np3 cy\np3 dee\np3 ed\np4 ed\np1 ana\n"

# label order: fay and gus first appear in the third group, hal (a late
# record of the first group) comes before them, and solo is alone in a group
ORDER_EVENTS = (
    "g1 eve\ng1 cat\ng2 solo\ng3 fay\ng3 cat\ng3 gus\ng1 hal\ng4 gus\ng4 eve\ng3 fay\n"
)



def mixed_edge_bytes() -> bytes:
    """A seeded edge list of about 34 kB whose 2 kB blocks are partly clean
    and partly hold comments, ``#`` inside labels, non-ASCII labels, tab,
    vertical-tab and ``\\x1c`` separators, blank lines, CRLF and lone CR
    endings and ``1_000`` weights; it starts with a byte-order mark, repeats
    pairs, and its last line has no newline."""
    rng = np.random.default_rng(20261018)
    out = ["\ufeff# mixed edge list\n"]
    for section in range(60):
        dirty = section % 8 == 7
        for _ in range(40):
            a, b = rng.integers(0, 400, size=2).tolist()
            if a == b:
                continue
            w = str(int(rng.integers(1, 6))) if rng.random() < 0.6 else repr(rng.uniform(0.05, 4))
            la, lb, sep, end = f"n{a}", f"n{b}", " ", "\n"
            r = rng.random() if dirty else 1.0
            if r < 0.1:
                la = f"\u00e9{a}"
            elif r < 0.2:
                lb = f"x#{b}"
            elif r < 0.3:
                sep = "\t"
            elif r < 0.4:
                sep = " \x0b\x1c"
            elif r < 0.5:
                end = "\r\n"
            elif r < 0.6:
                end = "\r"
            elif r < 0.65:
                out.append("# note\n")
            elif r < 0.7:
                out.append("  \t\n")
            elif r < 0.75:
                w = "1_000"
            out.append(f"{la}{sep}{lb}{sep}{w}{end}")
    out[-1] = out[-1].rstrip("\r\n")
    return "".join(out).encode("utf-8")


def seeded_events() -> str:
    """1500 events of 1 to 9 members over 800 people, records shuffled so that
    every event is scattered, with repeated members."""
    rng = np.random.default_rng(8)
    records = []
    for e in range(1500):
        size = int(rng.integers(1, 10))
        records.extend(f"e{e} p{m}" for m in rng.integers(0, 800, size=size).tolist())
    return "".join(f"{records[i]}\n" for i in rng.permutation(len(records)).tolist())


def mixed_event_bytes(ascii_clean: bool = False) -> bytes:
    """A seeded event file of about 22 kB whose 2 kB blocks are partly clean
    and partly hold comments, blank lines, tab, vertical-tab and ``\\x1c``
    separators, CRLF and lone CR endings, non-ASCII and ``#``-bearing members;
    it starts with a byte-order mark, scatters and repeats records, has
    single-member groups, and its last line has no newline. With
    ``ascii_clean`` the non-ASCII members go to the dirty sections too, so
    that the clean blocks are all-ASCII plain records."""
    rng = np.random.default_rng(20261019)
    records = []
    for e in range(500):
        size = 1 if e % 11 == 0 else int(rng.integers(2, 8))
        for m in rng.integers(0, 600, size=size).tolist():
            member = f"\u00e9{m}" if m % 13 == 0 else f"x#{m}" if m % 17 == 0 else f"p{m}"
            records.append((f"g{e}", member))
    records += [records[i] for i in rng.integers(0, len(records), size=150).tolist()]
    order = rng.permutation(len(records)).tolist()
    # records of "#" (or non-ASCII) members go to the dirty sections, the
    # others fill in
    dirty_only = [
        "#" in member or ascii_clean and not member.isascii() for _, member in records
    ]
    hashed = [i for i in order if dirty_only[i]]
    plain = [i for i in order if not dirty_only[i]]
    out = ["\ufeff# mixed events\n"]
    for n in range(len(order)):
        dirty = (n // 400) % 3 == 2
        group, member = records[(hashed if dirty and hashed or not plain else plain).pop()]
        sep, end = " ", "\n"
        r = rng.random() if dirty else 1.0
        if r < 0.1:
            sep = "\t"
        elif r < 0.2:
            sep = " \x0b\x1c"
        elif r < 0.3:
            end = "\r\n"
        elif r < 0.4:
            end = "\r"
        elif r < 0.45:
            out.append("# note\n")
        elif r < 0.5:
            out.append(" \t\n")
        elif r < 0.55:
            out.append("\n")
        out.append(f"{group}{sep}{member}{end}")
    out[-1] = out[-1].rstrip("\r\n")
    return "".join(out).encode("utf-8")


GOLDEN = {
    "analyze_lesmis": "2ab2f70d31e457d348b0c31a9c055d55519794509174faa62ef60ae3d4f07fd8",
    "generate_er": "1470ee0d4b338ddf16cfb0b1d4e89edb0ccb585e12cda954b633e209b8d061b1",
    "generate_ba": "c76ede3161449d18effba2b7b594b97accfe6351c6fad10028c4b708b8659a5b",
    "generate_ws": "b60ec635f7c4fd8b7bf8fd57cfa1ccdc3c77145e9cc33f419249238ae384e3d2",
    "sweep_er": "3b3e2562943c4c3328d046c5bdc4b9367853c9a31dd56539cdfd251eea210dde",
    "sweep_ba": "ce484bf5eb6c0b58760d5c7bbcfa9b0e7bc3c6826634ada72b167874e6c34e70",
    "sweep_ws": "0b9ee083e4702ba98cad1d9c012dc0bdf907ec8c57d2d356219f021530b5aa61",
    "project_count": "9d3a8ae42634752f43e5c020055c472f51e4b445486326462c39adae113a233c",
    "project_newman": "fd5c4b64520d31133810c2d16a9b09a732f62dd63c3290b07ad46c0e3998fe60",
    "generate_ba_n1000": "b729c1ffc7f74d70d94cbe39f38cf6ebaf9fc821ca5e5dfd56bbb5765038fd32",
    "generate_er_n1000": "699021c0b223c409abcd4c399e9bcfd19cad373bee29bfec6ddb8d69ea2708dd",
    "generate_ws_n1000": "1e099947cc30f51c3711df9695ff391477dec1b7f63ae70b63de63e9310bec34",
    "generate_ws_saturated": "fd3ec6cc34b6012ac190bb742b90837f90bb32cac1161c6452b0b5a65bf40e56",
    "generate_ba_duplicates": "735592c2ff73c8ea9ae5c8eb340c42b5ccd3e0cad7a40d2a3b1e62b26b05214a",
    "project_out_count": "1071388009ca8e709a20127e69b901298875684dfd4b76e4f4cae90af841de85",
    "project_out_newman": "bb7e61796ca7c49ffebe7298a30d70b338b315730a4df125d5a1cd7261f9ad4a",
    "analyze_mixed_blocks": "e73d62f3acd3e0d7fe067c8da6e80f220faad9e01b0246187cf8a9e8e4c4bf4d",
    "project_out_seeded_count": "0eb2919ae945ca53f59cea5d6569f8416a0109b7639ed03f8e0df42332f3ea64",
    "project_out_seeded_newman": "b625b7f48fb75bccfc95a65f77ddd8ecd468ed93d2bb6e4c0b690af6175baa28",
    "project_out_mixed_count": "686b1e6158961f2d53ee4e57ae9840ee79b19f096107f9421d9d4617d04ba1ec",
    "project_out_mixed_newman": "8d7335ed2ad378e5c2cce16e3bd7b9dcd7bc7a7c4c82c0985903ead05b10d308",
    "project_out_mixed_ascii_clean_count": "c8f6116a322338303e96098aaf268e41b4cb9411d8a434ab778f1966687a436d",
    "project_out_mixed_ascii_clean_newman": "aa0774ebe47d96e606caf4093abfaf380a369f24468c52ad8ac22dca716a0cdd",
}


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def lesmis_path() -> Path:
    return Path(str(resources.files("gossipnet").joinpath("data/les_miserables.edges")))


def test_analyze_lesmis(tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(lesmis_path()), "--out", str(out)]) == 0
    assert tree_digest(out) == GOLDEN["analyze_lesmis"]


@pytest.mark.parametrize("name", sorted(N200))
def test_generate_n200(tmp_path, name):
    out = tmp_path / "out"
    assert main(["generate", *N200[name], *SEED, "--out", str(out)]) == 0
    assert tree_digest(out) == GOLDEN[f"generate_{name}"]


@pytest.mark.parametrize("name", sorted(N200))
def test_sweep_n200(tmp_path, name):
    out = tmp_path / "out"
    argv = ["sweep", *N200[name], *SEED, "--workers", "1", "--format", "both", "--out", str(out)]
    assert main(argv) == 0
    assert tree_digest(out) == GOLDEN[f"sweep_{name}"]


@pytest.mark.parametrize("scheme", ["count", "newman"])
def test_project_stdout(tmp_path, capsys, scheme):
    src = tmp_path / "events.txt"
    src.write_text(EVENTS, encoding="utf-8")
    assert main(["project", "--input", str(src), "--scheme", scheme]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[f"project_{scheme}"]


@pytest.mark.parametrize("name", sorted(N1000))
def test_generate_n1000(tmp_path, name):
    out = tmp_path / "out"
    argv = ["generate", *N1000[name], "--seed", "7", "--realizations", "1", "--out", str(out)]
    assert main(argv) == 0
    assert tree_digest(out) == GOLDEN[f"generate_{name}_n1000"]


def test_generate_ws_saturated(tmp_path):
    out = tmp_path / "out"
    assert main(["generate", *WS_SATURATED, "--out", str(out)]) == 0
    assert tree_digest(out) == GOLDEN["generate_ws_saturated"]


def test_generate_ba_duplicates(tmp_path):
    out = tmp_path / "out"
    assert main(["generate", *BA_DUPLICATES, "--out", str(out)]) == 0
    assert tree_digest(out) == GOLDEN["generate_ba_duplicates"]


@pytest.mark.parametrize("scheme", ["count", "newman"])
def test_project_out_label_order(tmp_path, scheme):
    src = tmp_path / "events.txt"
    src.write_text(ORDER_EVENTS, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["project", "--input", str(src), "--scheme", scheme,
                 "--out", str(out / "net.edges")]) == 0
    assert tree_digest(out) == GOLDEN[f"project_out_{scheme}"]


def test_analyze_mixed_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "BLOCK", 2048)
    src = tmp_path / "mixed.edges"
    src.write_bytes(mixed_edge_bytes())
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(src), "--out", str(out)]) == 0
    assert tree_digest(out) == GOLDEN["analyze_mixed_blocks"]


@pytest.mark.parametrize("scheme", ["count", "newman"])
def test_project_out_seeded_events(tmp_path, scheme):
    src = tmp_path / "events.txt"
    src.write_text(seeded_events(), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["project", "--input", str(src), "--scheme", scheme,
                 "--out", str(out / "net.edges")]) == 0
    assert tree_digest(out) == GOLDEN[f"project_out_seeded_{scheme}"]


@pytest.mark.parametrize("variant", ["", "ascii_clean_"])
@pytest.mark.parametrize("scheme", ["count", "newman"])
def test_project_out_mixed_blocks(tmp_path, monkeypatch, scheme, variant):
    monkeypatch.setattr(ingest, "BLOCK", 2048)
    src = tmp_path / "events.txt"
    src.write_bytes(mixed_event_bytes(ascii_clean=bool(variant)))
    out = tmp_path / "out"
    assert main(["project", "--input", str(src), "--scheme", scheme,
                 "--out", str(out / "net.edges")]) == 0
    assert tree_digest(out) == GOLDEN[f"project_out_mixed_{variant}{scheme}"]
