"""Output checker for the benchmark, independent of the code under test.

It never imports ``locdom``: graphs are decoded by its own graph6 reader and
every predicate works on plain Python sets, in the style of
``tests/oracles.py``.  Each checked item either passes or counts once as a
failure; the counts become ``attempted`` and ``failed`` in the result line.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


class CheckFailed(Exception):
    """An output failed a check made while the benchmark was producing it."""


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def order(text: str) -> int:
    """The vertex count a graph6 string declares."""
    if text[0] == "~":
        return (ord(text[1]) - 63) << 12 | (ord(text[2]) - 63) << 6 | (ord(text[3]) - 63)
    return ord(text[0]) - 63


def decode_g6(text: str) -> list[set[int]]:
    """Neighbour sets of a graph6 string (orders below 258048)."""
    vals = [ord(ch) - 63 for ch in text.strip()]
    if not vals or any(not 0 <= v <= 63 for v in vals):
        raise ValueError(f"not a graph6 string: {text!r}")
    n = order(text.strip())
    body = vals[4:] if vals[0] == 63 else vals[1:]
    if len(body) != (n * (n - 1) // 2 + 5) // 6:
        raise ValueError(f"graph6 body has the wrong length: {text!r}")
    bits = [v >> (5 - i) & 1 for v in body for i in range(6)]
    nbr = [set() for _ in range(n)]
    t = 0
    for j in range(n):
        for i in range(j):
            if bits[t]:
                nbr[i].add(j)
                nbr[j].add(i)
            t += 1
    return nbr


def is_locating(nbr: list[set[int]], x: set[int]) -> bool:
    traces = [frozenset(nbr[v] & x) for v in range(len(nbr)) if v not in x]
    return len(traces) == len(set(traces))


def is_dominating(nbr: list[set[int]], x: set[int]) -> bool:
    return all(nbr[v] & x for v in range(len(nbr)) if v not in x)


def separation(nbr: list[set[int]], a: set[int]) -> int:
    return len({frozenset(nbr[v] & a) for v in range(len(nbr)) if v not in a})


def locating_limit(n: int) -> int:
    return (5 * n - 1) // 8


def ld_limit(n: int) -> int:
    return (5 * n + 7) // 8


def witness_faults(nbr, l_set, ld_set, l_exact=None, ld_exact=None) -> list[str]:
    """Faults of a locating witness and its locating-dominating extension."""
    n = len(nbr)
    out = []
    if not l_set <= set(range(n)) or not ld_set <= set(range(n)):
        return ["witness names a vertex outside the graph"]
    if not is_locating(nbr, l_set):
        out.append("L witness is not locating")
    if not (is_locating(nbr, ld_set) and is_dominating(nbr, ld_set)):
        out.append("LD witness is not locating-dominating")
    if len(ld_set) > len(l_set) + 1 or not l_set <= ld_set:
        out.append("LD witness is not the L witness plus at most one vertex")
    if len(l_set) > locating_limit(n):
        out.append(f"L witness {len(l_set)} > floor((5n-1)/8) = {locating_limit(n)}")
    if len(ld_set) > ld_limit(n):
        out.append(f"LD witness {len(ld_set)} > ceil(5n/8) = {ld_limit(n)}")
    if l_exact is not None and l_exact > len(l_set):
        out.append(f"L = {l_exact} exceeds the witness {len(l_set)}")
    if ld_exact is not None and ld_exact > len(ld_set):
        out.append(f"LD = {ld_exact} exceeds the witness {len(ld_set)}")
    if l_exact is not None and ld_exact is not None and not l_exact <= ld_exact <= l_exact + 1:
        out.append(f"LD = {ld_exact} is not within L..L+1 for L = {l_exact}")
    return out


def optimum_faults(nbr, size: int, witness: set[int], dominating: bool) -> list[str]:
    """Faults of an oracle's optimum witness; its size is checked against golden elsewhere."""
    what = "LD" if dominating else "L"
    out = []
    if len(witness) != size:
        out.append(f"{what} witness has {len(witness)} vertices, reported {size}")
    if not (is_locating(nbr, witness) and (not dominating or is_dominating(nbr, witness))):
        out.append(f"{what} optimum witness does not verify")
    return out


def bound_record_faults(nbr, rec: dict, golden: dict | None) -> list[str]:
    """Faults of a record carrying a certified bound and, optionally, oracles."""
    out = []
    if rec.get("certified") is not True:
        out.append("bound is not certified")
    l_set, ld_set = set(rec["l_witness"]), set(rec["ld_witness"])
    if len(l_set) != rec.get("l_upper", len(l_set)) or len(ld_set) != rec.get("ld_upper", len(ld_set)):
        out.append("witness sizes disagree with the reported upper bounds")
    out += witness_faults(nbr, l_set, ld_set, rec.get("l_exact"), rec.get("ld_exact"))
    if golden is not None:
        for key in ("S", "k", "l_exact", "ld_exact"):
            if key in golden and rec.get(key) != golden[key]:
                out.append(f"{key} = {rec.get(key)}, golden {golden[key]}")
    return out


def sweep_record_faults(rec: dict) -> list[str]:
    """Faults of one ``corpus`` record from a labeled-graph sweep."""
    if "error" in rec or "bound_violation" in rec:
        return [f"record reports {rec.get('error') or rec.get('bound_violation')}"]
    nbr = decode_g6(rec["graph_id"])
    twin_free = all(
        (nbr[u] - {v}) != (nbr[v] - {u}) for v in range(len(nbr)) for u in range(v)
    )
    if twin_free != rec["twin_free"]:
        return [f"twin_free = {rec['twin_free']}, recomputed {twin_free}"]
    if not twin_free:
        return []
    return bound_record_faults(nbr, rec, None)


def sweep_gate_faults(digest: str, summary: list[str], exit_code: int, golden: dict) -> list[str]:
    """Faults of a whole ``corpus all:6`` run against the recorded output."""
    out = []
    if exit_code != 0:
        out.append(f"exit code {exit_code}")
    if summary != golden["summary"]:
        out.append(f"summary {summary} != {golden['summary']}")
    if digest != golden["sha256"]:
        out.append(f"JSONL sha256 {digest} != recorded {golden['sha256']}")
    return out


def partition_faults(nbr, x: set[int], y: set[int], found: bool, golden_found: bool | None) -> list[str]:
    out = []
    if golden_found is not None and found != golden_found:
        out.append(f"found = {found}, golden {golden_found}")
    if found:
        if x & y or x | y != set(range(len(nbr))):
            out.append("x, y is not a bipartition of V")
        elif not (is_locating(nbr, x) and is_locating(nbr, y)):
            out.append("a side of the bipartition is not locating")
    return out


def sk_faults(nbr, k: int, value: int, blocks: list[list[int]], golden_value: int | None) -> list[str]:
    out = []
    sets = [set(b) for b in blocks]
    if len(sets) != k or any(not b for b in sets) or sum(map(len, sets)) != len(nbr) or set().union(*sets) != set(range(len(nbr))):
        out.append(f"witness is not a partition of V into {k} blocks")
    elif sum(separation(nbr, b) for b in sets) != value:
        out.append("witness partition does not attain the reported value")
    if golden_value is not None and value != golden_value:
        out.append(f"s_{k} = {value}, golden {golden_value}")
    return out


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Tally:
    """Counts checked items and failed ones, keeping the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def item(self, item_id: str, faults: list[str]) -> None:
        self.attempted += 1
        if faults:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{item_id}: {'; '.join(faults)}")
