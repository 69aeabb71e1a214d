"""Per-op output checks.

Each check derives what it expects from the op's drawn parameters and the
independent arithmetic in ``oracle``; none compares against stored output.
``check(op, rc, out, gf)`` returns None when the output is right, else a
one-line reason.  A failed check is counted, never raised.
"""

from __future__ import annotations

import json

from oracle import GF, li_wan, special_min_weight_count


class Mismatch(Exception):
    pass


def _expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


def _counts(values) -> list[int]:
    return [int(v) for v in values]


def _check_distribution(counts: list[int], length: int, q: int, dim: int, what: str):
    _expect(len(counts) == length + 1, f"{what}: {len(counts)} entries for length {length}")
    _expect(counts[0] == 1 and min(counts) >= 0, f"{what}: A_0 != 1 or a negative count")
    _expect(sum(counts) == q**dim, f"{what}: total {sum(counts)} != q^{dim}")


def _check_special_pair(spec: dict, gf: GF, primal: list[int], dual: list[int]):
    q, k = spec["q"], spec["k"]
    length = q + 2
    _check_distribution(primal, length, q, k, "distribution")
    _check_distribution(dual, length, q, length - k, "dual distribution")
    a_min = primal[length - k]
    _expect(not any(primal[1 : length - k]), "primal weight below n-k")
    _expect(not any(dual[1:k]), "dual weight below k")
    census = special_min_weight_count(gf, k, spec["M"])
    _expect(a_min == dual[k] == census,
            f"A_min {a_min} / dual {dual[k]} / census {census} disagree")


def _check_witness(spec: dict, gf: GF, alpha: list[int], res: dict):
    k, mix = spec["k"], spec["M"]
    if "witness" in res:
        w = res["witness"]
        m, j, subset = int(w["m"]), int(w["j"]), _counts(w["subset"])
        _expect(m in (1, 2) and j in (1, 2), f"witness m={m} j={j} out of range")
        _expect(len(subset) == k - m, f"witness has {len(subset)} points, want k-m = {k - m}")
        _expect(len(set(subset)) == len(subset) and set(subset) <= set(alpha),
                "witness is not a subset of the evaluation points")
        _expect(mix[j - 1] != 0, "witness names a column with a_1j = 0")
        _expect(gf.total(subset) == gf.div(mix[j + 1], mix[j - 1]),
                "witness does not sum to the mixing ratio")
        _expect(res["mds"] is False, "a witness came with mds = true")
    elif "alpha_zero_index" in res:
        _expect(alpha[int(res["alpha_zero_index"])] == 0, "alpha_zero_index points at a nonzero")
        _expect(res["mds"] is False and res["dual_amds"] is False, "zero point but MDS/dual-AMDS")
    else:
        _expect(res["mds"] is True, "mds = false without a witness")
    if "alpha_zero_index" not in res:
        _expect(res["dual_amds"] is (not res["mds"]), "dual AMDS is not the negation of MDS")


def _generator(spec: dict, gf: GF) -> list[list[int]]:
    n, k, t = spec["n"], spec["k"], spec["t"]
    rows = []
    for i in range(k):
        row = [gf.mul(v, gf.power(a, i)) for v, a in zip(spec["v"], spec["alpha"])]
        row += spec["M"][2 * (i - k + 2) : 2 * (i - k + 2) + 2] if i >= k - 2 else [0, 0]
        row.append(spec["b"] if i == t else 0)
        rows.append(row)
    _expect(len(rows[0]) == n + 3, "generator width")
    return rows


def _matrix(text: str) -> list[list[int]]:
    lines = text.splitlines()
    rows, cols = map(int, lines[0].split())
    data = [[int(x) for x in ln.split()] for ln in lines[1:]]
    _expect(len(data) == rows and all(len(r) == cols for r in data), "matrix text shape")
    return data


def _check_report(op, out: str, gf: GF | None) -> None:
    spec = op.spec
    report = json.loads(out)
    _expect(report.get("schema") == 1, "schema != 1")
    agreement = report.get("oracle_agreement")
    if agreement is not None:
        _expect(all(v is True for v in agreement.values()), f"oracle_agreement {agreement}")
    res = report["results"]
    kind = op.kind
    if gf is not None and "field" in report["instance"]:
        _expect(report["instance"]["field"] == gf.field_text(), "field modulus differs")
    if kind in ("weights-both", "weights-formula"):
        primal, dual = _counts(res["distribution"]), _counts(res["dual_distribution"])
        _check_special_pair(spec, gf, primal, dual)
        if kind == "weights-both":
            _expect(agreement is not None, "no oracle_agreement")
            _expect(_counts(res["brute_distribution"]) == primal, "brute != closed form")
    elif kind == "weights-brute":
        counts = _counts(res["brute_distribution"])
        _check_distribution(counts, spec["n"] + 3, spec["q"], spec["k"], "brute distribution")
        _expect(_counts(res["distribution"]) == counts, "distribution != brute distribution")
    elif kind in ("classify", "classify-verify"):
        alpha = _counts(report["instance"]["alpha"])
        if kind == "classify":
            _expect(sorted(alpha) == gf.units(), "special instance is not on F_q^*")
        else:
            _expect(alpha == spec["alpha"], "instance alpha differs from the input")
            _expect(agreement is not None and len(agreement) == 2, "no oracle_agreement")
            cls = res["classification"]
            n, k = spec["n"] + 3, spec["k"]
            _expect(_counts(cls["parameters"])[:2] == [n, k], "classification parameters")
        _check_witness(spec, gf, alpha, res)
    elif kind == "construct-h":
        g, h = _matrix(res["G"]), _matrix(res["H"])
        n, k = spec["n"], spec["k"]
        _expect(g == _generator(spec, gf), "G differs from the EGRL generator")
        _expect(len(h) == n - k + 3, f"H has {len(h)} rows, want n-k+3 = {n - k + 3}")
        _expect(not any(any(r) for r in gf.matmul_t(g, h)), "G H^T != 0")
        _expect(gf.rank(h) == n - k + 3, "rank(H) != n-k+3")
    elif kind in ("subsetsum-both", "subsetsum-lw"):
        want = li_wan(spec["q"], spec["domain"], spec["m"], spec["b"])
        _expect(int(res["count"]) == want, f"count {res['count']} != Li-Wan {want}")
        if kind == "subsetsum-both":
            _expect(agreement is not None, "no oracle_agreement")
            _expect(int(res["dp"]) == int(res["closed_form"]) == want, "DP != Li-Wan")
    else:
        raise Mismatch(f"no check for op kind {kind!r}")


def check(op, rc, out: str, gf: GF | None) -> str | None:
    """None if the op's output is right, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        if op.kind == "macwilliams":
            primal, dual, transformed = (_counts(v) for v in json.loads(out))
            _check_special_pair(op.spec, gf, primal, dual)
            _expect(transformed == dual, "macwilliams(primal) != closed dual")
        else:
            _check_report(op, out, gf)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
