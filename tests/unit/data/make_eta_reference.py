"""Regenerate the ``eta_reference`` entry of ``exact_oracle_parity.json``.

The entry holds the full-depth eta matrix of 16 uniform scores of width
30 at offsets of 0.1 (the planner tests' ``overlapping_db(16)``),
computed at 50 working digits with mpmath and stored to 40 significant
digits. Each entry integrates the generating function
``f_t(x) [z^m] prod_{j != t} (F_j(x) + (1 - F_j(x)) z)`` by tanh-sinh
quadrature over every segment between the records' bounds; the bounds
are the float values the records carry, converted exactly.

mpmath is not a dependency of the package, so the test suite reads the
committed values and never imports it. Run from the repository root::

    python tests/unit/data/make_eta_reference.py

It takes about a minute.
"""

import json
import pathlib

import mpmath as mp

PARITY = pathlib.Path(__file__).with_name("exact_oracle_parity.json")
RECORDS = 16
WIDTH = 30.0


def reference_eta(bounds):
    """``eta[t][m]`` as mpf values for uniform scores on ``bounds``."""
    n = len(bounds)
    lo = [mp.mpf(a) for a, _ in bounds]
    hi = [mp.mpf(b) for _, b in bounds]
    cuts = sorted(set(lo) | set(hi))

    def cdf(j, x):
        if x <= lo[j]:
            return mp.mpf(0)
        if x >= hi[j]:
            return mp.mpf(1)
        return (x - lo[j]) / (hi[j] - lo[j])

    def coefficients(t, x):
        c = [mp.mpf(1)] + [mp.mpf(0)] * (n - 1)
        for j in range(n):
            if j != t:
                f = cdf(j, x)
                c = [c[0] * f] + [
                    c[m] * f + c[m - 1] * (1 - f) for m in range(1, n)
                ]
        return c

    eta = [[mp.mpf(0)] * n for _ in range(n)]
    for t in range(n):
        density = 1 / (hi[t] - lo[t])
        for a, b in zip(cuts, cuts[1:]):
            if b <= lo[t] or a >= hi[t]:
                continue
            memo = {}  # every rank's quadrature visits the same nodes

            def at(x):
                if x not in memo:
                    memo[x] = coefficients(t, x)
                return memo[x]

            for m in range(n):
                eta[t][m] += mp.quad(lambda x: at(x)[m] * density, [a, b])
    return eta


def main():
    mp.mp.dps = 50
    bounds = [(0.1 * i, 0.1 * i + WIDTH) for i in range(RECORDS)]
    eta = reference_eta(bounds)
    data = json.loads(PARITY.read_text())
    data["eta_reference"] = {
        "records": [
            {"id": f"r{i:03d}", "family": "uniform", "params": list(b)}
            for i, b in enumerate(bounds)
        ],
        "eta": [
            [mp.nstr(v, 40, strip_zeros=False) for v in row] for row in eta
        ],
    }
    write_parity(data)


def write_parity(data):
    """Write the fixture with one record list and one state per line."""
    dump = json.dumps
    lines = ["{", f' "about": {dump(data["about"])},', ' "tables": {']
    tables = list(data["tables"].items())
    for pos, (name, table) in enumerate(tables):
        states = ",\n".join(f"    {dump(s)}" for s in table["states"])
        lines += [
            f"  {dump(name)}: {{",
            f'   "records": {dump(table["records"])},',
            '   "states": [',
            states,
            "   ]",
            "  }" + ("," if pos + 1 < len(tables) else ""),
        ]
    reference = data["eta_reference"]
    rows = ",\n".join(f"   {dump(row)}" for row in reference["eta"])
    lines += [
        " },",
        ' "eta_reference": {',
        f'  "records": {dump(reference["records"])},',
        '  "eta": [',
        rows,
        "  ]",
        " }",
        "}",
    ]
    PARITY.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
