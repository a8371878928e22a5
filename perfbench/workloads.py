"""Seeded generators of CLI argv lists, one per workload.

Each generator yields an endless stream of rounds, each a list of argv.  A
round holds every input stratum once (every modulus, every command kind, or
one modulus from each cost band), and a timed run stops only at the end of a
round, so every run sees the same mix of work whatever the seed; the seed
only picks the values inside each stratum.
The program sees only the argv lists; `--output` is appended by the runner.
"""

from __future__ import annotations

import math
import random
from itertools import chain, count

from chartab import even_primitive_indices, is_fundamental_discriminant, totient

# small moduli that have even primitive characters
RATIO_MODULI = (5, 8, 12, 13, 17, 21, 24, 28, 29)
RATIO_KN = 2048
# positive fundamental discriminants: real, even, primitive, root number +1
ZERO_MODULI = tuple(k for k in range(5, 30) if is_fundamental_discriminant(k))
SUM_MODULI = (5, 8, 12, 13, 17)
# distinct moduli per block; block b covers [80 + 200 b, 280 + 200 b)
CENSUS_START, CENSUS_BLOCK = 80, 200


def csv_rows(text: str):
    """Rows of CLI csv output as dicts of strings; no cell the CLI writes
    holds a comma (the quoted `values` cell uses ';' and ' ')."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _f(x: float, digits: int = 2) -> str:
    return f"{round(x, digits):.{digits}f}"


def _char(k: int, index: int):
    return ["--modulus", str(k), "--char-index", str(index)]


def _real_char(k: int):
    (index,) = even_primitive_indices(k, real_only=True)
    return _char(k, index)


def _spread(rng: random.Random, lo: float, hi: float, n: int):
    """n values, one drawn from each of n equal bins of [lo, hi), shuffled."""
    xs = [rng.uniform(lo + (hi - lo) * i / n, lo + (hi - lo) * (i + 1) / n) for i in range(n)]
    rng.shuffle(xs)
    return xs


def ratio_sweep(rng: random.Random):
    """`ln ratio --jobs 2` on every modulus plus three `ln prop1` per round."""
    for r in count():
        moduli = list(RATIO_MODULI)
        rng.shuffle(moduli)
        ops = []
        for k, t0 in zip(moduli, _spread(rng, 8.0, 30.0, len(moduli))):
            # sigma = 1/2 - h, 1/2, 1/2 + h and two heights: six points for the pool
            h = round(rng.uniform(0.1, 0.4), 2)
            t0 = round(t0, 2)
            dt = round(rng.uniform(2.0, 10.0), 2)
            # the largest cycle has about RATIO_KN vertices whatever k is, so
            # every ratio command does a similar amount of L_n work
            n3 = min(256, round(RATIO_KN / k))
            ns = f"{rng.choice((8, 16, 32))},{n3 // 2},{n3}"
            ops.append(["ln", "ratio", *_char(k, rng.choice(even_primitive_indices(k))),
                        "--sigma-range", f"{_f(0.5 - h)},{_f(0.5 + h)},{_f(h)}",
                        "--t-range", f"{_f(t0)},{_f(t0 + dt)},{_f(dt)}",
                        "--n-list", ns, "--jobs", "2"])
        for k in moduli[r % 3::3]:
            s = f"{_f(rng.uniform(0.05, 0.95))},{_f(rng.uniform(8.0, 40.0))}"
            ops.append(["ln", "prop1", *_char(k, rng.choice(even_primitive_indices(k))),
                        "--s", s, "--n-list", "8,16,32,64,128,256"])
        rng.shuffle(ops)
        yield ops


def zero_scan(rng: random.Random):
    """`l zeros`, `l monotonicity` and `l eval` once per modulus per round,
    on the real even primitive character; heights t spread over each range."""
    n = len(ZERO_MODULI)
    while True:
        ops = []
        for k, lo in zip(ZERO_MODULI, _spread(rng, 8.0, 80.0, n)):
            # two mean zero spacings, so a sign change is almost always inside
            width = 2.0 * 2.0 * math.pi / math.log(k * lo / (2.0 * math.pi))
            ops.append(["l", "zeros", *_real_char(k), "--range", f"{_f(lo)},{_f(lo + width)}"])
        for k, t in zip(ZERO_MODULI, _spread(rng, 8.0, 60.0, n)):
            ops.append(["l", "monotonicity", *_real_char(k), "--t", _f(t)])
        for k, t, sigma in zip(ZERO_MODULI, _spread(rng, 8.0, 90.0, n), _spread(rng, 0.05, 0.95, n)):
            ops.append(["l", "eval", *_real_char(k), "--s", f"{_f(sigma, 3)},{_f(t)}"])
        rng.shuffle(ops)
        yield ops


def census_bands(block: int):
    """The moduli of one block in bands of about ten of similar cost (by
    phi(k) k): six bands of moduli with a real even primitive character,
    which chain a `sums powers`, and fourteen of moduli without, so every
    round has the same command mix and nearly the same cost."""
    lo = CENSUS_START + CENSUS_BLOCK * block
    ks = sorted(range(lo, lo + CENSUS_BLOCK), key=lambda k: (totient(k) * k, k))
    bands = []
    for group, n in (([k for k in ks if is_fundamental_discriminant(k)], 6),
                     ([k for k in ks if not is_fundamental_discriminant(k)], 14)):
        bands += [group[len(group) * i // n:len(group) * (i + 1) // n] for i in range(n)]
    return bands


def _alternate_halves(rng: random.Random, band):
    """The band (in cost order) shuffled so that its cheaper and dearer halves
    take turns: any run of rounds draws evenly from both, whatever the seed."""
    half = len(band) // 2
    low, high = band[:half], band[half:]
    rng.shuffle(low)
    rng.shuffle(high)
    if rng.random() < 0.5:
        low, high = high, low
    out = [k for pair in zip(low, high) for k in pair]
    return out + low[len(high):] + high[len(low):]


def census(rng: random.Random):
    """`characters --modulus k` on distinct k; the runner chains `sums powers`
    on each real even primitive character the command reports."""
    for block in count():
        bands = [_alternate_halves(rng, band) for band in census_bands(block)]
        for r in range(CENSUS_BLOCK // len(bands)):
            ks = [band[r] for band in bands if r < len(band)]
            rng.shuffle(ks)
            yield [["characters", "--modulus", str(k)] for k in ks]


def census_followups(k: int, rows):
    """`sums powers --m-range 2,k+7` for every reported real even primitive row."""
    return [["sums", "powers", *_char(k, int(r["index"])), "--m-range", f"2,{k + 7}"]
            for r in rows
            if int(r["index"]) != 0
            and r["is_even"] == r["is_real"] == r["is_primitive"] == "true"]


def identities(rng: random.Random):
    """Power sums, Faulhaber, cosine scans, Corollary 5 and cycle spectra:
    each kind once per modulus per round, its size parameter spread over bins."""
    n = len(SUM_MODULI)
    while True:
        ops = []
        for k, m in zip(SUM_MODULI, _spread(rng, 100, 171, n)):
            # n >= m/8 keeps every term of the float right-hand side finite
            # and accurate; m stays below 171 where m! overflows a double
            m = int(m)
            ops.append(["sums", "faulhaber", *_real_char(k), "--n", str(-(-m // 8) + rng.randint(0, 6)),
                        "--m", str(m)])
        for k, m, kn in zip(SUM_MODULI, _spread(rng, 250, 401, n), _spread(rng, 40, 100, n)):
            ops.append(["sums", "cos-scan", *_real_char(k), "--n", str(max(1, round(kn / k))),
                        "--m-max", str(int(m))])
        for k, m in zip(SUM_MODULI, _spread(rng, 300, 401, n)):
            ops.append(["sums", "powers", *_real_char(k), "--m-range", f"2,{int(m)}",
                        "--n", str(rng.randint(3, 5))])
        for k, s in zip(SUM_MODULI, _spread(rng, 0.05, 0.95, n)):
            ns = f"{rng.choice((16, 32, 64, 128))},256,512"
            ops.append(["sums", "corollary5", *_real_char(k), "--s", _f(s), "--n-list", ns])
        for k, size in zip(SUM_MODULI, _spread(rng, 200, 700, n)):
            s = f"{_f(rng.uniform(0.1, 0.9))},{_f(rng.uniform(0.0, 5.0))}"
            ops.append(["graph", "lg", *_real_char(k), "--cycle", str(k * max(1, round(size / k))),
                        "--s", s, "--ordering", "frequency"])
        rng.shuffle(ops)
        yield ops


GENERATORS = {
    "ratio-sweep": ratio_sweep,
    "zero-scan": zero_scan,
    "census": census,
    "identities": identities,
}

# Moduli whose character tables are built before timing starts, so only
# census pays for table construction inside the timed region.
WARM_MODULI = {
    "ratio-sweep": RATIO_MODULI,
    "zero-scan": ZERO_MODULI,
    "census": (7,),
    "identities": SUM_MODULI,
}


def rounds(workload: str, seed: int):
    """The endless stream of rounds (lists of argv) of one workload for one seed."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def stream(workload: str, seed: int):
    """The endless argv stream of one workload for one seed."""
    return chain.from_iterable(rounds(workload, seed))
