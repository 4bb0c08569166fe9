"""Print one SHA-1 over the bits of a fixed, seeded sample of library results.

Usage: ``python tests/fingerprint.py`` from a checkout; it imports the package from that
checkout's ``src``.  pytest does not collect it (its name does not start with ``test_``).

Two trees that print the same hash returned the same bits on every call of the sample, so a
change meant to keep every result can be checked by running it on both.  The sample covers
all three form-factor families at mu != 1 (and sharp Lambda <= mu, an empty range), the
moment orders (1,), (2,), (1, 2) and (0, 1, 2), the norm integral, and bare and renormalized
full reports, bare ones also at and above a threshold of 0 and just below it at g0 = 1e150;
a call that raises contributes its error's type name and message.  It ends with
the bytes that ``leemodel.cli.emit`` writes for three fixed sweeps in CSV and in JSON: a bare
sharp g0 sweep, a renormalized dipole g sweep across x = 1 and a bare g0 sweep whose first
point has no bound state (one error row, whose text holds a comma).  Every value is hashed by
its repr, which round-trips a float exactly.  The hash is for reading: it is not a gate, and
a change that moves bits on purpose moves it.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from leemodel import (BareCoupling, FormFactor, LeeModelError, ModelParams,  # noqa: E402
                      QuadSpec, RenCoupling, full_report, norm_integral, spectral_moments)
from leemodel.cli import emit, parse_config, run_sweep  # noqa: E402

SEED = 20250
DRAWS = 300
ORDERS = ((1,), (2,), (1, 2), (0, 1, 2))
SPECS = (QuadSpec(), QuadSpec(1e-13, 1e-12))
SWEEPS = (
    {"input": {"mode": "bare", "m_V0": 1.8},
     "sweep": {"parameter": "g0", "start": 0.0, "stop": 2.0, "steps": 9}},
    {"model": {"m_N": 0.7, "mu": 1.3, "form_factor": {"kind": "dipole", "lambda": 4.0}},
     "input": {"mode": "renormalized", "m_V": 1.5},
     "sweep": {"parameter": "g", "start": 0.0, "stop": 9.0, "steps": 8}},
    {"input": {"mode": "bare", "m_V0": 2.05},
     "sweep": {"parameter": "g0", "start": 0.0, "stop": 3.0, "steps": 7}},
)


def outcome(call):
    """The call's result, or the type name and message of the typed error it raised."""
    try:
        return call()
    except (LeeModelError, ValueError) as err:
        return type(err).__name__, str(err)


def sample():
    """The sample's (label, outcome) records, in a fixed order."""
    rng = random.Random(SEED)
    for i in range(DRAWS):
        kind = ("sharp", "exponential", "dipole")[i % 3]
        mu = 10.0 ** rng.uniform(-3.0, 3.0)
        m_n = mu * rng.choice((0.0, 1.0, 3.5, -0.5))
        lam = mu * 10.0 ** rng.uniform(-0.3 if kind == "sharp" else -1.0, 3.0)
        params = outcome(lambda: ModelParams(m_n, mu, FormFactor(kind, lam)))
        yield "model", (kind, mu, m_n, lam, params)
        if not isinstance(params, ModelParams):
            continue
        thr, spec = params.threshold, SPECS[i % 2]
        m = thr - mu * 10.0 ** rng.uniform(-12.0, 1.0)
        orders = ORDERS[i % 4]
        yield "moments", (m, orders, outcome(lambda: spectral_moments(m, params, spec, orders)))
        g0 = rng.uniform(0.0, 4.0)
        yield "norm", (g0, outcome(lambda: norm_integral(params, g0, m, spec)))
        bare = BareCoupling(thr + mu * rng.uniform(-2.0, 1.0), 10.0 ** rng.uniform(-2.0, 2.0))
        yield "bare", (bare, outcome(lambda: full_report(params, bare, spec)))
        ren = RenCoupling(m, rng.uniform(0.0, 8.0))
        yield "renormalized", (ren, outcome(lambda: full_report(params, ren, spec)))
    # typed errors at the threshold, and I2 and the norm at delta = 1e-30 mu, which a kappa
    # floor of 1e-9 mu once refused with NoConvergence (the labels keep that name)
    params = ModelParams(-1.0, 1.0, FormFactor.sharp(10.0))
    yield "at threshold", outcome(lambda: spectral_moments(0.0, params, SPECS[0], (1, 2)))
    yield "norm at threshold", outcome(lambda: norm_integral(params, 1.0, 0.0, SPECS[0]))
    yield "kappa floor", outcome(lambda: spectral_moments(-1e-30, params, SPECS[0], (2,)))
    yield "norm at the kappa floor", outcome(lambda: norm_integral(params, 1.0, -1e-30, SPECS[0]))
    # bare solves at and above a threshold of 0, which start at LEAST_DELTA (a result, the
    # float-range refusal and no bound state), and just below it at g0 = 1e150, where
    # c I2 overflows at delta0 but not at the root
    for kind in ("sharp", "exponential", "dipole"):
        params = ModelParams(-1.0, 1.0, FormFactor(kind, 10.0))
        for m_v0, g0 in ((0.0, 1.0), (0.5, 1.0), (0.0, 1e-80), (0.5, 1e-3), (-1e-30, 1e150),
                         (-1e-100, 1e150)):
            bare = BareCoupling(m_v0, g0)
            yield "bare at a threshold of 0", (bare, outcome(
                lambda: full_report(params, bare, SPECS[0])))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table"
        for doc in SWEEPS:
            table = run_sweep(parse_config(json.dumps(doc)))
            for out_format in ("csv", "json"):
                emit(table, out_format, str(path))
                yield f"{out_format} table", path.read_bytes()


def main() -> None:
    digest, count = hashlib.sha1(), 0
    for record in sample():
        digest.update(repr(record).encode() + b"\n")
        count += 1
    print(f"fingerprint {digest.hexdigest()} over {count} records")


if __name__ == "__main__":
    main()
