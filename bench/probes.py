"""Layer probes: single layers timed on fixed inputs in a fresh process.

Each probe builds its inputs untimed and times only the call into the
layer.  ``find_irreducible`` is timed first, while its cache is still cold;
the other probes then reuse the fields it found.
"""

import random
import time

from stats import median

from wittforge import linalg
from wittforge.complexes import graded_homology_dims, hom_complex, infer_grading, tensor
from wittforge.fields import FieldSpec, find_irreducible
from wittforge.koszul import koszul_complex
from wittforge.transfer import ExtensionDatum, scharlau_transfer
from wittforge.verify import coordinate_datum, extension_of, qsqrt, random_nondegenerate

clock = time.perf_counter


def _per_op_us(op, pairs, batches=3, min_batch_s=0.03):
    """Median over batches of the time per call of ``op(a, b)``, in microseconds."""
    reps = 1
    while True:
        start = clock()
        for _ in range(reps):
            for a, b in pairs:
                op(a, b)
        if clock() - start >= min_batch_s:
            break
        reps *= 2
    per_op = []
    for _ in range(batches):
        start = clock()
        for _ in range(reps):
            for a, b in pairs:
                op(a, b)
        per_op.append((clock() - start) / (reps * len(pairs)) * 1e6)
    return median(per_op)


def _timed(fn, repeats=1):
    times = []
    for _ in range(repeats):
        start = clock()
        fn()
        times.append(clock() - start)
    return median(times)


def _graded_matrices(cx, t):
    """Every differential of ``cx`` in internal degree ``t``, as dense matrices."""
    ring = cx.ring
    grading = infer_grading(cx)

    def basis(n):
        return [
            (u, mono)
            for u in range(cx.rank(n))
            if t - grading[(n, u)] >= 0
            for mono in ring.monomials_of_degree(t - grading[(n, u)])
        ]

    mats = []
    for n, d in sorted(cx.diffs.items()):
        src, dst = basis(n), basis(n - 1)
        index = {key: i for i, key in enumerate(dst)}
        mat = linalg.zeros(ring.field, len(dst), len(src))
        for c, (u, mono) in enumerate(src):
            for v in range(cx.rank(n - 1)):
                for exp, coef in d[v][u].terms.items():
                    r = index.get((v, tuple(x + y for x, y in zip(exp, mono))))
                    if r is not None:
                        mat[r][c] = mat[r][c] + coef
        mats.append(mat)
    return mats


def run(seed):
    rng = random.Random(seed)
    out = {}
    F3, F7 = FieldSpec.Fp(3), FieldSpec.Fp(7)
    out["fields.find_irreducible_s.F7d9"] = _timed(lambda: find_irreducible(F7, 9))

    fields = {
        "F7": F7,
        "F7d9": extension_of(F7, 9),
        "F27d3": extension_of(extension_of(F3, 3), 3),
        "Qsqrt2": qsqrt(2),
    }
    for label, field in fields.items():
        pairs = [(field.random_nonzero(rng), field.random_nonzero(rng)) for _ in range(16)]
        out[f"fields.mul_us.{label}"] = _per_op_us(lambda a, b: a * b, pairs)
        out[f"fields.inv_us.{label}"] = _per_op_us(lambda a, b: a.inverse(), pairs)

    kos = koszul_complex(coordinate_datum(4))
    mats = [m for m in _graded_matrices(kos, 6) if m and m[0]]
    out["linalg.rank_s.kos4-t6"] = _timed(lambda: [linalg.rank(kos.ring.field, m) for m in mats], 3)
    kos_sq = tensor(kos, kos)
    out["complexes.hom_complex_s.kos4"] = _timed(lambda: hom_complex(kos, kos_sq))
    out["complexes.graded_homology_s.kos4-t6"] = _timed(lambda: graded_homology_dims(kos, 6))

    ext = ExtensionDatum(extension_of(F3, 3), F3)
    form = random_nondegenerate(ext.top, rng, 2)
    out["transfer.scharlau_s.F27-F3"] = _timed(lambda: scharlau_transfer(ext, form), 5)
    return out

