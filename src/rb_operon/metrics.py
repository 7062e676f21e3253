"""Relative error measures on the free block and their aggregation.

Three measures per test parameter: rel-L2 (interior mass norm), rel-energy
(interior stiffness norm at the reference parameter), and rel-residual (the
reduced residual against the reduced load, both measured in the inverse of
the reduced reference operator).  Aggregates are the mean and the
nearest-rank 95th percentile.
"""

import numpy as np
from dataclasses import dataclass, field
from scipy.linalg.lapack import dtrtrs

from .reduction import reduced_cholesky, reduced_operator


@dataclass
class MetricContext:
    """Per-run fixed weights: mass, reference stiffness, reduced Cholesky."""

    m_ii: object                 # sparse interior mass matrix
    a_ii_star: object            # sparse interior stiffness at k_star
    chol_star_rb: np.ndarray     # lower Cholesky factor of A_rb(k_star)


def metric_context(model, space, m_ii):
    a_star_rb = reduced_operator(space.a_blocks, model.theta_a(model.k_star))
    return MetricContext(
        m_ii=m_ii,
        a_ii_star=model.a_star_II,
        chol_star_rb=reduced_cholesky(a_star_rb, "k_star"),
    )


def _rel_norm(mat, err, ref):
    num = err @ (mat @ err)
    den = ref @ (mat @ ref)
    if den <= 0.0:
        return 0.0 if num <= 0.0 else np.inf
    return float(np.sqrt(max(num, 0.0) / den))


def reduced_dual_norm(ell, r):
    """||ell^-1 r||: the dual norm of r for the reduced operator ell ell^T.

    ``ell`` is lower triangular; only that triangle is read.  The F-ordered
    factor ``reduced_cholesky`` returns reaches LAPACK without a copy.
    """
    z, info = dtrtrs(ell, r, lower=1)
    if info:
        raise ValueError(f"dtrtrs failed with info={info}")
    return float(np.linalg.norm(z))


def sample_metrics(ctx, u_ref, u_pred, a_rb, f_rb, c):
    """(rel_l2, rel_energy, rel_residual) for one test parameter.

    ``u_ref``/``u_pred`` are free-node fields; ``a_rb``/``f_rb`` the reduced
    system at the test parameter and ``c`` the coefficients being judged.
    """
    err = u_pred - u_ref
    rel_l2 = _rel_norm(ctx.m_ii, err, u_ref)
    rel_energy = _rel_norm(ctx.a_ii_star, err, u_ref)
    num = reduced_dual_norm(ctx.chol_star_rb, f_rb - a_rb @ c)
    den = reduced_dual_norm(ctx.chol_star_rb, f_rb)
    rel_residual = float(num / den) if den > 0.0 else (0.0 if num == 0.0 else np.inf)
    return rel_l2, rel_energy, rel_residual


def percentile_95(values):
    """Nearest-rank p95: the ceil(0.95 n)-th smallest value (1-based)."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("no values to aggregate")
    rank = int(np.ceil(0.95 * v.size))
    return float(v[rank - 1])


MEASURES = ("rel_l2", "rel_energy", "rel_residual")


@dataclass
class MethodMetrics:
    """Per-sample values of the three measures for one surrogate."""

    rel_l2: np.ndarray
    rel_energy: np.ndarray
    rel_residual: np.ndarray

    @classmethod
    def from_triples(cls, triples):
        arr = np.asarray(triples, dtype=float).reshape(-1, 3)
        return cls(rel_l2=arr[:, 0], rel_energy=arr[:, 1], rel_residual=arr[:, 2])

    def summary(self):
        out = {}
        for name in MEASURES:
            vals = getattr(self, name)
            out[name] = {"mean": float(np.mean(vals)), "p95": percentile_95(vals)}
        return out


@dataclass
class MetricsReport:
    """All methods' measures over one test set, plus run identification."""

    methods: dict
    n_samples: int
    seed: int
    footnote: str = ""
    extras: dict = field(default_factory=dict)

    def summary(self):
        return {name: m.summary() for name, m in self.methods.items()}

    def to_json_dict(self):
        per_sample = {
            name: {meas: getattr(m, meas).tolist() for meas in MEASURES}
            for name, m in self.methods.items()
        }
        return {
            "n_samples": self.n_samples,
            "seed": self.seed,
            "summary": self.summary(),
            "per_sample": per_sample,
            "footnote": self.footnote,
            "extras": self.extras,
        }

    def format_table(self):
        """Aligned text table, one row per method, mean / p95 per measure."""
        headers = ["method"] + [f"{m} (mean / p95)" for m in MEASURES]
        rows = []
        for name, m in self.methods.items():
            s = m.summary()
            rows.append([name] + [
                f"{s[meas]['mean']:.3e} / {s[meas]['p95']:.3e}" for meas in MEASURES])
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(x.ljust(w) for x, w in zip(r, widths)))
        if self.footnote:
            lines.append("")
            lines.append(f"note: {self.footnote}")
        return "\n".join(lines) + "\n"
