"""Structured matrix generators: random Toeplitz and block-Toeplitz
families, quasi-periodic diagonals, the geometric-decay benchmark system,
and Toeplitz matrices built from a symbol.

All randomness comes from numpy's PCG64 generator seeded from the spec,
so a spec regenerates its matrix bit for bit.  Entries are drawn N(0,1)
real.  block_toeplitz and quasi_periodic are the only kinds held as an
n x n array, and they are stored float64, half the bytes of complex; the
package reads a real matrix without a complex copy (core.require_square).
The Toeplitz kinds (toeplitz, example1, symbol_toeplitz) are complex128
read-only views of their 2n - 1 diagonals (core.Toeplitz.dense), where
real storage would save nothing and a real A would be cast to a complex
copy by every product a @ x with a complex x.

KIND_FIELDS names the spec fields each kind's generator reads besides
kind and n, seed among them for the kinds that draw, and FORM_FIELDS the
symbol fields each form reads besides form.  Any other field must keep
its default, or the spec raises ConfigError, and the JSON form holds
exactly the fields that are read.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import ConfigError, Toeplitz

__all__ = [
    "SymbolSpec",
    "StructuredMatrixSpec",
    "generate",
    "gen_toeplitz",
    "gen_example1",
    "gen_block_toeplitz",
    "gen_quasi_periodic",
    "eval_symbol",
    "gen_symbol_toeplitz",
    "banded_diag_sequence",
]

KIND_FIELDS = {
    "toeplitz": ("seed", "symmetric"),
    "block_toeplitz": ("seed", "m", "symmetric", "make_pd", "target_condition"),
    "quasi_periodic": ("seed", "periods"),
    "example1": (),
    "symbol_toeplitz": ("symbol",),
}
FORM_FIELDS = {
    "banded": ("trig",),
    "product": ("poly", "trig", "truncation"),
    "sum": ("poly", "trig", "truncation"),
}
# the type each scalar spec field must have, whatever the kind
_SCALAR_TYPES = {
    "n": numbers.Integral,
    "seed": numbers.Integral,
    "m": numbers.Integral,
    "symmetric": bool,
    "make_pd": bool,
    "target_condition": numbers.Real,
}


def _reject_unread(spec, label: str, read: tuple) -> None:
    """ConfigError when a field outside read differs from its default."""
    unread = [
        f.name for f in fields(spec) if f.name not in read and getattr(spec, f.name) != f.default
    ]
    if unread:
        raise ConfigError(f"{label} does not read {unread}; it reads only {list(read)}")


@dataclass(frozen=True)
class SymbolSpec:
    """A function on the unit circle given as polynomial and trig parts.

    form selects how the parts combine at angle theta:
      * "banded":  sum_k trig[k] * exp(i*k*theta)
      * "product": poly(theta) * sum_k trig[k] * exp(i*k*theta)
      * "sum":     poly(theta) + sum_k trig[k] * exp(i*k*theta)

    poly holds ascending power coefficients in theta.  truncation bounds
    the Fourier orders kept when building a matrix from a non-banded
    form; None means n-1.  A banded form reads trig alone (FORM_FIELDS).
    """

    form: str
    poly: tuple = ()
    trig: tuple = ()  # pairs (k, a_k)
    truncation: int | None = None

    def __post_init__(self):
        if self.form not in FORM_FIELDS:
            raise ConfigError(f"unknown symbol form {self.form!r}")
        object.__setattr__(self, "poly", tuple(complex(c) for c in self.poly))
        trig = self.trig.items() if isinstance(self.trig, dict) else self.trig
        object.__setattr__(self, "trig", tuple((int(k), complex(a)) for k, a in trig))
        orders = [k for k, _ in self.trig]
        if len(set(orders)) < len(orders):
            raise ConfigError(f"trig repeats an order: {orders}")
        _reject_unread(self, f"symbol form {self.form!r}", ("form", *FORM_FIELDS[self.form]))
        if self.truncation is not None and not (
            isinstance(self.truncation, numbers.Integral) and self.truncation >= 0
        ):
            raise ConfigError(f"truncation must be an integer >= 0 or None, got {self.truncation!r}")
        if self.form == "banded" and not self.trig:
            raise ConfigError("banded symbol needs at least one trig coefficient")

    def to_json_dict(self) -> dict:
        d = {
            "form": self.form,
            "poly": [[c.real, c.imag] for c in self.poly],
            "trig": [[k, a.real, a.imag] for k, a in self.trig],
            "truncation": self.truncation,
        }
        return {name: d[name] for name in ("form", *FORM_FIELDS[self.form])}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SymbolSpec":
        d = dict(d)
        if "poly" in d:
            d["poly"] = tuple(complex(re, im) for re, im in d["poly"])
        if "trig" in d:
            d["trig"] = tuple((k, complex(re, im)) for k, re, im in d["trig"])
        return cls(**d)


@dataclass(frozen=True)
class StructuredMatrixSpec:
    kind: str
    n: int
    m: int = 1
    periods: tuple[int, ...] = ()
    symmetric: bool = False
    seed: int = 0
    symbol: SymbolSpec | None = None
    make_pd: bool = False
    target_condition: float = 1.0e4

    def __post_init__(self):
        if self.kind not in KIND_FIELDS:
            raise ConfigError(f"unknown matrix kind {self.kind!r}, expected one of {[*KIND_FIELDS]}")
        for name, want in _SCALAR_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, want):
                raise ConfigError(f"{name} must be {want.__name__.lower()}, got {value!r}")
        if not all(isinstance(p, numbers.Integral) for p in self.periods):
            raise ConfigError(f"periods must be integers, got {self.periods!r}")
        if self.n < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "periods", tuple(int(p) for p in self.periods))
        _reject_unread(self, f"kind {self.kind!r}", ("kind", "n", *KIND_FIELDS[self.kind]))

    def to_json_dict(self) -> dict:
        """kind, n and the kind's own fields: what the generator reads."""
        d = {name: getattr(self, name) for name in ("kind", "n", *KIND_FIELDS[self.kind])}
        if self.symbol is not None:
            d["symbol"] = self.symbol.to_json_dict()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "StructuredMatrixSpec":
        """The spec a JSON object describes; any malformed one raises ConfigError."""
        try:
            d = dict(d)
            if d.get("symbol") is not None:
                d["symbol"] = SymbolSpec.from_json_dict(d["symbol"])
            return cls(**d)
        except (TypeError, ValueError) as e:  # ConfigError included
            raise ConfigError(f"malformed spec: {e}") from e

    @classmethod
    def from_json_file(cls, path) -> "StructuredMatrixSpec":
        try:
            with open(path) as f:
                d = json.load(f)
        except (OSError, ValueError) as e:  # json.JSONDecodeError is a ValueError
            raise ConfigError(f"cannot read spec file {path}: {e}") from e
        return cls.from_json_dict(d)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def gen_toeplitz(spec: StructuredMatrixSpec) -> np.ndarray:
    """Random Toeplitz: one N(0,1) draw per diagonal, mirrored if symmetric."""
    if spec.kind != "toeplitz":
        raise ConfigError(f"gen_toeplitz got kind {spec.kind!r}")
    n = spec.n
    rng = _rng(spec.seed)
    if spec.symmetric:
        half = rng.standard_normal(n)
        vals = np.concatenate([half[:0:-1], half])
    else:
        vals = rng.standard_normal(2 * n - 1)
    return Toeplitz(vals.astype(np.complex128)).dense()


def gen_example1(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The geometric-decay benchmark system: first row (2, -1/2, ..., -1/2^{n-1}).

    Symmetric Toeplitz, diagonally dominant with row margin
    2^{-p} + 2^{-(n-1-p)} > 0, hence positive definite.  Right-hand side
    is (1, 2, ..., n).
    """
    if n < 1:
        raise ConfigError(f"dimension must be >= 1, got {n}")
    first = np.zeros(n, dtype=np.complex128)
    first[0] = 2.0
    if n > 1:
        first[1:] = -(0.5 ** np.arange(1, n))
    # the first row is conj(first), as scipy.linalg.toeplitz(first) reads
    # it, so the imaginary parts above the diagonal are -0.0
    a = Toeplitz(np.concatenate([first[:0:-1], first[:1], first[1:].conj()])).dense()
    b = np.arange(1, n + 1, dtype=np.complex128)
    return a, b


def gen_block_toeplitz(spec: StructuredMatrixSpec, info: dict | None = None) -> np.ndarray:
    """Constant m x m blocks along block diagonals, N(0,1) block entries;
    float64.

    symmetric draws only the upper block diagonals, symmetrizes the
    blocks themselves and mirrors them, giving a symmetric matrix with
    symmetric blocks.  make_pd (symmetric only) then shifts by alpha*I
    with alpha solving for the target condition number exactly; the
    achieved value lands in info["achieved_condition"] when a dict is
    passed.
    """
    if spec.kind != "block_toeplitz":
        raise ConfigError(f"gen_block_toeplitz got kind {spec.kind!r}")
    n, m = spec.n, spec.m
    if m < 1 or n % m:
        raise ConfigError(f"block size {m} must divide dimension {n}")
    if spec.make_pd and not spec.symmetric:
        raise ConfigError("make_pd only applies to symmetric block-Toeplitz matrices")
    nb = n // m
    rng = _rng(spec.seed)
    if spec.symmetric:
        upper = rng.standard_normal((nb, m, m))
        upper = (upper + upper.transpose(0, 2, 1)) / 2
        blocks = np.concatenate([upper[:0:-1], upper])  # G_{-d} = G_d
    else:
        blocks = rng.standard_normal((2 * nb - 1, m, m))

    bi = np.arange(nb)
    sel = blocks[(bi[None, :] - bi[:, None]) + nb - 1]  # (nb, nb, m, m)
    a = sel.transpose(0, 2, 1, 3).reshape(n, n)

    if spec.make_pd:
        if spec.target_condition <= 1.0:
            raise ConfigError(f"target condition must exceed 1, got {spec.target_condition}")
        eigs = np.linalg.eigvalsh(a)
        lo, hi = eigs[0], eigs[-1]
        if hi - lo < 1e-12 * max(abs(hi), abs(lo), 1.0):
            raise ConfigError("cannot condition a matrix with a degenerate spectrum")
        delta = (hi - lo) / (spec.target_condition - 1.0)
        alpha = delta - lo
        a.flat[:: n + 1] += alpha  # a + alpha I
        if info is not None:
            info["shift"] = float(alpha)
            info["achieved_condition"] = float((hi + alpha) / (lo + alpha))
    return a


def gen_quasi_periodic(spec: StructuredMatrixSpec) -> np.ndarray:
    """Each of the 2n-1 diagonals gets its own period drawn from the list
    and a fresh random pattern of that length tiled along it.

    Periods are drawn uniformly per diagonal, in diagonal order
    d = -(n-1) .. n-1.  Tiling starts at the first element of the diagonal.
    float64.
    """
    if spec.kind != "quasi_periodic":
        raise ConfigError(f"gen_quasi_periodic got kind {spec.kind!r}")
    if not spec.periods:
        raise ConfigError("quasi_periodic needs a nonempty period list")
    if any(p < 1 for p in spec.periods):
        raise ConfigError(f"periods must be positive, got {spec.periods}")
    n = spec.n
    rng = _rng(spec.seed)
    a = np.zeros((n, n))
    idx = np.arange(n)
    for d in range(-(n - 1), n):
        p = int(rng.choice(np.asarray(spec.periods)))
        pattern = rng.standard_normal(p)
        length = n - abs(d)
        tiled = np.resize(pattern, length)
        if d >= 0:
            a[idx[:length], idx[:length] + d] = tiled
        else:
            a[idx[:length] - d, idx[:length]] = tiled
    return a


def _trig_sum(trig, theta):
    total = np.zeros_like(np.asarray(theta, dtype=np.complex128))
    for k, ak in trig:
        total = total + ak * np.exp(1j * k * np.asarray(theta, dtype=float))
    return total


def eval_symbol(sym: SymbolSpec, theta):
    """Value of the symbol at angle theta in [0, 2*pi); broadcasts."""
    th = np.asarray(theta, dtype=float)
    if np.any(th < 0) or np.any(th >= 2 * np.pi):
        raise ValueError("theta out of range [0, 2*pi)")
    trig = _trig_sum(sym.trig, th)
    if sym.form == "banded":
        out = trig
    else:
        p = np.polynomial.polynomial.polyval(th, np.asarray(sym.poly, dtype=np.complex128))
        out = p * trig if sym.form == "product" else p + trig
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return complex(out)
    return out


def symbol_coefficients(sym: SymbolSpec, n: int, resolution: int | None = None) -> np.ndarray:
    """Fourier coefficients a_{-(n-1)} .. a_{n-1} of the symbol.

    Banded forms are exact.  Other forms are integrated on a uniform
    grid of at least 16n points (power of two), one FFT; truncation
    zeroes orders beyond the requested cutoff.
    """
    trunc = sym.truncation if sym.truncation is not None else n - 1
    if trunc > n - 1:
        raise ConfigError(f"truncation {trunc} exceeds n-1 = {n - 1}")
    vals = np.zeros(2 * n - 1, dtype=np.complex128)
    if sym.form == "banded":
        for k, ak in sym.trig:
            if abs(k) > n - 1:
                raise ConfigError(f"band order {k} does not fit in dimension {n}")
            vals[k + n - 1] = ak
        return vals
    if resolution is None:
        resolution = 1 << max(int(np.ceil(np.log2(16 * n))), 4)
    theta = 2 * np.pi * np.arange(resolution) / resolution
    samples = eval_symbol(sym, theta)
    coeffs = np.fft.fft(samples) / resolution  # coeffs[k] = a_k, k mod resolution
    for k in range(-trunc, trunc + 1):
        vals[k + n - 1] = coeffs[k % resolution]
    return vals


def gen_symbol_toeplitz(sym: SymbolSpec, n: int) -> np.ndarray:
    """Toeplitz matrix whose diagonals are the symbol's Fourier coefficients."""
    if n < 1:
        raise ConfigError(f"dimension must be >= 1, got {n}")
    return Toeplitz(symbol_coefficients(sym, n)).dense()


def banded_diag_sequence(first_row, first_col, n: int) -> np.ndarray:
    """Transform diagonal of a banded Toeplitz matrix, in closed form.

    first_row holds a_0 .. a_l (upper band), first_col holds a_0 .. a_{-m}
    (lower band); both start with a_0 and must agree there.  Returns
    cycle 0 of core.Toeplitz, the positive-kernel DFT of the length-n
    weighted sequence

        (a_0, (n-1)/n a_1, ..., (n-l)/n a_l, 0, ..., 0,
         (n-m)/n a_{-m}, ..., (n-1)/n a_{-1}),

    which equals diag(similarity_transform(A)) for the banded Toeplitz A.
    """
    fr = np.asarray(first_row, dtype=np.complex128).ravel()
    fc = np.asarray(first_col, dtype=np.complex128).ravel()
    if fr.size < 1 or fc.size < 1:
        raise ConfigError("first_row and first_col must contain at least a_0")
    l, m = fr.size - 1, fc.size - 1
    if l + m > n - 1:
        raise ConfigError(f"band width l+m = {l + m} too wide for dimension {n}")
    if abs(fc[0] - fr[0]) > 1e-12 * max(1.0, abs(fr[0])):
        raise ConfigError("first_row[0] and first_col[0] must both be a_0")
    t = np.zeros(2 * n - 1, dtype=np.complex128)
    t[n - 1 : n + l] = fr
    t[n - 1 - m : n - 1] = fc[:0:-1]
    return Toeplitz(t).cycles([0])[0]


def generate(spec: StructuredMatrixSpec):
    """Build the matrix a spec describes, from the fields KIND_FIELDS
    names for its kind plus n.

    Returns (matrix, info): info echoes kind, n and seed, plus per-kind
    extras (the rhs for example1, the shift and achieved condition number
    when make_pd is set).
    """
    info: dict = {"kind": spec.kind, "n": spec.n, "seed": spec.seed}
    if spec.kind == "toeplitz":
        a = gen_toeplitz(spec)
    elif spec.kind == "block_toeplitz":
        a = gen_block_toeplitz(spec, info)
    elif spec.kind == "quasi_periodic":
        a = gen_quasi_periodic(spec)
    elif spec.kind == "example1":
        a, rhs = gen_example1(spec.n)
        info["rhs"] = rhs
    else:  # symbol_toeplitz
        if spec.symbol is None:
            raise ConfigError("symbol_toeplitz spec needs a symbol")
        a = gen_symbol_toeplitz(spec.symbol, spec.n)
    return a, info


def with_seed(spec: StructuredMatrixSpec, seed: int) -> StructuredMatrixSpec:
    return replace(spec, seed=int(seed))
