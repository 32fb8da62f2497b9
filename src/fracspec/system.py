"""Affine scaling systems (R, B, L): axioms, masks, dual maps, catalog.

A system is an expansive nu x nu rational matrix R together with two finite
point sets B (spatial digits) and L (frequency digits) of equal size, paired
by the unitary matrix N^{-1/2} (e^{i 2 pi b.l}).  All data is exact rational;
floating point enters only in trigonometric evaluation and eigenvalues.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rational as rat

MAX_WORDS = 200_000         # words of one exact walk (`AffineSystem.lifted_walk`)
EXPANSIVE_MARGIN = 1e-9
UNITARITY_TOL = 1e-12
DEFAULT_N_CHECK = 12
SIDES = ("sigma", "rho", "tau", "omega")   # the four map families of AffineSystem.maps

Point = tuple  # tuple of Fractions, length = ambient dimension


def point(coords, dim=None) -> Point:
    p = rat.vec(coords if hasattr(coords, "__len__") else (coords,))
    if dim is not None and len(p) != dim:
        raise ValueError(f"point {p} has dimension {len(p)}, expected {dim}")
    return p


def probe_rows(T, dim: int) -> np.ndarray:
    """Float probe points T as an (m, dim) array of rows.  In one dimension
    any shape is elementwise; above, the trailing axis must be `dim`."""
    T = np.asarray(T, dtype=float)
    if dim > 1 and (T.ndim == 0 or T.shape[-1] != dim):
        axis = f"trailing axis {T.shape[-1]}" if T.ndim else "no axis"
        raise ValueError(f"probe array of shape {T.shape} has {axis}, expected "
                         f"trailing axis {dim}")
    return T.reshape(-1, dim)


def _unit_phase(q: Fraction) -> complex:
    """e^{i 2 pi q} for exact rational q, with the phase reduced mod 1 first."""
    q = q - math.floor(q)
    return cmath.exp(2j * math.pi * float(q))


class ScalingMatrix:
    """Expansive scaling matrix with cached exact determinant, inverse,
    transpose and inverse transpose R*^{-1}."""

    def __init__(self, entries):
        self.entries = rat.mat(entries)
        n = len(self.entries)
        if n < 1:
            raise ValueError("scaling matrix must be at least 1 x 1")
        if any(len(r) != n for r in self.entries):
            raise ValueError("scaling matrix must be square")
        self.dim = n
        self.det = rat.det(self.entries)
        if self.det == 0:
            raise ValueError("scaling matrix is singular")
        self.inverse = rat.inverse(self.entries)
        self.transpose = rat.transpose(self.entries)
        self.inverse_transpose = rat.transpose(self.inverse)

    def eigenvalue_moduli(self) -> list[float]:
        """Moduli of the eigenvalues: triangular matrices read their diagonal
        exactly, any other goes to the numeric eigensolver."""
        n = self.dim
        a = self.entries
        if all(a[i][j] == 0 for i in range(n) for j in range(n) if i > j) or \
           all(a[i][j] == 0 for i in range(n) for j in range(n) if i < j):
            return sorted(abs(float(a[i][i])) for i in range(n))
        return sorted(abs(complex(z)) for z in np.linalg.eigvals(np.array(a, dtype=float)))

    def is_expansive(self) -> bool:
        return self.eigenvalue_moduli()[0] > 1.0 + EXPANSIVE_MARGIN

    def __repr__(self):
        rows = "; ".join(" ".join(rat.format_fraction(e) for e in r) for r in self.entries)
        return f"ScalingMatrix([{rows}])"


@dataclass(frozen=True)
class AffineSystem:
    """The triple (R, B, L) with N = #B = #L, in the dimension of R."""

    R: ScalingMatrix
    B: tuple
    L: tuple
    name: str = ""

    def __post_init__(self):
        if not self.B or not self.L:
            raise ValueError("B and L must each hold at least one point")
        if len(self.B) != len(self.L):
            raise ValueError(f"#B = {len(self.B)} and #L = {len(self.L)} differ")
        for p in self.B + self.L:
            if len(p) != self.dim:
                raise ValueError(f"point {p} has wrong dimension (expected {self.dim})")
        if len(set(self.B)) != len(self.B) or len(set(self.L)) != len(self.L):
            raise ValueError("B and L must consist of distinct points")

    @property
    def dim(self) -> int:
        return self.R.dim

    @property
    def N(self) -> int:
        return len(self.B)

    def zero(self) -> Point:
        return tuple(Fraction(0) for _ in range(self.dim))

    def b_array(self) -> np.ndarray:
        return np.array(self.B, dtype=float).reshape(len(self.B), self.dim)

    def l_array(self) -> np.ndarray:
        return np.array(self.L, dtype=float).reshape(len(self.L), self.dim)

    @functools.cached_property
    def maps(self) -> dict:
        """The four map families x -> M x + t_d: for each side, the linear
        part M and the translation t_d of each digit d (of B for sigma and
        omega, of L for rho and tau)."""
        R, Rti = self.R, self.R.inverse_transpose
        return {
            "sigma": (R.inverse, {b: b for b in self.B}),
            "rho": (Rti, {l: rat.vec_scale(-1, rat.mat_vec(Rti, l)) for l in self.L}),
            "tau": (R.transpose, {l: l for l in self.L}),
            "omega": (R.entries, {b: rat.vec_scale(-1, rat.mat_vec(R.entries, b)) for b in self.B}),
        }

    def lifted_walk(self, side: str, depth: int) -> tuple:
        """The image of 0 under every length-`depth` word w over the digits
        of the side's maps g_d: x -> M x + t_d, in `itertools.product`
        order, as (ivecs, scale): integer vectors over one common
        denominator of the points sum_k M^k t_{w_k} = g_{w_0}(g_{w_1}(...
        g_{w_last}(0))), scale the least one.

        The steps M^k t_d are formed on the lifts M = Mi / m and
        t_d = Ti / s, over the one denominator m^(depth-1) s, and then the
        steps and that denominator are divided by their gcd, which leaves
        the least common denominator of the steps.  Level k adds the
        integer steps M^k t_d to the points of level k - 1, so a word
        costs integer additions and no matrix product.  More than
        MAX_WORDS words are refused up front."""
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {side!r}")
        self.check_words(depth, MAX_WORDS, f"{side} words exceed the exact-arithmetic cap", "words")
        M, table = self.maps[side]
        Mi, m = rat.lift(M)
        Ti, s = rat.lift(list(table.values()))
        # level k holds m^(depth-1-k) Mi^k Ti: below the last level the
        # factor m is still there, so the next product divides by it exactly
        top = m ** max(depth - 1, 0)
        levels = [[tuple(c * top for c in t) for t in Ti]] if depth else []
        while len(levels) < depth:
            levels.append([tuple(c // m for c in rat.mat_vec(Mi, t)) for t in levels[-1]])
        scale = s * top
        g = math.gcd(scale, *(c for lv in levels for t in lv for c in t))
        walk = [(0,) * self.dim]
        for lv in levels:
            lv = [tuple(c // g for c in t) for t in lv]
            walk = [tuple(map(operator.add, p, t)) for p in walk for t in lv]
        return walk, scale // g

    @functools.cached_property
    def mask_rows(self) -> tuple:
        """The exact rows of `mask_table` as (E, real, c): E the centred
        digits b - c that the table keeps, as exact vectors, `real` whether
        they are symmetric and c the exact mean of B.  They are decided on
        one integer lift of B, N s (b - c) = N Bi_b - sum Bi, whose order
        and signs are those of the centred digits."""
        Bi, s = rat.lift(self.B)
        total = [sum(col) for col in zip(*Bi)]
        centred = [tuple([self.N * x - t for x, t in zip(b, total)]) for b in Bi]
        flipped = [tuple([-x for x in e]) for e in centred]
        real = sorted(centred) == sorted(flipped)
        scale = self.N * s
        E = tuple(tuple(Fraction(x, scale) for x in e) for e, f in zip(centred, flipped)
                  if not real or e >= f)
        return E, real, tuple(Fraction(t, scale) for t in total)

    @functools.cached_property
    def mask_table(self) -> tuple:
        """chi_B(x) = e^{i 2 pi c.x} sum_k w_k e^{i 2 pi e_k.x} as
        (E, w, real, c), with c the exact mean of B and the rows e_k of E
        the centred digits b - c (`mask_rows`, in floats here).  When the
        centred digits are symmetric (e and -e alike), E keeps one of each
        pair at weight 2/N and the bracket is the real sum_k w_k
        cos(2 pi e_k.x) (`real` is True); otherwise every digit stays at
        weight 1/N.  A digit at the centre is the one zero row of E, at
        weight 1/N, the bracket's constant term.  A two-digit table is one
        cosine of weight 1: E the one row e = +-(b1 - b0)/2 and w = [1], so
        the bracket is cos(2 pi e.x).

        Every kernel forms the bracket before it squares it (the weights of
        `transfer.TransferOperator` one bracket, `SelfSimilarMeasure.mu_hat_sq_sums`
        the product of the brackets of its levels), so |chi_B|^2 stays
        accurate to rounding squared at its zeros, where the cosine series
        over B - B would cancel to rounding.
        """
        E, real, c = self.mask_rows
        zero = self.zero()
        w = np.array([(2 if real and e != zero else 1) / self.N for e in E])
        return np.array(E, dtype=float).reshape(len(E), self.dim), w, real, c

    @functools.cached_property
    def _derived(self) -> dict:
        return {}

    def once(self, key, compute):
        """compute(), evaluated once per system and key and kept in the
        system itself, so it lives and dies with the system: the facts of
        the triple (the hull Y of `geometry.dual_hull` at each depth, the
        report of `validate_system`) are computed once, however many
        commands read them.  The values are shared between their readers
        and must not be mutated."""
        memo = self._derived
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def check_words(self, depth: int, cap: int, what: str, unit: str) -> None:
        """Refuse a depth whose N^depth words exceed `cap`, with a ValueError
        that names N, the depth and the cap.  The count is multiplied up one
        level at a time and the loop stops once past the cap, so the power
        is never formed.  A one-digit system counts as two digits: its words
        are one point, but every level still costs a step."""
        total = 1
        for _ in range(depth):
            total *= max(self.N, 2)
            if total > cap:
                counted = " (one digit counts as two)" if self.N == 1 else ""
                raise ValueError(f"{what}: depth {depth} reaches {self.N}^{depth} "
                                 f"{unit}{counted}, over {cap}")

    def __repr__(self):
        label = self.name or "system"
        return f"AffineSystem({label}: dim={self.dim}, N={self.N})"


def make_system(R, B, L, name="") -> AffineSystem:
    if isinstance(R, (int, Fraction, str)):
        Rm = ScalingMatrix([[R]])
    else:
        Rm = ScalingMatrix(R)
    return AffineSystem(Rm, tuple(point(b, Rm.dim) for b in B),
                        tuple(point(l, Rm.dim) for l in L), name)


# ---------------------------------------------------------------------------
# mask and Hadamard pairing

def hadamard_matrix(B, L) -> np.ndarray:
    """N^{-1/2} (e^{i 2 pi b.l})_{b in B, l in L} as a complex array."""
    if len(B) != len(L):
        raise ValueError(f"#B = {len(B)} and #L = {len(L)} differ")
    n = len(B)
    H = np.empty((n, n), dtype=complex)
    for j, b in enumerate(B):
        for k, l in enumerate(L):
            H[j, k] = _unit_phase(rat.dot(b, l))
    return H / math.sqrt(n)


def unitarity_defect(H: np.ndarray) -> float:
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("unitarity defect needs a square matrix")
    G = H.conj().T @ H - np.eye(H.shape[0])
    return float(np.abs(G).max())


def chi_B(sys: AffineSystem, t) -> complex:
    """The mask (1/N) sum_b e^{i 2 pi b.t} at one frequency t (a scalar in
    one dimension); exact phase reduction for rational t, read by `point`.
    A frequency of another length than the dimension is refused."""
    if not hasattr(t, "__len__"):
        t = (t,)
    if len(t) != sys.dim:
        raise ValueError(f"frequency {tuple(t)} has dimension {len(t)}, expected {sys.dim}")
    if all(isinstance(c, (int, Fraction)) for c in t):
        tv = point(t)
        return sum(_unit_phase(rat.dot(b, tv)) for b in sys.B) / sys.N
    return complex(chi_B_batch(sys, t))


def chi_B_batch(sys: AffineSystem, T: np.ndarray) -> np.ndarray:
    """Mask values e^{i 2 pi c.x} (re + i im) for an array of frequency
    vectors, shape (..., dim), from the bracket of `AffineSystem.mask_table`."""
    T = np.asarray(T, dtype=float)
    re, im, _ = _mask_parts(sys, T)
    return np.exp(2j * np.pi * (T @ np.array(sys.mask_table[3], dtype=float))) * (re + 1j * im)


def _mask_parts(sys: AffineSystem, T):
    """Real and imaginary parts of the bracket of `AffineSystem.mask_table`
    at T, shape (..., dim), as two arrays of shape (...)."""
    E, w, real, _ = sys.mask_table
    P = 2 * np.pi * (np.asarray(T, dtype=float) @ E.T)
    re = np.cos(P) @ w
    return re, (np.zeros_like(re) if real else np.sin(P) @ w), P


def chi_B_sq_grad(sys: AffineSystem, t) -> np.ndarray:
    """Analytic gradient of |chi_B|^2 at t, shape (..., dim), one gradient
    per frequency vector in an array of the same shape: 2 (Re grad Re +
    Im grad Im) of the bracket of `AffineSystem.mask_table`."""
    E, w, _, _ = sys.mask_table
    re, im, P = _mask_parts(sys, t)
    return 4 * np.pi * (w * (im[..., None] * np.cos(P) - re[..., None] * np.sin(P))) @ E


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class AxiomCheck:
    """One axiom's outcome and its witness; `validate_system` makes one per axiom."""
    passed: bool
    witness: object = None      # a JSON value: ints, floats, strings and tuples of them
    mandatory: bool = True


@dataclass(frozen=True)
class ValidationReport:
    """Every axiom check of a triple, by name; `validate_system` returns it."""
    checks: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for name, c in self.checks.items() if c.mandatory)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "n_check": DEFAULT_N_CHECK,
            "axioms": {
                name: {"passed": c.passed, "mandatory": c.mandatory,
                       "witness": c.witness}
                for name, c in self.checks.items()
            },
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for name, c in self.checks.items():
            tag = "pass" if c.passed else ("FAIL" if c.mandatory else "no  ")
            extra = f"  [{c.witness}]" if c.witness is not None else ""
            lines.append(f"  {name:<20} {tag}{extra}")
        lines.append(f"  overall: {'pass' if self.passed else 'FAIL'}")
        return lines


def _compatibility_witnesses(sys: AffineSystem) -> list:
    """The first five (n, b, l, R^n b . l) in the order n, b, l with
    R^n b . l not an integer, n <= DEFAULT_N_CHECK, over the integer lifts
    R = Ri / r, B = Bi / sb and L = Li / sl.

    For integer R (r = 1) Cayley-Hamilton makes every R^n with n >= 1 an
    integer combination of R, ..., R^dim, so when no power up to dim fails,
    none does and the loop stops there.  Rational R keeps the sample
    n <= DEFAULT_N_CHECK.
    """
    Ri, r = rat.lift(sys.R.entries)
    Bi, sb = rat.lift(sys.B)
    Li, sl = rat.lift(sys.L)
    n_decisive = sys.dim if r == 1 else DEFAULT_N_CHECK
    failures = []
    Rn = Ri
    for n in range(1, DEFAULT_N_CHECK + 1):
        if n > n_decisive and not failures:
            break
        den = r ** n * sb * sl
        for b, bi in zip(sys.B, Bi):
            Rnb = rat.mat_vec(Rn, bi)
            for l, li in zip(sys.L, Li):
                v = rat.dot(Rnb, li)
                if v % den:
                    failures.append((n, tuple(map(rat.format_fraction, b)),
                                     tuple(map(rat.format_fraction, l)),
                                     rat.format_fraction(Fraction(v, den))))
                    if len(failures) == 5:
                        return failures
        Rn = rat.mat_mul(Rn, Ri)
    return failures


def validate_system(sys: AffineSystem) -> ValidationReport:
    """Check every axiom of the triple; compatibility R^n b . l in Z runs in
    exact integer arithmetic, decided at n <= dim for integer R and sampled
    at n <= DEFAULT_N_CHECK for rational R.

    Mandatory axioms decide the overall verdict.  The span, integrality and
    cardinality-versus-determinant checks are informational: they gate the
    basis theorems, not the validity of the system itself.

    The report is computed once per system (`AffineSystem.once`) and shared.
    """
    return sys.once("validation", lambda: _check_axioms(sys))


def _check_axioms(sys: AffineSystem) -> ValidationReport:
    checks: dict[str, AxiomCheck] = {}
    zero = sys.zero()

    checks["cardinality"] = AxiomCheck(True, (sys.N, sys.N))  # AffineSystem refuses #B != #L
    checks["zero_in_B"] = AxiomCheck(zero in sys.B)
    checks["zero_in_L"] = AxiomCheck(zero in sys.L)

    checks["expansive"] = AxiomCheck(sys.R.is_expansive(),
                                     [round(m, 12) for m in sys.R.eigenvalue_moduli()])

    defect = unitarity_defect(hadamard_matrix(sys.B, sys.L))
    checks["hadamard"] = AxiomCheck(defect <= UNITARITY_TOL, defect)

    failures = _compatibility_witnesses(sys)
    checks["compatibility"] = AxiomCheck(not failures, failures or None)

    nonzero_l = [l for l in sys.L if l != zero]
    r = rat.rank(rat.mat(nonzero_l)) if nonzero_l else 0
    checks["l_spans"] = AxiomCheck(r == sys.dim, r, mandatory=False)

    bad_l = [l for l in sys.L
             if any(c.denominator != 1 for c in l)]
    checks["l_integral"] = AxiomCheck(
        not bad_l,
        [tuple(map(rat.format_fraction, l)) for l in bad_l] or None,
        mandatory=False)

    checks["n_less_than_det"] = AxiomCheck(
        sys.N < abs(sys.R.det), (sys.N, rat.format_fraction(abs(sys.R.det))),
        mandatory=False)

    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# catalog

def two_digit_system(R: int, b, name="") -> AffineSystem:
    """One-dimensional system with B = {0, b} and the dual L = {0, 1/|2b|}."""
    b = rat.as_fraction(b)
    if b == 0:
        raise ValueError("b must be nonzero")
    z0 = 1 / abs(2 * b)
    return make_system(R, (Fraction(0), b), (Fraction(0), z0),
                       name or f"two-digit(R={R}, b={rat.format_fraction(b)})")


def eiffel_system(r: int) -> AffineSystem:
    """Three-dimensional tower system with R = r I and four digits."""
    if r < 2:
        raise ValueError("eiffel scale r must be an integer >= 2")
    h = Fraction(1, 2)
    B = ((0, 0, 0), (h, 0, 0), (0, h, 0), (0, 0, h))
    L = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))
    Rm = [[r, 0, 0], [0, r, 0], [0, 0, r]]
    return make_system(Rm, B, L, name=f"eiffel({r})")


def planar_collapse_system() -> AffineSystem:
    h, q = Fraction(1, 2), Fraction(2, 3)
    B = ((0, 0), (h, 0), (0, h))
    L = ((0, 0), (q, -q), (-q, q))
    return make_system([[6, 0], [0, 6]], B, L, name="planar-collapse")


_CATALOG = {
    "scale4": lambda: two_digit_system(4, Fraction(1, 2), name="scale4"),
    "scale2": lambda: two_digit_system(2, Fraction(1, 2), name="scale2"),
    "triadic": lambda: make_system(3, (Fraction(0), Fraction(2, 3)),
                                   (Fraction(0), Fraction(3, 4)), "triadic"),
    "eiffel": lambda: eiffel_system(2),
    "planar-collapse": planar_collapse_system,
}


def get_system(name: str) -> AffineSystem:
    """A catalog system; `eiffel(r)` is the tower at scale r, and `name(r)`
    of any other entry is that system with R times r, named `name*r{r}`.
    Each name is built once per process: every lookup of it returns the
    same immutable instance, with the facts that instance has computed."""
    m = re.fullmatch(r"(\w[\w-]*)\((\d+)\)", name.strip())
    name, r = (m.group(1), int(m.group(2))) if m else (name.strip(), None)
    if name not in _CATALOG:
        raise KeyError(f"unknown system {name!r}; available: {', '.join(sorted(_CATALOG))}")
    return _catalog_system(name, r)


@functools.cache
def _catalog_system(name: str, r: int | None) -> AffineSystem:
    if name == "eiffel" and r is not None:
        return eiffel_system(r)
    base = _CATALOG[name]()
    if r is None:
        return base
    scaled = [[rat.as_fraction(r) * e for e in row] for row in base.R.entries]
    return make_system(scaled, base.B, base.L, name=f"{base.name}*r{r}")


# ---------------------------------------------------------------------------
# JSON system files: exact rationals only

def system_to_json(sys: AffineSystem) -> dict:
    fmt = rat.format_fraction
    return {
        "dim": sys.dim,
        "R": [[fmt(e) for e in row] for row in sys.R.entries],
        "B": [[fmt(c) for c in p] for p in sys.B],
        "L": [[fmt(c) for c in p] for p in sys.L],
    }


def _json_rows(rows, what: str) -> list:
    """Each entry of a JSON array as a tuple of exact rationals; an entry
    that is not itself an array (a string would be read one character at a
    time) is refused."""
    for row in rows:
        if not isinstance(row, list):
            raise ValueError(f"malformed system definition: {what} {row!r} is not a JSON list")
    return [tuple(rat.as_fraction(c) for c in row) for row in rows]


def system_from_json(data: dict, name="") -> AffineSystem:
    try:
        dim = data["dim"]
        if type(dim) is not int:
            raise TypeError(f"dim {dim!r} is not an integer")
        R = _json_rows(data["R"], "row of R")
        B = _json_rows(data["B"], "point of B")
        L = _json_rows(data["L"], "point of L")
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed system definition: {exc}") from exc
    if len(R) != dim or any(len(row) != dim for row in R):
        raise ValueError("R must be a dim x dim matrix")
    return make_system(R, B, L, name=name)


def load_system_file(path: str) -> AffineSystem:
    with open(path) as fh:
        data = json.load(fh)
    return system_from_json(data, name=path)
