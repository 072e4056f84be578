"""Lie algebra structure constants: catalog, parsing, Jacobi validation.

A Lie algebra on basis xi_1..xi_n is described by rational structure
constants [xi_i, xi_j] = sum_k c^k_ij xi_k.  Only i < j entries are stored;
lookups antisymmetrize (c^k_ji = -c^k_ij, c^k_ii = 0).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


class LieAlgebraSpec:
    """Structure-constant table for an n-dimensional Lie algebra."""

    def __init__(self, n: int, constants=None, name: str = ""):
        if n < 1:
            raise ValueError(f"algebra dimension must be >= 1, got {n}")
        self.n = n
        self.name = name
        # exact rationals: int when integral, Fraction otherwise
        self._c: dict[tuple[int, int, int], int | Fraction] = {}
        # every (i, j, k) given, with i < j, zero constants included
        self._given: set[tuple[int, int, int]] = set()
        if constants:
            items = constants.items() if hasattr(constants, "items") else constants
            for (i, j, k), v in items:
                self._set(i, j, k, v)

    def _set(self, i: int, j: int, k: int, v) -> None:
        """Store c^k_ij = v (any rational), once per (i, j, k) in either order."""
        v = Fraction(v)
        v = v.numerator if v.denominator == 1 else v
        for idx in (i, j, k):
            if not 1 <= idx <= self.n:
                raise ValueError(f"index {idx} outside 1..{self.n}")
        if i == j:
            raise ValueError(f"diagonal bracket [xi_{i}, xi_{i}] cannot carry a constant")
        if i > j:
            i, j, v = j, i, -v
        if (i, j, k) in self._given:
            raise ValueError(f"duplicate structure constant for ({i}, {j}, {k})")
        self._given.add((i, j, k))
        if v:
            self._c[(i, j, k)] = v

    def structure_constant(self, i: int, j: int, k: int) -> int | Fraction:
        """c^k_ij with antisymmetry in (i, j)."""
        if i == j:
            return 0
        if i < j:
            return self._c.get((i, j, k), 0)
        return -self._c.get((j, i, k), 0)

    def bracket(self, i: int, j: int) -> dict[int, int | Fraction]:
        """[xi_i, xi_j] as {k: coefficient}, zero terms omitted."""
        out = {}
        for k in range(1, self.n + 1):
            v = self.structure_constant(i, j, k)
            if v:
                out[k] = v
        return out

    def nonzero_constants(self) -> dict[tuple[int, int, int], int | Fraction]:
        return dict(self._c)

    def rescale(self, factor) -> "LieAlgebraSpec":
        """Multiply every structure constant by a fixed rational factor."""
        f = Fraction(factor)
        scaled = {ijk: v * f for ijk, v in self._c.items()}
        label = f"{self.name}*{f}" if self.name else f"rescaled*{f}"
        return LieAlgebraSpec(self.n, scaled, name=label)

    def __repr__(self) -> str:
        return f"LieAlgebraSpec({self.name or 'anonymous'}, n={self.n})"


@dataclass
class ValidationReport:
    ok: bool
    first_violation: tuple[int, int, int, int] | None
    residual: int | Fraction | None
    violations: int
    checked: int

    def summary(self) -> str:
        if self.ok:
            return f"jacobi ok ({self.checked} residuals checked)"
        i, j, k, l = self.first_violation
        return (
            f"jacobi FAILED: first violation at (i,j,k,l)=({i},{j},{k},{l}) "
            f"residual {self.residual} ({self.violations} of {self.checked} residuals nonzero)"
        )


def jacobi_residual(spec: LieAlgebraSpec, i: int, j: int, k: int, l: int) -> int | Fraction:
    # coefficient of xi_l in [[xi_i,xi_j],xi_k] + [[xi_j,xi_k],xi_i] + [[xi_k,xi_i],xi_j]
    c = spec.structure_constant
    total = 0
    for m in range(1, spec.n + 1):
        total += c(i, j, m) * c(m, k, l)
        total += c(j, k, m) * c(m, i, l)
        total += c(k, i, m) * c(m, j, l)
    return total


def validate(spec: LieAlgebraSpec) -> ValidationReport:
    """Check every Jacobi residual; reports rather than raises on failure."""
    first = None
    first_res = None
    bad = 0
    checked = 0
    for i in range(1, spec.n + 1):
        for j in range(i + 1, spec.n + 1):
            for k in range(j + 1, spec.n + 1):
                for l in range(1, spec.n + 1):
                    checked += 1
                    res = jacobi_residual(spec, i, j, k, l)
                    if res:
                        bad += 1
                        if first is None:
                            first = (i, j, k, l)
                            first_res = res
    return ValidationReport(bad == 0, first, first_res, bad, checked)


# --- catalog ----------------------------------------------------------------
#
# Constants are normalized so that the induced exterior derivative on the
# dual basis comes out with the coefficient 2 (e.g. dim2 has d sigma^1 =
# -2 sigma^1^sigma^2); see tests for the per-algebra d values this pins down.

_ABELIAN_RE = re.compile(r"^abelian\((\d+)\)$")
_D2_RE = re.compile(r"^d2\(([^)]+)\)$")

CATALOG_NAMES = (
    "abelian(n)", "dim2", "so3", "sl2r", "d2(kappa)", "d1n", "d1y",
)
# the weighted homology tables label the 3-dimensional classes this way
CATALOG_ALIASES = {"d3": "so3", "d2y": "d2(-1)", "d2n": "d2(1)"}


def catalog(name: str) -> LieAlgebraSpec:
    """Look up a named algebra; accepts abelian(n) and d2(kappa) parameters."""
    name = name.strip()
    name = CATALOG_ALIASES.get(name, name)
    m = _ABELIAN_RE.match(name)
    if m:
        return LieAlgebraSpec(int(m.group(1)), {}, name=name)
    m = _D2_RE.match(name)
    if m:
        try:
            kappa = Fraction(m.group(1))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad d2 parameter {m.group(1)!r}") from exc
        if kappa == 0:
            raise ValueError("d2(kappa) needs kappa != 0")
        return LieAlgebraSpec(
            3, {(1, 3, 1): 2, (2, 3, 2): 2 * kappa}, name=f"d2({kappa})"
        )
    if name == "dim2":
        return LieAlgebraSpec(2, {(1, 2, 1): 2}, name="dim2")
    if name == "so3":
        return LieAlgebraSpec(
            3, {(1, 2, 3): 2, (2, 3, 1): 2, (1, 3, 2): -2}, name="so3"
        )
    if name == "sl2r":
        return LieAlgebraSpec(
            3, {(1, 2, 3): 2, (2, 3, 1): -2, (1, 3, 2): -2}, name="sl2r"
        )
    if name == "d1n":
        return LieAlgebraSpec(3, {(1, 2, 2): 2}, name="d1n")
    if name == "d1y":
        return LieAlgebraSpec(3, {(1, 2, 3): 2}, name="d1y")
    raise ValueError(
        f"unknown algebra {name!r}; known: {', '.join(CATALOG_NAMES)} "
        f"and aliases {', '.join(sorted(CATALOG_ALIASES))}"
    )


# --- text format ------------------------------------------------------------

def parse_structure_constants(text: str, name: str = "file") -> LieAlgebraSpec:
    """Parse 'i j k p/q' lines ('#' starts a comment); n is the largest index, at least 1."""
    triples: list[tuple[int, int, int, int, Fraction]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 'i j k p/q', got {raw!r}")
        try:
            i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
            v = Fraction(parts[3])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        triples.append((lineno, i, j, k, v))
    if not triples:
        raise ValueError("no structure constants found")
    spec = LieAlgebraSpec(max(1, *(max(i, j, k) for _, i, j, k, _ in triples)), name=name)
    for lineno, i, j, k, v in triples:
        try:
            spec._set(i, j, k, v)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return spec


def load_structure_constants(path, name: str | None = None) -> LieAlgebraSpec:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_structure_constants(text, name=name or str(path))
