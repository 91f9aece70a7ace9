"""Exact graded Betti numbers and regularity of squarefree monomial ideals.

Everything is computed for the quotient ring R/I (so beta_{0,0} = 1 and the
first syzygy layer counts the minimal generators of I). ``betti_hochster``
sums reduced homology of induced subcomplexes of the Stanley-Reisner complex
over vertex subsets, skipping subsets whose subcomplex is a cone (a vertex
lying in no generator inside the subset). The test suite referees it with an
independent upper-Koszul oracle.

The sum runs in three steps. The plan visits the surviving subsets in mask
order, so every proper subset comes first, and takes the homology of a
complex with a dominated vertex (a strong collapse) or, failing that, of a
join (Kuenneth: the component of the lowest vertex times the rest) from
smaller subsets, deciding from the generators inside each subset alone.
The augmented boundary rows of the faces inside the remaining subsets, which
form a subcomplex, are built once, with one column numbering per dimension;
there is always such a subset, since a generator's support, whose complex
is the boundary of a simplex, is never reduced.
Each remaining subset selects the rows of its faces and is ranked; the
others are multiplied out of a memo. A fourth rule picks what is ranked:
when some W - v is nonempty and Delta_{W-v} is acyclic (its series is not in
the memo), the link of v in Delta_W is ranked instead, its homology shifted
up by one degree (Mayer-Vietoris over the star of v, a cone). The link has
about a third of Delta_W's faces on dense graphs.

Ranks are exact and come from one reduction by leading column, in two
kernels: rows packed as int bitsets over GF(2), and sparse {column: entry}
rows over GF(p) (Python ints mod p) or Q (ints, with Fractions only after a
pivot other than +-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import CapacityError, InputError
from .ideals import MonomialIdeal, add_monomial, colon

NEG_INF = float("-inf")
DEFAULT_CAP = 22
CAP_ENV_VAR = "PATHIDEALS_CAP"
MAX_PRIME = 1 << 31


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (rationals) or a prime p."""

    characteristic: int = 2

    def __post_init__(self) -> None:
        c = self.characteristic
        if c == 0:
            return
        if c > MAX_PRIME:
            # Python ints cannot overflow; the bound keeps the trial division
            # below fast (at most 2^15.5 divisions)
            raise InputError(f"GF(p) needs p <= 2^31, got {c}; use q for exact rational arithmetic")
        if c < 2 or any(c % d == 0 for d in range(2, int(c**0.5) + 1)):
            raise InputError(f"characteristic must be 0 or a prime, got {c}")

    @property
    def token(self) -> str:
        return "q" if self.characteristic == 0 else f"gf{self.characteristic}"

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        t = text.strip().lower()
        if t in ("q", "0", "rational", "rationals"):
            return cls(0)
        if t.startswith("gf"):
            t = t[2:]
        try:
            p = int(t)
        except ValueError as exc:
            raise InputError(f"unrecognized field {text!r} (use q, gf2, gf3, ...)") from exc
        if p == 0:
            raise InputError(f"unrecognized field {text!r} (use q for characteristic 0)")
        return cls(p)


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
QQ = FieldSpec(0)


# -- exact rank kernels ---------------------------------------------------------


def rank_gf2_rows(rows: Iterable[int]) -> int:
    """Rank over GF(2) of rows given as int bitsets (linear-basis reduction)."""
    pivot_by_lead: dict[int, int] = {}
    for row in rows:
        cur = row
        while cur:
            lead = cur.bit_length() - 1
            piv = pivot_by_lead.get(lead)
            if piv is None:
                pivot_by_lead[lead] = cur
                break
            cur ^= piv
    return len(pivot_by_lead)


def _rank_sparse(rows: list[dict[int, int]], char: int) -> int:
    """Rank of rows given as {column: entry} dicts, over GF(char) or Q if char == 0.

    The reduction of ``rank_gf2_rows``: a row is reduced by the pivot owning its
    leading column until it vanishes or leads a column no pivot owns. Entries
    are cleaned on entry (reduced mod p, zeros dropped), so no pivot is 0.
    Over Q a pivot of +-1 is its own inverse, which keeps rows in ints on
    boundary matrices; other pivots are inverted as Fractions.
    """
    pivot_by_lead: dict[int, tuple[dict, int | Fraction]] = {}
    for row in rows:
        cur = {c: a % char if char else a for c, a in row.items()}
        cur = {c: a for c, a in cur.items() if a}
        while cur:
            lead = max(cur)
            piv = pivot_by_lead.get(lead)
            if piv is None:
                a = cur[lead]
                if char:
                    inv = pow(a, -1, char)
                else:
                    inv = a if a in (1, -1) else 1 / Fraction(a)
                pivot_by_lead[lead] = (cur, inv)
                break
            prow, inv = piv
            f = cur[lead] * inv
            for c, a in prow.items():
                v = cur.get(c, 0) - f * a
                if char:
                    v %= char
                if v:
                    cur[c] = v
                else:
                    del cur[c]
    return len(pivot_by_lead)


def rank_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p) (p prime) of rows given as {column: entry} dicts."""
    return _rank_sparse(rows, p)


def rank_exact(rows: list[dict[int, int]]) -> int:
    """Rank over the rationals of rows given as {column: entry} dicts."""
    return _rank_sparse(rows, 0)


# -- reduced simplicial homology --------------------------------------------------


def _boundary_rows(faces: list[int], char: int) -> list:
    """Augmented boundary row of each nonempty face (bitmask), in the given order.

    Columns are numbered per dimension in the order the faces come, with the
    empty face as column 0 of dimension -1, so a d-face's row has d+1 nonzeros.
    Rows are int bitsets if char == 2 and {column: +-1} dicts otherwise. A
    subcomplex's rows are a subset of these: their columns are its own faces.
    """
    ids = {0: 0}
    counts: dict[int, int] = {}
    for face in faces:
        k = face.bit_count()
        ids[face] = counts.get(k, 0)
        counts[k] = ids[face] + 1
    rows = []
    for face in faces:
        rest = face
        if char == 2:
            row = 0
            while rest:
                low = rest & -rest
                row |= 1 << ids[face ^ low]
                rest ^= low
        else:
            row = {}
            sign = 1
            while rest:
                low = rest & -rest
                row[ids[face ^ low]] = sign
                sign = -sign
                rest ^= low
        rows.append(row)
    return rows


def _homology_dims_from_faces(rows: list, char: int) -> dict[int, int]:
    """Reduced homology dims of a complex given the boundary rows of its nonempty faces.

    The rows are those of ``_boundary_rows``; a d-face's row has d+1 nonzeros.
    The empty face is always implicitly present. Conventions: the complex
    {empty set} has one dimension of homology in degree -1 and nothing else;
    anything with a vertex has zero homology in degree -1.
    """
    if not rows:
        return {-1: 1}
    weight = int.bit_count if char == 2 else len
    by_dim: dict[int, list] = {}
    for row in rows:
        by_dim.setdefault(weight(row) - 1, []).append(row)
    maxd = max(by_dim)
    ranks = [0] * (maxd + 2)
    ranks[0] = 1  # augmentation map has rank 1 once there is a vertex
    for d in range(1, maxd + 1):
        if char == 2:
            ranks[d] = rank_gf2_rows(by_dim[d])
        elif char == 0:
            ranks[d] = rank_exact(by_dim[d])
        else:
            ranks[d] = rank_mod_p(by_dim[d], char)
    dims = {}
    for d in range(maxd + 1):
        h = len(by_dim[d]) - ranks[d] - ranks[d + 1]
        if h:
            dims[d] = h
    return dims


# -- Betti tables -----------------------------------------------------------------


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of R/I as sorted (i, j, beta) triples."""

    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        cleaned = tuple(sorted((i, j, b) for i, j, b in self.entries if b))
        for i, j, b in cleaned:
            if i < 0 or j < 0 or b < 0:
                raise InputError(f"malformed Betti entry ({i},{j})={b}")
            if i == 0 and (j, b) != (0, 1):
                raise InputError("row i=0 must be exactly beta_{0,0}=1")
        if (0, 0, 1) not in cleaned:
            raise InputError("Betti table of R/I must contain beta_{0,0}=1")
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def from_dict(cls, entries: Mapping[tuple[int, int], int]) -> "BettiTable":
        return cls(tuple((i, j, b) for (i, j), b in entries.items()))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): b for i, j, b in self.entries}

    def regularity(self) -> int:
        return max(j - i for i, j, _ in self.entries)

    def projective_dimension(self) -> int:
        return max(i for i, _, _ in self.entries)

    def entrywise_leq(self, other: "BettiTable") -> bool:
        mine, theirs = self.as_dict(), other.as_dict()
        return all(b <= theirs.get(key, 0) for key, b in mine.items())

    def to_json_obj(self, field: FieldSpec) -> dict:
        return {
            "betti": [[i, j, b] for i, j, b in self.entries],
            "reg": self.regularity(),
            "pd": self.projective_dimension(),
            "field": field.token,
        }

    def csv_text(self) -> str:
        lines = ["i,j,beta"] + [f"{i},{j},{b}" for i, j, b in self.entries]
        return "\n".join(lines) + "\n"

    def pretty(self) -> str:
        """Macaulay2-style triangle: row k = j - i, column i."""
        pd = self.projective_dimension()
        reg = self.regularity()
        grid = [["." for _ in range(pd + 1)] for _ in range(reg + 1)]
        totals = [0] * (pd + 1)
        for i, j, b in self.entries:
            grid[j - i][i] = str(b)
            totals[i] += b
        width = max(6, max(len(str(t)) for t in totals) + 1)
        head = " " * 7 + "".join(f"{i:>{width}}" for i in range(pd + 1))
        total = "total: " + "".join(f"{t:>{width}}" for t in totals)
        body = [
            f"{k:>5}: " + "".join(f"{cell:>{width}}" for cell in row)
            for k, row in enumerate(grid)
        ]
        return "\n".join([head, total, *body])


def _join_series(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Poincare series of a join: the product of the factors' series."""
    out: dict[int, int] = {}
    for k, h in a.items():
        for l, g in b.items():
            out[k + l] = out.get(k + l, 0) + h * g
    return out


def _plan(
    survivors: np.ndarray, gmasks: list[int], is_face: np.ndarray, nverts: int
) -> list[tuple[int, tuple[int, ...] | None]]:
    """How each surviving subset W gets its homology, as (W, parts) in mask order.

    ``is_face[W]`` says whether W is a face of Delta (no generator lies
    inside it), for every mask W, 0 included. ``parts`` is None when Delta_W
    must be ranked. Otherwise the Poincare series sum_d dim H~_d t^(d+1) of
    Delta_W is the product of the series of the Delta_P, P in ``parts``, each
    P a proper subset of W, so a smaller mask that comes earlier. The first
    rule that applies decides:

    - the single subset W - v when some u in W dominates v in Delta_W: every
      face with v stays a face with u added, so Delta_W strong-collapses onto
      Delta_{W-v} (Barmak-Minian). A non-survivor W - v has zero homology.
    - the pair C, W - C when the component C of W's lowest vertex, grouping
      the generators inside W by shared vertices, is not all of W: Delta_W
      is the join of Delta_C and Delta_{W-C} (Kuenneth). Both are
      survivors, and W - C is peeled the same way in its own turn.

    Both hold over every field and read only which generators lie inside W.
    Each test runs on all survivors at once, on int bitsets over the
    survivors: one per vertex (W contains it), per generator (it lies inside
    W) and per vertex again (it lies in C).
    """
    count = len(survivors)
    nbytes = (count + 7) // 8
    tests = np.array([1 << p for p in range(nverts)] + gmasks, dtype=np.int64)[:, None]
    step = max(1, (1 << 20) // count)  # tests per block, so temporaries stay near 8 MB
    data = b"".join(
        np.packbits((survivors & block) == block, axis=1, bitorder="little").tobytes()
        for block in (tests[k : k + step] for k in range(0, len(tests), step))
    )
    bitsets = [int.from_bytes(data[k : k + nbytes], "little") for k in range(0, len(data), nbytes)]
    has, inside = bitsets[:nverts], bitsets[nverts:]
    vertex_bits = tests[:nverts, 0]
    verts = [[p for p in range(nverts) if g >> p & 1] for g in gmasks]

    # conflict[v][u]: the W in which u does not dominate v, i.e. some
    # generator g inside W has u in g and (g - u) + v a face of Delta
    pairs = [(g_in, u) for g_in, vs in zip(inside, verts) for u in vs]
    minus_u = np.array([g ^ 1 << u for g, vs in zip(gmasks, verts) for u in vs], dtype=np.int64)
    face_with = is_face[minus_u[:, None] | vertex_bits].tolist()
    conflict = [[0] * nverts for _ in range(nverts)]
    for (g_in, u), flags in zip(pairs, face_with):
        for v, flag in enumerate(flags):
            if flag:
                conflict[v][u] |= g_in
    dominated = []
    for v, row in enumerate(conflict):
        d = 0
        for u, c in enumerate(row):
            if u != v:
                d |= has[u] & ~c
        dominated.append(d & has[v])

    # comp[p]: the W whose lowest vertex's component holds p. Seed each W's
    # lowest vertex, then add every generator inside W that touches the
    # component until none does.
    comp, seen = [], 0
    for r in has:
        comp.append(r & ~seen)
        seen |= r
    grown = True
    while grown:
        grown = False
        for g_in, vs in zip(inside, verts):
            touch, full = 0, g_in
            for p in vs:
                touch |= comp[p]
                full &= comp[p]
            new = g_in & touch & ~full
            if new:
                grown = True
                for p in vs:
                    comp[p] |= new

    flat = dominated + comp
    raw = np.frombuffer(b"".join(x.to_bytes(nbytes, "little") for x in flat), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(flat), nbytes), axis=1, count=count, bitorder="little")
    by_vertex = bits[:nverts]
    collapse = np.where(by_vertex.any(axis=0), by_vertex.argmax(axis=0), -1).tolist()
    lowest = (vertex_bits @ bits[nverts:]).tolist()
    return [
        (w, (w ^ 1 << v,) if v >= 0 else (None if c == w else (c, w ^ c)))
        for w, v, c in zip(survivors.tolist(), collapse, lowest)
    ]


def betti_hochster(
    ideal: MonomialIdeal, field: FieldSpec = GF2, cap: int = DEFAULT_CAP
) -> BettiTable:
    """Betti table of R/I by summing homology of induced subcomplexes.

    Hochster's formula sums dim H~_{j-i-1}(Delta_W) over the vertex subsets
    W with |W| = j. Three steps, over the subsets W that survive cone pruning
    (the generators inside W cover it; otherwise Delta_W is a cone). One
    closure over all 2^n masks finds them: seeded with each generator at its
    own mask and OR-ed up into every superset, a bit at a time, it leaves at
    each W the union of the generators inside W. W is a face where that
    union is 0 and survives where it is W itself.

    - plan: ``_plan`` takes the homology of a strong collapse or of a join
      from smaller subsets, and leaves every other W to be ranked;
    - rows: the boundary rows of the faces inside some ranked W, a
      subcomplex, are built once. Some W is always ranked: a generator g
      survives, and Delta_g, the boundary of a simplex ({empty set} when
      |g| = 1), has one component and no dominated vertex;
    - evaluate: in mask order, so every proper subset of W comes first, each
      W's Poincare series is ranked or multiplied out of the memo, which
      keeps only nonzero series.

    A ranked W with a vertex v such that W - v is nonempty and has no series
    in the memo (Delta_{W-v} is acyclic: a cone or zero homology) ranks the
    link of v instead of Delta_W, taking the lowest such v. Delta_W is the
    union of Delta_{W-v} and the star of v, a cone, which meet in lk(v), so
    reduced Mayer-Vietoris gives H~_d(Delta_W) = H~_{d-1}(lk v) over every
    field. W - v must be nonempty: Delta_{} = {empty set} has H~_{-1} = 1.
    Every vertex of a ranked W with two or more vertices is a vertex of
    Delta_W, since a generator {v} inside W would make v dominated.

    ``cap`` bounds the vertices the generators use, which size the 2^n
    arrays; variables in no generator cost nothing.
    """
    if ideal.is_unit:
        raise InputError("Betti table of the unit ideal is not defined")
    table: dict[tuple[int, int], int] = {(0, 0): 1}
    if ideal.is_zero:
        return BettiTable.from_dict(table)
    char = field.characteristic

    used = sorted(set().union(*ideal.gens))
    if len(used) > cap:
        # the ambient n is at least len(used), and is what the user knows
        raise CapacityError(
            f"ambient n={ideal.n} exceeds the enumeration cap {cap}; "
            f"raise it with --cap or the {CAP_ENV_VAR} environment variable"
        )
    pos = {v: k for k, v in enumerate(used)}
    gmasks = [sum(1 << pos[v] for v in g) for g in ideal.gens]
    # covered[W]: the union of the generators inside W
    covered = np.zeros(1 << len(used), dtype=np.int64)
    covered[gmasks] = gmasks
    for b in range(len(used)):
        halves = covered.reshape(-1, 2, 1 << b)
        halves[:, 1] |= halves[:, 0]
    is_face = covered == 0
    survivors = np.flatnonzero(covered == np.arange(1 << len(used)))[1:]
    del covered
    plan = _plan(survivors, gmasks, is_face, len(used))

    # mark the ranked W, then every subset of one, a bit at a time
    below = np.zeros(1 << len(used), dtype=bool)
    below[[w for w, parts in plan if parts is None]] = True
    for b in range(len(used)):
        halves = below.reshape(-1, 2, 1 << b)
        halves[:, 0] |= halves[:, 1]
    faces = np.flatnonzero(is_face & below)[1:]
    face_list = faces.tolist()
    row_of = dict(zip(face_list, _boundary_rows(face_list, char)))
    bits = [1 << p for p in range(len(used))]

    memo: dict[int, dict[int, int]] = {}
    for w, parts in plan:
        if parts is None:
            own = faces[(faces & ~w) == 0].tolist()
            # the lowest v with Delta_{W-v} acyclic: W - v nonempty, no series in the memo
            v = next((b for b in bits if w & b and b != w and w ^ b not in memo), 0)
            if v:
                # rank lk(v) = {F - v : v in F in Delta_W, F != {v}}, whose faces
                # are faces of Delta_W too, so their rows are already built
                own = [f ^ v for f in own if f & v and f != v]
            dims = _homology_dims_from_faces([row_of[f] for f in own], char)
            shift = 2 if v else 1
            series = {d + shift: h for d, h in dims.items()}
        else:
            series = {0: 1}
            for part in parts:
                series = _join_series(series, memo.get(part, {}))
        if series:
            memo[w] = series
            size = w.bit_count()
            for k, h in series.items():
                table[(size - k, size)] = table.get((size - k, size), 0) + h
    return BettiTable.from_dict(table)


# -- regularity and the short-exact-sequence bound ---------------------------------


def regularity(ideal: MonomialIdeal, field: FieldSpec = GF2, cap: int = DEFAULT_CAP):
    """reg(R/I): max j - i over nonzero Betti entries; -inf for the unit ideal."""
    if ideal.is_unit:
        return NEG_INF
    return betti_hochster(ideal, field, cap=cap).regularity()


@dataclass(frozen=True)
class SesBoundReport:
    """The three regularities compared by the short-exact-sequence bound.

    For 0 -> R/(I:m)(-deg m) -> R/I -> R/(I + <m>) -> 0 the middle regularity
    is at most the max of the outer two (with the twist added on the left).
    """

    reg_quotient: float
    reg_colon_shifted: float
    reg_sum: float

    @property
    def holds(self) -> bool:
        return self.reg_quotient <= max(self.reg_colon_shifted, self.reg_sum)

    @classmethod
    def of(
        cls, ideal: MonomialIdeal, m: Iterable[int], reg: Callable[[MonomialIdeal], float]
    ) -> "SesBoundReport":
        """The bound for I and the squarefree monomial m, taking each reg(R/J) from ``reg``."""
        support = frozenset(m)
        if not support:
            raise InputError("the monomial must not be 1")
        return cls(
            reg(ideal),
            reg(colon(ideal, support)) + len(support),
            reg(add_monomial(ideal, support)),
        )
