"""Exact graded Betti numbers and regularity of squarefree monomial ideals.

Everything is computed for the quotient ring R/I (so beta_{0,0} = 1 and the
first syzygy layer counts the minimal generators of I). ``betti_hochster``
sums reduced homology of induced subcomplexes of the Stanley-Reisner complex
over vertex subsets, skipping subsets whose subcomplex is a cone (a vertex
lying in no generator inside the subset), and takes most other subsets'
homology from smaller subsets or from a link of a face, so that few
complexes are ranked. ``betti_hochster``'s docstring is the one account of
the algorithm. The test suite referees it with an independent upper-Koszul
oracle.

The memo of nonzero series is the sum's own record of its terms, and stays
inside the sum: its last step lists them once (``hochster_terms``), each
under the Betti position it adds to, and the table keeps that list
(``BettiTable.terms``). ``sub_table`` then gives the table of the ideal
generated by the generators inside any vertex set S, as the sub-sum over W
inside S, in one filter pass over that list with no homology computed: the
Betti table of an induced subgraph's path ideal.

Ranks are exact and come from one reduction by leading column, in two
kernels: rows packed as int bitsets over GF(2), and sparse {column: entry}
rows over GF(p) (Python ints mod p) or Q (ints, with Fractions only after a
pivot other than +-1).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import CapacityError, InputError
from .ideals import MonomialIdeal, add_monomial, colon, vertices_of

DEFAULT_CAP = 22
CAP_ENV_VAR = "PATHIDEALS_CAP"
MAX_PRIME = 1 << 31
# the weight of each of 8 bits in a byte, least significant first
_BYTE_WEIGHTS = np.array([1 << k for k in range(8)], dtype=np.uint8)


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


def _columns(faces: list[int]) -> dict[int, int]:
    """Column of each face (bitmask) in boundary rows: faces numbered per size in the given order.

    The empty face is column 0 of size 0, so a d-face's row has d+1 nonzeros.
    """
    ids = {0: 0}
    # counts[k]: the faces of size k numbered so far; a size is at most the bit length
    counts = [0] * (max(faces, default=0).bit_length() + 1)
    for face in faces:
        k = face.bit_count()
        ids[face] = counts[k]
        counts[k] += 1
    return ids


def _boundary_row(face: int, ids: Mapping[int, int], char: int):
    """Augmented boundary row of a nonempty face (bitmask), in the columns ``ids``.

    An int bitset if char == 2 and a {column: +-1} dict otherwise. Rows in
    one ``_columns`` numbering of a complex's faces are its boundary matrix,
    and any subcomplex's rows are a subset of them; ``betti_hochster``
    builds each one the first time a ranked complex reads it.
    """
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
    return row


def _homology_dims_from_faces(rows: list, char: int) -> dict[int, int]:
    """Reduced homology dims of a complex given the boundary rows of its nonempty faces.

    The rows are those of ``_boundary_row``; a d-face's row has d+1 nonzeros.
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


def _graph_link_dims(s: int, w: int, face: bytes, shift: int) -> dict[int, int] | None:
    """Series of lk_W(S) in closed form, shifted up by ``shift``, or None if it has a 2-face.

    The series maps d + ``shift`` to the dimension of the reduced homology
    H~_d(lk_W S), for its nonzero degrees d, so the caller's shift is added
    as the one dict is built. ``face``, one byte per mask, is nonzero at M
    exactly when M is a face of Delta; only masks inside W are read. The
    link's vertices are the b in W - S with S + b a face, its edges the
    pairs a, b with S + a + b a face. With no vertex it is {empty set};
    otherwise, if no S + a + b + c is a face, it is a graph with V vertices,
    E edges and c components, so H~_0 has dimension c - 1 and H_1, free,
    E - V + c, over every field.
    """
    verts = 0
    todo = w & ~s
    while todo:
        b = todo & -todo
        todo ^= b
        if face[s | b]:
            verts |= b
    if not verts:
        return {shift - 1: 1}
    # down: each link vertex a met so far, with its link neighbours below a
    down: list[tuple[int, int]] = []
    edges, comps, todo = 0, [], verts
    while todo:
        b = todo & -todo
        todo ^= b
        sb, m = s | b, 0
        for a, below_a in down:
            if face[sb | a]:
                # a 2-face c < a < b has c below both a and b
                both = below_a & m
                while both:
                    c = both & -both
                    both ^= c
                    if face[sb | a | c]:
                        return None
                m |= a
        down.append((b, m))
        if not m:
            # no edge below b: b starts a component of its own
            comps.append(b)
            continue
        edges += m.bit_count()
        # merge every component the edges at b touch
        comp, kept = b | m, []
        for other in comps:
            if other & comp:
                comp |= other
            else:
                kept.append(other)
        kept.append(comp)
        comps = kept
    dims = {}
    if len(comps) > 1:
        dims[shift] = len(comps) - 1
    cycles = edges - verts.bit_count() + len(comps)
    if cycles:
        dims[shift + 1] = cycles
    return dims


# -- Betti tables -----------------------------------------------------------------


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of R/I as sorted (i, j, beta) triples.

    ``terms`` is set on the table ``betti_hochster`` returns: the Hochster
    terms it summed (``HochsterTerms``), for ``sub_table``. Any other table
    has None. Only ``entries`` are compared, hashed, shown and written out.
    """

    entries: tuple[tuple[int, int, int], ...]
    terms: HochsterTerms | None = field(default=None, compare=False, repr=False)

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
        theirs = other.as_dict()
        return all(b <= theirs.get((i, j), 0) for i, j, b in self.entries)

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
    survivors: np.ndarray, gmasks: list[int], gverts: list[list[int]], is_face: np.ndarray, nverts: int
) -> tuple[list[int], list[int]]:
    """How each surviving subset W gets its homology: two lists aligned with ``survivors``.

    ``gverts`` lists each generator's vertices (bit positions), aligned with
    its mask in ``gmasks``. ``is_face[W]`` says whether W is a face of Delta
    (no generator lies inside it), for every mask W, 0 included. The lists
    hold, per W, a vertex v (a bit position) or -1, and the mask C of the
    component of W's lowest vertex. The Poincare series sum_d dim H~_d
    t^(d+1) of Delta_W is then, by the first rule that applies, that of a
    proper subset of W or the product of two, smaller masks that come earlier:

    - v >= 0, the lowest vertex some u in W dominates in Delta_W: every face
      with v stays a face with u added, so Delta_W strong-collapses onto
      Delta_{W-v} (Barmak-Minian). A non-survivor W - v has zero homology.
    - C != W, grouping the generators inside W by shared vertices: Delta_W
      is the join of Delta_C and Delta_{W-C} (Kuenneth). Both are
      survivors, and W - C is peeled the same way in its own turn.

    Every other W is left to rank. Both rules hold over every field and read
    only which generators lie inside W. Each test runs on all survivors at
    once, on int bitsets over the survivors. Only the vertex bitsets (W
    holds p) come from numpy, in one pass: the survivors' low bytes, at most
    3 for 24 vertices, are unpacked to one 0/1 row per vertex and each row
    is packed into an int. A generator lies inside W exactly when W holds
    each of its vertices, so its bitset is the AND of theirs. Which faces (g - u) + v exist is read for
    every generator g, u in g and vertex v at once, and only the true flags
    reach Python. The results are again one bitset per vertex: v is
    dominated in W, and p lies in C. Unpacked to one 0/1 row per vertex,
    they give v as the first dominated vertex, and C packed 8 vertices to a
    byte, the bytes read as a little-endian int.
    """
    count = len(survivors)
    nbytes = (count + 7) // 8
    # the survivors' low bytes, unpacked to one 0/1 row per vertex (W holds
    # p) and packed again: row p is the bitset of the W holding p. The rows
    # are made contiguous first, where packbits runs several times faster
    low = survivors.astype("<i8", copy=False).view(np.uint8).reshape(count, 8)[:, : (nverts + 7) // 8]
    by_vertex = np.ascontiguousarray(np.unpackbits(low, axis=1, count=nverts, bitorder="little").T)
    has = [int.from_bytes(row.tobytes(), "little") for row in np.packbits(by_vertex, axis=1, bitorder="little")]
    inside = [reduce(and_, map(has.__getitem__, vs)) for vs in gverts]
    vertex_bits = np.array([1 << p for p in range(nverts)], dtype=np.int64)

    # conflict[v][u]: the W in which u does not dominate v, i.e. some
    # generator g inside W has u in g and (g - u) + v a face of Delta
    pairs = [(g_in, u) for g_in, vs in zip(inside, gverts) for u in vs]
    minus_u = np.array([g ^ 1 << u for g, vs in zip(gmasks, gverts) for u in vs], dtype=np.int64)
    conflict = [[0] * nverts for _ in range(nverts)]
    pair_at, vertex = np.nonzero(is_face[minus_u[:, None] | vertex_bits])
    for k, v in zip(pair_at.tolist(), vertex.tolist()):
        g_in, u = pairs[k]
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
        for g_in, vs in zip(inside, gverts):
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
    # argmax runs faster on a bool view than on uint8
    collapse = np.where(by_vertex.any(axis=0), by_vertex.view(bool).argmax(axis=0), -1).tolist()
    # each W's component C, packed 8 vertices to a byte (the 0/1 rows of 8
    # vertices weighted 1, 2, ..., 128, all in uint8) and the bytes read as a
    # little-endian int64
    words = np.zeros((count, 8), dtype=np.uint8)
    for k in range(0, nverts, 8):
        rows = bits[nverts + k : nverts + k + 8]
        words[:, k // 8] = _BYTE_WEIGHTS[: len(rows)] @ rows
    return collapse, words.view("<i8")[:, 0].tolist()


def _vertex_sets(nverts: int) -> Iterator[int]:
    """The masks over ``nverts`` vertices that hold p, for p from ``nverts`` - 1 down to 0.

    Each set is one int, with bit M set for each mask M in it. The top
    vertex's set is the upper half of the masks. Below it, adding 2^p to M
    carries into bit p + 1 exactly when M holds p, so if x holds the masks
    holding p + 1, those holding p are x ^ (x >> 2^p).
    """
    half = 1 << nverts - 1
    masks = ((1 << half) - 1) << half
    yield masks
    for p in range(nverts - 2, -1, -1):
        masks ^= masks >> (1 << p)
        yield masks


def _flags(masks: int, size: int) -> np.ndarray:
    """One 0/1 byte per mask below ``size``: 1 where the mask is in the set ``masks``, bit M for the mask M."""
    packed = np.frombuffer(masks.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little")


def _face_index(face_set: int, ranked: list[int], nverts: int) -> tuple[dict[int, int], np.ndarray]:
    """Columns and sorted array of the faces inside some W in ``ranked``, a subcomplex.

    ``face_set`` is the set of faces of Delta over ``nverts`` vertices, an
    int with bit M set where the mask M is a face. The masks inside some
    ranked W are found as one set, an int with bit M for the mask M: it
    starts as the ranked W, and for each vertex b every mask in it that
    holds b adds itself less b, the masks holding b shifted down by 2^b.
    The faces in that set are listed in a sorted array, the empty face left
    out, and their columns numbered in its order. ``betti_hochster`` builds
    this for the first link it ranks, with ``ranked`` its W left to rank
    that are no generator's support.
    """
    size = 1 << nverts
    marks = bytearray((size + 7) // 8)
    for w in ranked:
        marks[w >> 3] |= 1 << (w & 7)
    below = int.from_bytes(marks, "little")
    for b, holds in zip(range(nverts - 1, -1, -1), _vertex_sets(nverts)):
        below |= (below & holds) >> (1 << b)
    faces = np.flatnonzero(_flags(below & face_set, size))[1:]
    # columns numbered up front in sorted order, not as rows are first built:
    # any numbering gives the same ranks, but first-met numbering made the
    # GF(2) reduction of G(17, 0.3) take 17% more XOR steps
    return _columns(faces.tolist()), faces


def check_cap(n: int, used: int, cap: int) -> None:
    """Refuse an ideal in ``n`` variables whose generators use ``used`` of them, more than ``cap``.

    The one cap test and message: ``betti_hochster`` applies it to its ideal,
    and ``GraphContext.table()``, its one graph-side caller, before a 3-path is listed.
    """
    if used > cap:
        # the ambient n is at least used, and is what the user knows
        raise CapacityError(
            f"ambient n={n} exceeds the enumeration cap {cap}; "
            f"raise it with --cap or the {CAP_ENV_VAR} environment variable"
        )


def betti_hochster(ideal: MonomialIdeal, field: FieldSpec = GF2, cap: int = DEFAULT_CAP) -> BettiTable:
    """Betti table of R/I by summing homology of induced subcomplexes.

    Hochster's formula sums dim H~_{j-i-1}(Delta_W) over the vertex subsets
    W with |W| = j. Three steps, over the subsets W that survive cone pruning
    (the generators inside W cover it; otherwise Delta_W is a cone). Set
    algebra over all 2^n masks finds them, each set of masks one int with
    bit M for the mask M. ``_vertex_sets`` gives holds[p], the masks holding
    vertex p. A generator's supersets are the AND of its vertices' sets, the
    non-faces are the OR of those, and cover[p] is the OR of the supersets
    of the generators holding p. W is pruned where it holds some p outside
    cover[p]. The ascending survivors and the face bytes are each one
    unpacking of one set.

    - plan: ``_plan`` names, per W, a dominated vertex, whose strong
      collapse gives W a smaller subset's homology, and the component of the
      lowest vertex, a join with the rest when it is not all of W. Every
      other W is left to rank, and each generator's support g is among
      those: Delta_g, the boundary of a simplex ({empty set} when |g| = 1),
      has one component and no dominated vertex;
    - faces: Delta_g needs no rank, since g is the only generator inside it
      (minimal generators form an antichain), and its series is t^(|g|-1).
      Whether a mask is a face is kept as one byte per mask and as the set
      of faces; nothing else about the faces is built up front;
    - evaluate: in mask order, so every proper subset of W comes first, each
      W's Poincare series is written down, counted, ranked or multiplied out
      of the memo, which keeps only nonzero series. The first complex ranked
      builds the face index (``_face_index``) from the set of faces: the
      faces inside every other W left to rank, a subcomplex, listed in a
      sorted array with their columns numbered in its order. A sum that
      ranks nothing, as on a path or most small trees, builds none. A
      ranked complex selects its faces by one vectorized test on the link
      of its face S, and a face's boundary row is built on first use and
      kept for the rest of the sum.
      A collapse takes the series of W - v itself, not a copy.

    Every face and subset is named by its mask alone: the face bytes and
    the face array are read by mask, the rows are keyed by the face's mask
    and the memo by W's.

    Each other W left to rank descends to a face S of Delta_W first. S
    starts empty and takes each vertex b of W, in mask order, for which no
    W - (T + b), T inside S, has a series in the memo, so that Delta_{W-T}
    is acyclic (a cone or zero homology) for every nonempty T inside S + b.
    Delta_W is the union of Delta_{W-v} and the star of v, a cone, which
    meet in lk_W(v); so with Delta_{W-v} acyclic, reduced Mayer-Vietoris
    gives H~_d(Delta_W) = H~_{d-1}(lk_W v) over every field. lk_W(v) less a
    vertex u is lk_{W-u}(v), acyclic by the same sequence on W - u (both
    Delta_{W-u} and Delta_{W-u-v} are), so the step repeats inside the
    link, once per vertex of S: the lemma H~_d(Delta_W) = H~_{d-|S|}(lk_W S),
    the splitting of Adamaszek ("Splittings of independence complexes",
    JCTA 2012) applied once per vertex. Then:

    - rank-free: if such a b makes S + b a non-face, no face of lk_W(S)
      holds b, so it is lk_{W-b}(S), acyclic by the lemma on W - b. W gets
      no series and nothing is read;
    - split: if S stays empty, every W - b has a series. With v the lowest
      vertex of W, the same sequence reads
      H~_d(lk_W v) -> H~_d(Delta_{W-v}) -> H~_d(Delta_W) -> H~_{d-1}(lk_W v)
      -> H~_{d-1}(Delta_{W-v}). If no degree has homology in both lk_W(v)
      and Delta_{W-v}, every map between them is zero, and W's series is
      W - v's plus lk_W(v)'s shifted up by 2: a sum of terms, in a new dict,
      as memo values are shared. Otherwise a map may be nonzero, and
      Delta_W, the link of the empty face, is read and shifted up by 1;
    - otherwise, once every vertex of W is tried, lk_W(S) is read and its
      series shifted up by |S| + 1.

    A link read is ranked only if it has a 2-face. One without is a graph,
    or {empty set}, whose homology ``_graph_link_dims`` counts from its
    vertices, edges and components, looking each face up in the face bytes.

    W - T is never empty, which matters, as Delta_{} = {empty set} has
    H~_{-1} = 1 though no memo entry says so. It could be only when
    S + b = W. Then every generator inside W holds b, as S is a face, and
    one of them, g, is not W, as W is no generator's support. T = W - g is
    a nonempty subset of S with Delta_{W-T} = Delta_g, a sphere in the
    memo, so the descent would have refused the last vertex of T it met.
    Every vertex of W is a face, so S takes its first vertex with no test,
    and the split's v is one: a vertex in no face of Delta_W is dominated by
    every other, so its W is a collapse, never left to rank.

    A ranked complex is read from lk(S), its face S's link in the face
    array: the faces F - S for every face F != S holding S, filtered once
    per S and kept for the rest of the sum, of which those inside W are read.

    ``cap`` bounds the vertices the generators use, which size the 2^n face
    bytes and the 2^n-bit sets; variables in no generator cost nothing. The
    test is ``check_cap``'s, after the unit and zero-ideal tests. The
    face bytes, the largest single object, are asked for before any set is
    built, and a cap so high that they cannot be allocated is a
    ``CapacityError`` too.

    Last, ``hochster_terms`` walks the memo once, listing each term under
    the Betti position it adds to. The table is those terms summed per
    position, and keeps them as ``terms`` (none listed for the zero ideal),
    from which ``sub_table`` takes any vertex set's sub-sum. The terms are
    all that leaves the sum: the memo is its own.
    """
    if ideal.is_unit:
        raise InputError("Betti table of the unit ideal is not defined")
    if ideal.is_zero:
        return BettiTable(((0, 0, 1),), hochster_terms((), {}))
    char = field.characteristic

    # the variables in some generator, in sorted order: bit k of a mask is the k-th
    used = vertices_of(reduce(or_, ideal.masks, 0))
    check_cap(ideal.n, len(used), cap)
    pos = {v: k for k, v in enumerate(used)}
    gverts = [[pos[v] for v in vertices_of(g)] for g in ideal.masks]
    gmasks = [sum(1 << p for p in vs) for vs in gverts]
    size = 1 << len(used)
    try:
        # face[M]: 1 if the mask M is a face of Delta, else 0. The sum's
        # largest object, asked for in one request before any set of masks
        # is built, so a size no allocator meets is refused at once
        face = bytearray(size)
    except (MemoryError, OverflowError) as exc:
        raise CapacityError(
            f"the generators use {len(used)} vertices, and the 2^{len(used)} subset arrays "
            f"that --cap {cap} admits cannot be allocated"
        ) from exc
    # sets of masks, each one int with bit M for the mask M
    holds = list(_vertex_sets(len(used)))[::-1]
    nonfaces, cover = 0, [0] * len(used)
    for verts in gverts:
        above = reduce(and_, map(holds.__getitem__, verts))
        nonfaces |= above
        for p in verts:
            cover[p] |= above
    # W is a cone, pruned, where it holds a vertex no generator inside it
    # holds; the empty mask is no survivor either
    pruned = 1
    for p in range(len(used)):
        pruned |= holds[p] & ~cover[p]
    del holds, cover, above
    every = (1 << size) - 1
    survivors = np.flatnonzero(_flags(every ^ pruned, size))
    # the set of faces, kept for the face index
    face_set = every ^ nonfaces
    is_face = np.frombuffer(face, dtype=bool)
    is_face[:] = _flags(face_set, size)
    del every, pruned, nonfaces
    collapse, lowest = _plan(survivors, gmasks, gverts, is_face, len(used))
    del is_face
    # listed only now, as _plan's temporaries set the peak memory of a large sum
    masks = survivors.tolist()

    # W's series where Delta_W has homology, over every W met so far
    memo: dict[int, dict[int, int]] = {}
    # a generator's support W is a sphere, written down: no rank and no rows
    gens = set(gmasks)
    # the boundary row of each face F, added when a ranked complex first reads F
    rows: dict = {}
    # (ids, faces), built when a link is first ranked, as most sums rank none
    index = None
    # links[S]: lk(S), the faces F - S for each face F != S holding S
    links: dict = {}

    def link_dims(s: int, w: int, shift: int) -> dict[int, int]:
        """H~(lk_W S) shifted up by ``shift``: in closed form if it is a graph, ranked if it has a 2-face."""
        nonlocal index
        dims = _graph_link_dims(s, w, face, shift)
        if dims is None:
            if index is None:
                ranked = [
                    m for m, v, c in zip(masks, collapse, lowest) if v < 0 and c == m and m not in gens
                ]
                index = _face_index(face_set, ranked, len(used))
            ids, faces = index
            if s not in links:
                links[s] = faces[((faces & s) == s) & (faces != s)] ^ s
            lk = links[s]
            inside = lk[(lk & ~w) == 0].tolist()
            # a row is never 0 or empty, so only a missing one is falsy
            got = [rows.get(f) or rows.setdefault(f, _boundary_row(f, ids, char)) for f in inside]
            dims = {d + shift: h for d, h in _homology_dims_from_faces(got, char).items()}
        return dims

    for w, v, c in zip(masks, collapse, lowest):
        if v >= 0:
            # a strong collapse: W - v's series itself, shared, not copied
            series = memo.get(w ^ 1 << v)
        elif c != w:
            # a join of the component C of W's lowest vertex and W - C
            series = _join_series(memo.get(c, {}), memo.get(w ^ c, {}))
        elif w in gens:
            # one sphere of dimension |W| - 2, or {empty set} when |W| = 1
            series = {w.bit_count() - 1: 1}
        else:
            # descend: add each vertex b of W, in mask order, whose W - (T + b)
            # has no series in the memo (is acyclic) for every T inside S.
            # While S is empty, T is too, and W - b is tested alone
            series, todo = None, w
            while todo:
                b = todo & -todo
                todo ^= b
                if w ^ b in memo:
                    continue
                # S takes b, a face as every vertex of W is; rest holds W - T
                # for every T inside S
                s, rest = b, [w, w ^ b]
                while todo:
                    b = todo & -todo
                    todo ^= b
                    for r in rest:
                        if r ^ b in memo:
                            break
                    else:
                        if not face[s | b]:
                            # no face of lk_W(S) holds b: it is lk_{W-b}(S), acyclic
                            break
                        s |= b
                        rest += [r ^ b for r in rest]
                else:
                    series = link_dims(s, w, s.bit_count() + 1)
                break
            else:
                # every W - b has homology: split Delta_W on its lowest vertex v
                v = w & -w
                without_v = memo[w ^ v]
                lk = link_dims(v, w, 2)
                if any(d - 1 in without_v for d in lk):
                    # H~_j(lk_W v) -> H~_j(Delta_{W-v}) may be nonzero: read Delta_W
                    series = link_dims(0, w, 1)
                else:
                    # a new dict: memo values are shared, and both may hold a degree
                    series = dict(without_v)
                    for d, h in lk.items():
                        series[d] = series.get(d, 0) + h
        if series:
            memo[w] = series
    terms = hochster_terms(used, memo)
    return BettiTable(((0, 0, 1), *[(i, j, sum(hs)) for (i, j), _, hs in terms.by_key]), terms)


@dataclass(frozen=True)
class HochsterTerms:
    """The terms of one ideal's Hochster sum, kept on its table for its sub-sums (``sub_table``).

    ``used`` lists the vertices the generators use, bit k of a memo mask
    standing for ``used[k]``. ``by_key`` holds each Betti position (i, j)
    with the masks W of the terms that add to it and, aligned, the h each
    adds: the memo series of W has h at t^(j - i), and |W| = j. A memo entry
    is listed once per degree of its series, so a sub-sum reads no series
    and counts no bits. The lists are shared by every reader of the table,
    so they are read-only.
    """

    used: tuple[int, ...]
    by_key: tuple[tuple[tuple[int, int], list[int], list[int]], ...]


def hochster_terms(used: Iterable[int], memo: Mapping[int, Mapping[int, int]]) -> HochsterTerms:
    """The terms of the memo ``betti_hochster`` filled over ``used``; the memo is only read."""
    by_key: defaultdict[tuple[int, int], tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
    for w, series in memo.items():
        size = w.bit_count()
        for k, h in series.items():
            ws, hs = by_key[size - k, size]
            ws.append(w)
            hs.append(h)
    return HochsterTerms(tuple(used), tuple((key, ws, hs) for key, (ws, hs) in by_key.items()))


def sub_table(terms: HochsterTerms, keep: Iterable[int]) -> BettiTable:
    """Betti table of R/J, J generated by the generators of the terms' ideal inside ``keep``.

    ``terms`` is ``betti_hochster(I).terms``. For W inside ``keep`` the
    generators inside W are the same for J as for I, so Delta_W is too, and
    Hochster's sum for J is the sub-sum of I's terms over those W (for a
    path ideal, J is the path ideal of the induced subgraph on ``keep``).
    The field is I's sum's. The table keeps no terms of its own.
    """
    keep = set(keep)
    outside = ~sum([1 << k for k, v in enumerate(terms.used) if v in keep])
    # a position no term inside ``keep`` reaches sums to 0, which BettiTable drops
    return BettiTable(((0, 0, 1), *[
        (i, j, sum([h for w, h in zip(ws, hs) if not w & outside])) for (i, j), ws, hs in terms.by_key
    ]))


# -- the short-exact-sequence bound -----------------------------------------------


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
