"""Edge-vector families certifying weak saturation lower bounds.

The certificate scheme: assign to every edge e of G a rational vector f_e
of length w such that (a) for every star center v and every admissible
coefficient vector x supported on labels of edges at v, the combination
sum_i x_i f_{e(v,i)} vanishes, with all coefficients nonzero on any chosen
(r+1)-leaf star, and (b) the family spans R^w.  Replaying the edge
additions of any weakly saturated subgraph then shows its edge count is at
least dim span {f_e} = w, so wsat(G, S_{r+1}) >= w, and dividing by r
bounds the minimum percolating set.

Families are built by the same recursions as the saturated graphs, in
one coordinate convention: subspace coordinate j - 1 is grid label j.

* grid: peel the highest axis of length >= 3.  The shortened copy reuses
  the subspace unchanged; the dropped-axis copy gets the members that
  vanish on the label that cannot occur on the boundary, read without the
  peeled axis's two labels; cross edges into the low-degree set Y get
  fresh basis vectors, other cross edges get the killing combination for
  a member supported inside the boundary vertex's label set.
* hypercube (all sides 2): every edge is odd, so the subspace is first
  compressed to the members that vanish on the d even labels.  Then split
  off the last axis; the bottom copy gets the members that vanish on the
  last label, the top copy every member, both read without it.  Cross
  edges get the unique combination that kills the z-relation at their
  bottom endpoint, z the member on the last label and the r least others.

Only the root subspace is certified, once per build and once per recheck.
The subspaces derived from it only steer the construction, so they are
reduced and their dimension checked, nothing more: `verify_family` checks
every relation and the rank of the finished family against the root, so
certifying them would prove nothing more.  A broken one still fails
loudly, in `find_support_vector` (no one-dimensional solution, or the wrong
support) or at `verify_family`.  The finished family is checked once per
defining property, by `verify_family`: (a) over a basis of the members supported inside each
vertex's label set, (b) by one exact elimination.  Checking (a) over that
basis covers every (r+1)-star because the subspace has codimension r and
every nonzero member has support >= r+1 (circuit spanning).  Fix r labels
B inside a label set C.  For each c in C - B the subspace has a member
x_{B+c} supported exactly on B+c (codimension r leaves one dimension, and
support >= r+1 forbids a smaller support), and these |C| - r members are
independent.  A member supported inside C is fixed by its entries on C - B,
since two that agree there differ by a member supported inside B, which is
zero.  So the x_{B+c} span every member supported inside C, and checking a
basis of those members checks them all.  Each star's relation x_T
(|T| = r+1, T inside C) is such a member, so it vanishes, and its
coefficients are all nonzero because its support is exactly T.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .counts import DomainError, w_recurrence, wsat_hypercube
from .grid import GridSpec, _json_field, _json_int, _json_list, _peel_axis, parse_grid
from .linalg import (
    CertificationError,
    SupportSubspace,
    Vector,
    build_support_subspace,
    find_support_vector,
    rank_profile_of_rows,
    reduce_rows,
    support,
)


class FamilyError(ValueError):
    pass


# An edge vector in R^target_dim, kept sparse: column -> nonzero exact
# entry.  Families share one dict between edges whose vectors are equal
# (a copied sub-grid reuses its source's vectors), so none is ever mutated.
EdgeVector = dict[int, Fraction]
F1 = Fraction(1)


@dataclass(frozen=True)
class EdgeVectorFamily:
    """Vectors indexed by the grid's global edge enumeration, each a
    sparse `EdgeVector`; `to_json_doc` writes them dense.  The subspace
    coordinates are the 2d odd/even grid labels: coordinate j - 1 is label
    j (the file's `"label_mode": "grid"`).
    """

    spec: GridSpec
    r: int
    target_dim: int
    vectors: tuple[EdgeVector, ...]
    subspace: SupportSubspace

    def __post_init__(self) -> None:
        if len(self.vectors) != self.spec.num_edges:
            raise FamilyError("need exactly one vector per edge")

    @property
    def num_labels(self) -> int:
        """Subspace coordinates: the 2d odd/even labels."""
        return 2 * self.spec.d

    def incident_coords(self, v: int) -> tuple[int, ...]:
        """0-based subspace coordinates whose edge exists at v."""
        return tuple(j - 1 for j in self.spec.incident_labels(v))

    def edge_at(self, v: int, coord: int) -> int:
        """Global index of e(v, coord) for a 0-based subspace coordinate."""
        idx = self.spec.label_to_edge_index(v, coord + 1)
        if idx < 0:
            raise FamilyError(f"no edge with label {coord + 1} at vertex {v}")
        return idx


@dataclass(frozen=True)
class RankCertificate:
    family: EdgeVectorFamily
    rank: int
    pivot_edges: tuple[int, ...]
    wsat_lower: int
    m_lower: int

    def to_json_doc(self) -> dict:
        fam = self.family
        return {
            "kind": "rank-certificate",
            "spec": str(fam.spec),
            "r": fam.r,
            "label_mode": "grid",
            "ambient": fam.subspace.ambient,
            "subspace_basis": [[str(x) for x in row] for row in fam.subspace.basis],
            "target_dim": fam.target_dim,
            "vectors": [_dense_strings(vec, fam.target_dim) for vec in fam.vectors],
            "rank": self.rank,
            "pivot_edges": list(self.pivot_edges),
            "wsat_lower": self.wsat_lower,
            "m_lower": self.m_lower,
        }


def _dense_strings(vec: EdgeVector, length: int) -> list[str]:
    """The JSON form of a sparse vector: every entry as str(Fraction), so a
    zero is "0"."""
    out = ["0"] * length
    for j, x in vec.items():
        out[j] = str(x)
    return out


def _parse_vector(entries, length: int, parsed: dict[str, Fraction]) -> EdgeVector:
    """A JSON vector of rational strings, read straight into sparse form:
    "0" (nearly every entry) is skipped, every other entry is exactly
    Fraction(entry), parsed once per distinct string and remembered in
    `parsed`, and kept when it is nonzero ("-0" or "0/7" are not)."""
    if not isinstance(entries, list) or len(entries) != length:
        raise ValueError(f"every vector must be a list of target_dim = {length} entries")
    vec = {}
    for j, s in enumerate(entries):
        if s != "0":
            x = _parse_entry(s, parsed)
            if x:
                vec[j] = x
    return vec


# exactly what str(Fraction) writes; Fraction() would also read exponents,
# so a 10-byte entry like "1e10000000" could expand into a huge integer
_ENTRY = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_entry(s, parsed: dict[str, Fraction]) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"vector entry must be a string, got {type(s).__name__}")
    x = parsed.get(s)
    if x is None:
        if _ENTRY.fullmatch(s) is None:
            raise ValueError(f"vector entry {s[:40]!r} is not an integer or p/q fraction")
        try:
            x = parsed[s] = Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"vector entry {s[:40]!r} is not a rational number") from None
    return x


# ---------------------------------------------------------------------------
# vector helpers


def _units(n: int) -> list[EdgeVector]:
    """The standard basis of R^n: edge k gets the k-th unit vector."""
    return [{k: F1} for k in range(n)]


def _glue(low: EdgeVector, high: EdgeVector, shift: int) -> EdgeVector:
    """The vector whose first `shift` coordinates are `low` and whose next
    ones are `high`: the sparse form of padding and concatenation."""
    out = dict(low)
    for j, x in high.items():
        out[j + shift] = x
    return out


def _combination(
    vectors: Sequence[EdgeVector], terms: Iterable[tuple[int, Fraction]]
) -> EdgeVector:
    """sum of x * vectors[e] over the (edge index e, coefficient x) pairs:
    the combination sum_c x_c f_{e(v,c)} of the edge vectors at a vertex,
    with the entries that cancel dropped (empty means zero).

    Each sum is carried as an unreduced integer pair (numerator,
    denominator) and reduced once, by Fraction, at the end: the same exact
    value without a gcd per product and per addition."""
    acc: dict[int, tuple[int, int]] = {}
    for e, xc in terms:
        p, q = xc.numerator, xc.denominator
        for j, x in vectors[e].items():
            n, d = p * x.numerator, q * x.denominator
            if j in acc:
                an, ad = acc[j]
                acc[j] = (an * d + n * ad, ad * d)
            else:
                acc[j] = (n, d)
    return {j: Fraction(n, d) for j, (n, d) in acc.items() if n}


class _SupportSolver:
    """`find_support_vector` and the coefficients derived from its answers,
    memoized for the life of one build call.

    The recursion asks for the same (subspace, target) again and again: a
    build makes several times more requests than there are distinct ones.
    Each build creates its own solver and drops it on return, so no later
    build or command reuses its answers."""

    def __init__(self) -> None:
        self._vectors: dict[tuple, Vector] = {}  # (space, target) -> z
        self._terms: dict[tuple, list[tuple[int, Fraction]]] = {}  # (space, target, kill)

    def vector(self, space: SupportSubspace, target: tuple[int, ...]) -> Vector:
        """The member z of `space` supported exactly on `target`."""
        key = (space, target)
        z = self._vectors.get(key)
        if z is None:
            z = self._vectors[key] = find_support_vector(space, target)
        return z

    def killing_terms(
        self, space: SupportSubspace, target: tuple[int, ...], kill: int
    ) -> list[tuple[int, Fraction]]:
        """The pairs (c, -z_c / z_kill) over c in `target` other than `kill`:
        the edge at coordinate `kill` gets sum_c -z_c / z_kill f_{e(v,c)},
        so the z-relation at v vanishes."""
        key = (space, target, kill)
        terms = self._terms.get(key)
        if terms is None:
            z = self.vector(space, target)
            terms = self._terms[key] = [(c, -z[c] / z[kill]) for c in target if c != kill]
        return terms


# ---------------------------------------------------------------------------
# derived subspaces


def _derived(
    space: SupportSubspace, inside: Iterable[int], keep: Sequence[int], expect_dim: int
) -> SupportSubspace:
    """The members of `space` supported inside `inside`, read on `keep`,
    reduced and checked to have dimension `expect_dim`; not certified."""
    rows = space.vectors_supported_inside(inside)
    reduced = reduce_rows([[row[c] for c in keep] for row in rows], len(keep))
    derived = SupportSubspace(len(keep), tuple(reduced))
    if derived.dim != expect_dim:
        raise CertificationError(
            f"derived space has dimension {derived.dim}, expected {expect_dim}"
        )
    return derived


def _lex_first_superset(universe, required: int, size: int) -> tuple[int, ...]:
    """Lexicographically first `size`-subset of `universe` containing
    `required`: the required coordinate plus the smallest others."""
    pool = sorted(set(universe))
    if required not in pool:
        raise FamilyError(f"required coordinate {required} not available")
    out = [required]
    for c in pool:
        if len(out) == size:
            break
        if c != required:
            out.append(c)
    if len(out) != size:
        raise FamilyError(f"cannot pick {size} coordinates from {len(pool)}")
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# hypercube family (coordinate c is the odd label 2c + 1)


def _cube_family(
    spec: GridSpec, r: int, space: SupportSubspace, solver: _SupportSolver
) -> list[EdgeVector]:
    d = spec.d
    ne = spec.num_edges
    if r == 0:
        return [{}] * ne
    if d == r:
        return _units(ne)

    sub = GridSpec.hypercube(d - 1)
    x0 = _derived(space, range(d - 1), range(d - 1), d - 1 - r)
    x1 = _derived(space, range(d), range(d - 1), d - r)
    f0 = _cube_family(sub, r, x0, solver)
    f1 = _cube_family(sub, r - 1, x1, solver)
    w0 = wsat_hypercube(d - 1, r)
    assert wsat_hypercube(d, r) == w0 + wsat_hypercube(d - 1, r - 1)

    vectors: list[EdgeVector | None] = [None] * ne
    for k, e in enumerate(spec.slab_edge_indices(d, 0, 1)):
        vectors[e] = f0[k]  # padded with w1 zeros: the same sparse vector
    for k, e in enumerate(spec.slab_edge_indices(d, 1, 1)):
        vectors[e] = _glue(f0[k], f1[k], w0)

    # cross edges kill the z-relation at their bottom endpoint
    target = _lex_first_superset(range(d), d - 1, r + 1)
    terms = solver.killing_terms(space, target, d - 1)
    for v in range(1 << (d - 1)):  # the bottom copy: axis d goes up from v
        star = [(spec.label_to_edge_index(v, 2 * c + 1), x) for c, x in terms]
        vectors[spec.label_to_edge_index(v, 2 * d - 1)] = _combination(vectors, star)
    assert None not in vectors
    return vectors  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# grid family (odd/even label coordinates)


def _grid_family(
    spec: GridSpec, r: int, space: SupportSubspace, solver: _SupportSolver
) -> tuple[list[EdgeVector], int]:
    """The family of `spec` in its own edge order, and its span dimension w.

    The bottom slab (axis p cut to 2) is built recursively and placed once;
    every later layer m = 3..a_p writes only what it adds, in the final
    grid's indices: the cross edges from slice m - 1 to slice m, then the
    new top slice m, whose edge k gets the vector of its copy in slice m - 1
    glued to the side grid's edge k.  Lower-slab vectors never change after
    their layer, so nothing is copied again.  w is carried as the running
    sum w(m) = w(m - 1) + w2 + |Y|, where Y is the part of slice m - 1 whose
    cross edges get fresh basis vectors."""
    dims, d, ne = spec.dims, spec.d, spec.num_edges
    if d == 0:
        return [], 0
    if r == 0:
        return [{}] * ne, 0
    if r == 2 * d or (spec.is_hypercube and r > d):
        return _units(ne), ne
    if spec.is_hypercube:
        odd = tuple(2 * i for i in range(d))  # 0-based slots of labels 1,3,5,...
        compressed = _derived(space, odd, odd, d - r)
        return _cube_family(spec, r, compressed, solver), wsat_hypercube(d, r)

    p, bottom_dims, side_dims = _peel_axis(dims)
    side = GridSpec(side_dims)
    low, w1 = _grid_family(GridSpec(bottom_dims), r, space, solver)
    vectors: list[EdgeVector | None] = [None] * ne
    for e, vec in zip(spec.slab_edge_indices(p, 0, 2), low):
        vectors[e] = vec  # padded with zeros: the same sparse vector

    # a vertex of slice m - 1 has its side labels (axes from p on shift by
    # one), the label taubar of its edge down, and the label tau of its
    # cross edge up; only the parity of m decides tau and taubar
    side_labels = [
        [j - 1 if j < 2 * p - 1 else j + 1 for j in side.incident_labels(v)]
        for v in side.vertices()
    ]
    layers: dict[int, tuple[list[EdgeVector], int, list]] = {}

    def layer(tau0: int) -> tuple[list[EdgeVector], int, list]:
        """For the cross-edge coordinate tau0: the side family, its w2, and
        per slice vertex None (the vertex is in Y) or the killing terms of
        its cross edge.  Built on first use."""
        if tau0 not in layers:
            taubar0 = 4 * p - 3 - tau0  # the other coordinate of axis p
            slots = range(2 * d)
            inside = [c for c in slots if c != taubar0]
            keep = [c for c in slots if c not in (2 * p - 2, 2 * p - 1)]
            x2 = _derived(space, inside, keep, 2 * d - r - 1)
            side_vecs, w2 = _grid_family(side, r - 1, x2, solver)
            plan = [
                None
                if len(coords) + 1 < r
                else solver.killing_terms(
                    space,
                    _lex_first_superset(coords + [taubar0, tau0], tau0, space.codim + 1),
                    tau0,
                )
                for coords in side_labels
            ]
            layers[tau0] = side_vecs, w2, plan
        return layers[tau0]

    emb = spec.slab_indices(p, 0, 1)  # slice vertex i -> its vertex at coordinate 1
    vstride = spec.strides[p - 1]
    shadow = spec.slab_edge_indices(p, 1, 1)  # the side edges' copies in slice 2
    for m in range(3, dims[p - 1] + 1):
        tau0 = 2 * p - 2 if (m - 1) % 2 == 1 else 2 * p - 1
        side_vecs, w2, plan = layer(tau0)
        y = w1 + w2
        base = (m - 2) * vstride
        for i, e in enumerate(spec._edge_slab(p, p, m - 2, 1)):
            terms = plan[i]
            if terms is None:
                vectors[e] = {y: F1}
                y += 1
            else:  # kill the z-relation at the cross edge's lower endpoint
                pv = emb[i] + base
                star = [(spec.label_to_edge_index(pv, c + 1), x) for c, x in terms]
                vectors[e] = _combination(vectors, star)
        top = spec.slab_edge_indices(p, m - 1, 1)
        for k, e in enumerate(top):
            vectors[e] = _glue(vectors[shadow[k]], side_vecs[k], w1)
        shadow, w1 = top, y
    assert None not in vectors
    return vectors, w1  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# entry points and verification


def build_edge_vectors_hypercube(d: int, r: int) -> EdgeVectorFamily:
    """The grid family of Q_d = (2,) * d, with span dimension
    wsat_hypercube(d, r); both defining properties are verified."""
    if not d >= r >= 0:
        raise DomainError(f"need d >= r >= 0, got d={d}, r={r}")
    return build_edge_vectors_grid((2,) * d, r)


def build_edge_vectors_grid(dims, r: int) -> EdgeVectorFamily:
    """Label-coordinate family for the grid with span dimension
    w_recurrence(dims, r); both defining properties are verified."""
    family = _unverified_grid_family(dims, r)
    verify_family(family)
    return family


def _unverified_grid_family(dims, r: int) -> EdgeVectorFamily:
    """The family of the grid `dims` (no axes is the one-vertex grid) over
    the root subspace, which is certified here and nowhere else in a
    build."""
    dims = tuple(int(a) for a in dims)
    if any(a < 2 for a in dims):
        raise DomainError(f"all sides must be >= 2, got {dims}")
    if not 0 <= r <= 2 * len(dims):
        raise DomainError(f"need 0 <= r <= 2d, got r={r}")
    spec = GridSpec(dims)
    space = build_support_subspace(2 * len(dims), r)
    space.certify()
    vectors, w = _grid_family(spec, r, space, _SupportSolver())
    assert w == w_recurrence(dims, r)
    return EdgeVectorFamily(spec, r, w, tuple(vectors), space)


def verify_family(family: EdgeVectorFamily) -> tuple[int, tuple[int, ...]]:
    """Check both defining properties once and return the `family_rank`
    profile (rank, pivot_edges).

    Relations: at every vertex v, each member of a basis of the subspace
    members supported inside v's label set C must kill the edge vectors.
    This is the only relation pass.  When the subspace has codimension r
    and every nonzero member has support >= r+1 (the caller's claim: true
    by construction when building, checked explicitly by
    `recheck_rank_certificate`), it is exactly as strong as checking every
    (r+1)-star: the members supported inside C are spanned by the
    fundamental circuits x_{B+c} (B a fixed r-subset of C, c in C - B), each
    supported on exactly r+1 labels, and every star relation x_T with T
    inside C is one of those members, with all |T| coefficients nonzero.

    Span: rank = w is checked here and nowhere else.  A single exact
    elimination of the transposed w x ne family settles it, since a matrix
    and its transpose have the same rank, and the same elimination yields
    the pivot edges, so callers that need them reuse this result instead of
    ranking the family again.
    """
    w = family.target_dim
    members_cache: dict[tuple[int, ...], list[list[tuple[int, Fraction]]]] = {}
    for v in family.spec.vertices():
        coords = family.incident_coords(v)
        members = members_cache.get(coords)
        if members is None:
            members = members_cache[coords] = [
                [(c, x[c]) for c in support(x)]
                for x in family.subspace.vectors_supported_inside(coords)
            ]
        for member in members:
            star = [(family.edge_at(v, c), xc) for c, xc in member]
            if _combination(family.vectors, star):
                raise FamilyError(f"vanishing relation fails at vertex {v}")
    rank, pivots = family_rank(family)
    if rank != w:
        raise FamilyError(f"family spans rank {rank}, expected {w}")
    return rank, pivots


def family_rank(family: EdgeVectorFamily) -> tuple[int, tuple[int, ...]]:
    """Exact rank and a deterministic independent edge subset: pivot columns
    of the transposed family under first-nonzero elimination.

    Building or rechecking a certificate runs it once: `verify_family`
    calls it for the span claim and returns its result.  It is exact
    (fraction-free integer elimination of primitive integer rows), so one
    call proves the rank.  Row j of the transposed family is read off the
    sparse edge vectors as the (edge, entry) pairs with coordinate j, so no
    zero is visited; the elimination scales it to a primitive integer row,
    which multiplies it by a nonzero rational and so changes neither the
    rank nor the first-nonzero pivot columns.
    """
    w = family.target_dim
    if w == 0:
        return 0, ()
    transposed: list[dict[int, Fraction]] = [{} for _ in range(w)]
    for e, vec in enumerate(family.vectors):
        for j, x in vec.items():
            transposed[j][e] = x
    return rank_profile_of_rows(transposed, len(family.vectors))


def verify_star_relations(family: EdgeVectorFamily) -> int:
    """For every vertex and every (r+1)-subset of its labels, the chosen
    member vanishes against the star's edge vectors with every coefficient
    nonzero.  Returns the number of star relations checked.

    Neither `assemble_lower_bound` nor `recheck_rank_certificate` runs this:
    for a certified subspace of codimension r, the basis pass in
    `verify_family` implies every star relation (circuit spanning, see
    there).  It stays as a direct, per-star statement of the claim, and its
    support solves also fail when the codimension is not r.
    """
    from itertools import combinations

    r = family.r
    cache: dict[tuple[int, ...], Vector] = {}
    checked = 0
    for v in family.spec.vertices():
        coords = family.incident_coords(v)
        if len(coords) < r + 1:
            continue
        for t in combinations(coords, r + 1):
            x = cache.get(t)
            if x is None:
                x = find_support_vector(family.subspace, t)
                cache[t] = x
            if support(x) != t:
                raise FamilyError(f"support vector for {t} has wrong support")
            star = [(family.edge_at(v, c), x[c]) for c in t]
            if _combination(family.vectors, star):
                raise FamilyError(f"star relation fails at vertex {v}, labels {t}")
            checked += 1
    return checked


def assemble_lower_bound(dims, r: int) -> RankCertificate:
    """Build the grid family, verify it, and package the certified bounds
    wsat >= rank, m >= ceil(rank/r).

    `verify_family` is the one verification pass: its basis relation pass
    implies every star relation, because the root Vandermonde subspace has
    codimension r by construction and support >= r+1 (a theorem, certified
    once by `_unverified_grid_family`), and its single exact elimination
    checks rank = w and gives the pivot edges stored in the certificate.
    Ranking the family again, checking the stars one by one or certifying
    a derived subspace would prove nothing new.
    """
    dims = tuple(int(a) for a in dims)
    if not 1 <= r <= 2 * len(dims):
        raise DomainError(f"need 1 <= r <= 2d, got r={r}")
    family = _unverified_grid_family(dims, r)
    rank, pivots = verify_family(family)
    m_lower = -(-rank // r)
    return RankCertificate(family, rank, pivots, rank, m_lower)


def rank_certificate_from_json_doc(doc: dict) -> RankCertificate:
    """Load a rank certificate document written by `to_json_doc`.

    Malformed input raises ValueError (FamilyError and GridError included)
    with a one-line reason: a missing field, wrong types, a label_mode
    other than "grid", a vector entry not written as an integer or p/q, a
    vector not of length target_dim, a basis row not of length ambient, or
    r outside 1..label count.  Nothing is verified here.
    """
    if not isinstance(doc, dict) or doc.get("kind") != "rank-certificate":
        raise ValueError("not a rank certificate document")
    spec = parse_grid(_json_field(doc, "spec"))
    label_mode = _json_field(doc, "label_mode")
    if label_mode != "grid":
        raise ValueError(f'label_mode must be "grid", got {label_mode!r:.40}')
    ambient = _json_int(_json_field(doc, "ambient"), "ambient")
    basis = []
    for row in _json_list(_json_field(doc, "subspace_basis"), "subspace_basis"):
        if not isinstance(row, list) or len(row) != ambient:
            raise ValueError(f"every basis row must be a list of ambient = {ambient} entries")
        basis.append(tuple(_json_int(x, "basis entry") for x in row))
    space = SupportSubspace(ambient, tuple(basis))
    target_dim = _json_int(_json_field(doc, "target_dim"), "target_dim")
    parsed: dict[str, Fraction] = {}
    vectors = tuple(
        _parse_vector(vec, target_dim, parsed)
        for vec in _json_list(_json_field(doc, "vectors"), "vectors")
    )
    r = _json_int(_json_field(doc, "r"), "r")
    family = EdgeVectorFamily(spec, r, target_dim, vectors, space)
    if not 1 <= family.r <= family.num_labels:
        raise ValueError(f"r = {family.r} is outside 1..{family.num_labels}")
    pivots = _json_list(_json_field(doc, "pivot_edges"), "pivot_edges")
    return RankCertificate(
        family,
        _json_int(_json_field(doc, "rank"), "rank"),
        tuple(_json_int(e, "pivot edge") for e in pivots),
        _json_int(_json_field(doc, "wsat_lower"), "wsat_lower"),
        _json_int(_json_field(doc, "m_lower"), "m_lower"),
    )


def recheck_rank_certificate(cert: RankCertificate) -> None:
    """Independent re-verification of a (possibly reloaded) certificate;
    raises FamilyError or a LinalgError on the first false claim.

    Each claim is checked once:
    * the subspace has one coordinate per label and codimension r (checked
      explicitly: the relation pass relies on it, and a wrong codimension
      can pass certification);
    * every nonzero member has support >= r+1 (`SupportSubspace.certify`);
    * the vanishing relations and the span, by `verify_family`, whose basis
      relation pass implies every (r+1)-star relation once the two claims
      above hold (circuit spanning, see there) and whose one exact
      elimination recomputes the rank and the pivot edges;
    * the stored rank, pivots and bounds equal the recomputed ones.
    """
    fam = cert.family
    space = fam.subspace
    if space.ambient != fam.num_labels:
        raise FamilyError(
            f"subspace has {space.ambient} coordinates, expected one per label ({fam.num_labels})"
        )
    if space.codim != fam.r:
        raise FamilyError(f"subspace has codimension {space.codim}, expected r = {fam.r}")
    space.certify()
    rank, pivots = verify_family(fam)
    if rank != cert.rank or pivots != cert.pivot_edges:
        raise FamilyError("rank or pivot set does not match the certificate")
    if cert.wsat_lower != rank:
        raise FamilyError("claimed wsat bound does not equal the rank")
    if cert.m_lower != -(-rank // fam.r):
        raise FamilyError("claimed percolation bound does not equal ceil(rank/r)")
