"""Spanning-tree presentation of the fundamental group.

A connected graph's fundamental group is free on its non-tree edges; a
`Basis` fixes the deterministic spanning tree, the generator order, and the
basepoint.  Words are tuples of signed 1-based generator indices, written
in traversal order: the word of a loop lists the non-tree edges in the
order the loop crosses them, and concatenating loops concatenates words.

The marked length spectrum value of a word is the exact length of the
cyclically reduced loop in its free homotopy class.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import Iterator

from .graphs import DirectedEdge, GraphError, MetricGraph, parse_index
from .paths import CyclicPath, EdgePath, _reversed_steps, cyclically_reduce, least_rotation_start

Word = tuple[int, ...]


class WordError(ValueError):
    """Malformed word or hom input."""


# -- free group words -------------------------------------------------

def free_reduce(letters) -> Word:
    stack: list[int] = []
    for letter in letters:
        if letter == 0:
            raise WordError("0 is not a generator index")
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def invert_word(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def concat_words(*ws: Word) -> Word:
    out: list[int] = []
    for w in ws:
        out.extend(w)
    return free_reduce(out)


def word_power(w: Word, n: int) -> Word:
    if n < 0:
        return word_power(invert_word(w), -n)
    return concat_words(*([w] * n)) if n else ()


def cyclic_reduce_word(w: Word) -> tuple[Word, Word]:
    """Split a word as conjugator and cyclically reduced core.

    Returns `(core, conj)` with free_reduce(w) == conj + core + conj^-1.
    """
    w = free_reduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j], w[:i]


def parse_word(text: str) -> Word:
    """Parse the word literal syntax: whitespace-separated `g<k>` / `g<k>^-1`."""
    letters = []
    for token in text.split():
        rev = token.endswith("^-1")
        body = token[:-3] if rev else token
        if not body.startswith("g"):
            raise WordError(f"bad word token {token!r}")
        try:
            k = parse_index(body[1:])
        except ValueError:
            raise WordError(f"bad word token {token!r}") from None
        if k <= 0:
            raise WordError(f"generator index must be positive in {token!r}")
        letters.append(-k if rev else k)
    return free_reduce(letters)


def format_word(w: Word) -> str:
    if not w:
        return "-"
    return " ".join(f"g{x}" if x > 0 else f"g{-x}^-1" for x in w)


def enumerate_reduced_words(rank: int, max_len: int) -> Iterator[Word]:
    """All freely reduced non-empty words of length <= max_len, in a fixed
    order: by length, then lexicographically over the alphabet
    g1, g1^-1, g2, g2^-1, ...  Depth-first over a stack of letter iterators,
    so no length hits the recursion limit."""
    alphabet = [s * k for k in range(1, rank + 1) for s in (1, -1)]
    for n in range(1, max_len + 1):
        word: list[int] = []
        pending = [iter(alphabet)]
        while pending:
            for letter in pending[-1]:
                if not word or word[-1] != -letter:
                    break
            else:
                pending.pop()
                if word:
                    word.pop()
                continue
            word.append(letter)
            if len(word) == n:
                yield tuple(word)
                word.pop()
            else:
                pending.append(iter(alphabet))


# -- spanning-tree basis ----------------------------------------------

def _tree_parents(g: MetricGraph, root: int, edges: frozenset[int]) -> dict:
    """Breadth-first links from `root` along `edges`, scanning sorted steps:
    each vertex reached maps to (previous vertex, step), the root to None."""
    parent: dict[int, tuple[int, DirectedEdge] | None] = {root: None}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for step in g.out_steps(v):
                if step.edge not in edges:
                    continue
                w = g.step_head(step)
                if w not in parent:
                    parent[w] = (v, step)
                    nxt.append(w)
        frontier = nxt
    return parent


@dataclass(frozen=True)
class Basis:
    """Spanning tree plus ordered non-tree generators and a basepoint; builds
    reduced `tree_path`s and `generator_loop`s (tree out, generator k, tree back).
    The tree's parent links are built with the basis, or handed over as
    `_links` by `spanning_tree`, whose search over every edge finds the same
    ones; generator k's loop at the basepoint (`_gen_block`) is built the
    first time a word uses k."""

    graph: MetricGraph
    tree_edges: frozenset[int]
    generators: tuple[int, ...]
    basepoint: int
    _links: InitVar[dict | None] = None
    _parent: dict[int, tuple[int, DirectedEdge] | None] = field(
        init=False, repr=False, compare=False)
    _gen_blocks: dict[int, tuple[DirectedEdge, ...]] = field(
        init=False, repr=False, compare=False)
    _gen_index: dict[int, int] = field(init=False, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def __post_init__(self, _links: dict | None) -> None:
        parent = (_tree_parents(self.graph, self.basepoint, self.tree_edges)
                  if _links is None else _links)
        if parent.keys() != self.graph.vertex_ids:
            raise GraphError("tree edges do not span the graph")
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_gen_blocks", {})
        object.__setattr__(self, "_gen_index",
                           {eid: i for i, eid in enumerate(self.generators, start=1)})

    def _root_steps(self, v: int) -> list[DirectedEdge]:
        steps = []
        while True:
            link = self._parent[v]
            if link is None:
                return steps
            v, step = link
            steps.append(step.reverse())

    def _tree_steps(self, a: int, b: int) -> tuple[DirectedEdge, ...]:
        up = self._root_steps(a)
        down = self._root_steps(b)
        while up and down and up[-1] == down[-1]:
            up.pop()
            down.pop()
        return tuple(up) + _reversed_steps(down)

    def tree_path(self, a: int, b: int) -> EdgePath:
        """The unique reduced path from a to b inside the spanning tree."""
        return EdgePath._chained(self.graph, a, self._tree_steps(a, b))

    def _loop_steps(self, k: int, at: int) -> tuple[DirectedEdge, ...]:
        if not 0 < abs(k) <= self.rank:
            raise WordError(f"generator index {k} out of range")
        eid = self.generators[abs(k) - 1]
        rec = self.graph.edge(eid)
        tail, head = (rec.v, rec.u) if k < 0 else (rec.u, rec.v)
        return (self._tree_steps(at, tail) + (DirectedEdge(eid, k < 0),)
                + self._tree_steps(head, at))

    def _gen_block(self, k: int) -> tuple[DirectedEdge, ...]:
        """Steps of `generator_loop(k, basepoint)`, built on first use and kept."""
        block = self._gen_blocks.get(k)
        if block is None:
            block = self._gen_blocks[k] = self._loop_steps(k, self.basepoint)
        return block

    def generator_loop(self, k: int, at: int) -> EdgePath:
        """Tree path from `at` to generator k's tail (k < 0: its reverse), the
        generator, the tree path back; reduced, as a non-tree edge cancels
        against no tree step."""
        return EdgePath._chained(self.graph, at, self._loop_steps(k, at))


def spanning_tree(g: MetricGraph) -> Basis:
    """Deterministic basis: breadth-first tree from the least vertex id,
    scanning incident edges by least id; generators are the non-tree edges
    in id order, the basepoint is the least vertex id."""
    if not g.vertex_ids:
        raise GraphError("empty graph has no basis")
    basepoint = min(g.vertex_ids)
    parent = _tree_parents(g, basepoint, g.edge_ids)
    if parent.keys() != g.vertex_ids:
        raise GraphError("disconnected")
    tree = frozenset(link[1].edge for link in parent.values() if link is not None)
    return Basis(g, tree, tuple(sorted(g.edge_ids - tree)), basepoint, parent)


# -- words <-> loops --------------------------------------------------

def word_to_loop(basis: Basis, w: Word) -> EdgePath:
    """Reduced based loop at the basepoint realizing the word.

    Each generator crossing contributes tree path out, the generator edge,
    and tree path back.  The steps so far and each block are reduced, so
    only a run at the junction cancels: the block's head against the steps'
    tail, until the first pair that does not cancel.
    """
    steps: list[DirectedEdge] = []
    for letter in w:
        if letter == 0 or abs(letter) > basis.rank:
            raise WordError(f"generator index {letter} out of range")
        block = basis._gen_block(letter)
        n, k = len(steps), 0
        while (k < n and k < len(block) and steps[n - 1 - k].edge == block[k].edge
               and steps[n - 1 - k].rev != block[k].rev):
            k += 1
        del steps[n - k:]
        steps += block[k:]
    return EdgePath._chained(basis.graph, basis.basepoint, tuple(steps))


def loop_to_word(basis: Basis, loop: EdgePath) -> Word:
    """Freely reduced word reading off the non-tree edges a based loop crosses."""
    if loop.start != basis.basepoint or not loop.is_closed():
        raise WordError("loop is not based at the basis basepoint")
    return loop_class_word(basis, loop)


def loop_class_word(basis: Basis, loop: EdgePath) -> Word:
    """Word of a based loop anywhere in the graph, transported to the
    basepoint along the spanning tree.  A tree path crosses no generator, so
    this reads off the generators the loop itself crosses."""
    if not loop.is_closed():
        raise WordError("not a loop")
    index = basis._gen_index
    letters = []
    for eid, rev in loop.steps:
        idx = index.get(eid)
        if idx is not None:
            letters.append(-idx if rev else idx)
    return free_reduce(letters)


def marked_length(basis: Basis, w: Word) -> Fraction:
    """Length of the cyclically reduced loop freely homotopic to the word's
    loop; zero iff the word is the identity."""
    core = word_cyclic_core(basis, w)
    return Fraction(0) if core is None else core.length


def word_cyclic_core(basis: Basis, w: Word) -> CyclicPath | None:
    core, _ = cyclically_reduce(word_to_loop(basis, w))
    return core


def spectrum_table(basis: Basis, max_len: int) -> list[tuple[Word, Fraction]]:
    """One row per conjugacy class of freely reduced words of length <= max_len.

    Keys are canonical cyclic words; rows are sorted by (word length, word).
    Raises `BudgetExceededError`, before enumerating, when there are more
    reduced words than the MLS_BUDGET enumeration budget.
    """
    from .oracle import BudgetExceededError, default_budget
    if max_len < 1:
        raise WordError("max_len must be at least 1")
    r, limit = basis.rank, default_budget()
    if r == 0:
        return []
    # There are sum_{k <= n} 2r (2r-1)^(k-1) reduced words of length <= n; at
    # rank >= 2 that exceeds the limit once n > limit.bit_length().
    n = min(max_len, limit.bit_length() + 1)
    if (2 * max_len if r == 1 else r * ((2 * r - 1) ** n - 1) // (r - 1)) > limit:
        raise BudgetExceededError(
            f"spectrum table up to length {max_len} exceeds the budget of {limit} words")
    # A class's key is its one cyclically reduced word that is its least rotation.
    rows = [(w, marked_length(basis, w)) for w in enumerate_reduced_words(r, max_len)
            if w[0] != -w[-1] and least_rotation_start(w) == 0]
    return sorted(rows, key=lambda kv: (len(kv[0]), kv[0]))


def format_spectrum_table(rows: list[tuple[Word, Fraction]]) -> str:
    from .graphs import format_length
    lines = [f"{format_word(w)}\t{format_length(value)}" for w, value in rows]
    return "\n".join(lines) + ("\n" if lines else "")


# -- homomorphisms ----------------------------------------------------

@dataclass(frozen=True)
class Hom:
    """Free-group homomorphism given by generator images.

    The isomorphism property is certified only when explicit inverse images
    are supplied and both compositions reduce to the identity on generators.
    """

    source: Basis
    target: Basis
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.images) != self.source.rank:
            raise WordError("one image word is required per source generator")
        for w in self.images:
            for letter in w:
                if abs(letter) > self.target.rank or letter == 0:
                    raise WordError(f"image letter {letter} out of target range")
        if self.inverse_images is not None:
            if len(self.inverse_images) != self.target.rank:
                raise WordError("one inverse image word is required per target generator")
            for w in self.inverse_images:
                for letter in w:
                    if abs(letter) > self.source.rank or letter == 0:
                        raise WordError(f"inverse image letter {letter} out of source range")

    def inverse(self) -> "Hom":
        if self.inverse_images is None:
            raise WordError("hom carries no inverse")
        return Hom(self.target, self.source, self.inverse_images, self.images)

    def is_certified_isomorphism(self) -> bool:
        if self.inverse_images is None:
            return False
        inv = self.inverse()
        for k in range(1, self.source.rank + 1):
            if apply_hom(inv, apply_hom(self, (k,))) != (k,):
                return False
        for k in range(1, self.target.rank + 1):
            if apply_hom(self, apply_hom(inv, (k,))) != (k,):
                return False
        return True


def apply_hom(h: Hom, w: Word) -> Word:
    """Substitute generator images and freely reduce."""
    pieces = []
    for letter in w:
        if letter == 0 or abs(letter) > h.source.rank:
            raise WordError(f"letter {letter} outside the source basis")
        img = h.images[abs(letter) - 1]
        pieces.append(img if letter > 0 else invert_word(img))
    return concat_words(*pieces)


def identity_hom(basis: Basis) -> Hom:
    gens = tuple((k,) for k in range(1, basis.rank + 1))
    return Hom(basis, basis, gens, gens)


# -- hom file format --------------------------------------------------

def write_hom(h: Hom, name: str = "phi") -> str:
    """Text form of a hom.  The name must be one non-empty field without
    `#`, so that `read_hom` accepts the header."""
    if not name or any(c.isspace() or c == "#" for c in name):
        raise WordError(f"hom name {name!r} is empty or holds whitespace or '#'")
    lines = [f"hom {name}"]
    for k, w in enumerate(h.images, start=1):
        lines.append(f"gen g{k} = {format_word(w)}")
    if h.inverse_images is not None:
        lines.append("inverse")
        for k, w in enumerate(h.inverse_images, start=1):
            lines.append(f"gen g{k} = {format_word(w)}")
    return "\n".join(lines) + "\n"


def read_hom(text: str, source: Basis, target: Basis) -> Hom:
    """Parse the hom file format against the given bases.

    Expects a `hom [<name>]` header as the first directive, then
    `gen g<k> = <word>` lines in index order, with an optional `inverse`
    section in target-generator order.
    """
    images: list[Word] = []
    inverse_images: list[Word] | None = None
    current = images
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "hom":
            if saw_header:
                raise WordError(f"line {lineno}: repeated hom header")
            if images or inverse_images is not None:
                raise WordError(f"line {lineno}: hom header must be the first directive")
            if len(fields) > 2:
                raise WordError(f"line {lineno}: malformed hom header")
            saw_header = True
            continue
        if line == "inverse":
            if inverse_images is not None:
                raise WordError(f"line {lineno}: repeated inverse section")
            inverse_images = []
            current = inverse_images
            continue
        if not line.startswith("gen "):
            raise WordError(f"line {lineno}: unknown directive")
        head, eq, body = line.partition("=")
        fields = head.split()
        word_text = body.strip()
        if len(fields) != 2 or not fields[1].startswith("g") or not eq or not word_text:
            raise WordError(f"line {lineno}: malformed gen line")
        try:
            k = parse_index(fields[1][1:])
        except ValueError:
            raise WordError(f"line {lineno}: bad generator name {fields[1]!r}") from None
        if k != len(current) + 1:
            raise WordError(f"line {lineno}: generators must appear in index order")
        current.append(() if word_text == "-" else parse_word(word_text))
    if not saw_header:
        raise WordError("missing hom header")
    return Hom(source, target, tuple(images),
               None if inverse_images is None else tuple(inverse_images))
