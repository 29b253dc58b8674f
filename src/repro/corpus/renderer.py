"""Raw-phrase rendering: canonical ingredients -> noisy ingredient lines.

The corpus generator must exercise the aliasing pipeline the way scraped
recipes would, so every ingredient is rendered into a realistic free-text
line: quantities (including fractions), units, container words,
preparation descriptors, plural forms and spelling-variant synonyms
("2 tablespoons whisky", "1 (14 ounce) can diced tomatoes, drained").

Fidelity contract: every rendered phrase must alias back to exactly the
ingredient it was rendered from. The renderer guarantees this by
validating each candidate surface form (canonical name, synonyms, plural)
through the actual :class:`~repro.aliasing.AliasingPipeline` once, and
only decorating with vocabulary the normaliser is known to strip.

A line takes up to eight draws. :meth:`PhraseRenderer.render` makes them
one numpy call at a time on a ``Generator``. The generator renders a
whole region with :meth:`PhraseRenderer.render_lines` instead, which
gives the same lines from the same PCG64 stream in one walk over its raw
words, a block of recipes at a time:

1. fetch an upper bound on the block's words with ``random_raw``
   (:func:`refill`);
2. classify each word once against ``render``'s probabilities:
   ``random() < x`` is ``(word >> 11) < ceil(x * 2**53)``, exactly;
3. follow the style and coin words through the lines in ``render``'s
   draw order and keep only each line's shape;
4. locate and decode every draw of the block at once
   (:func:`decode_draws`, with Lemire's bounded method in
   :func:`bounded`);
5. pack the lines into one UTF-8 chunk from tables of every prefix and
   suffix ``render`` can write.

If numpy would reject one of the bounded draws and draw again, the walk
returns ``None`` and the caller renders the region through ``render``,
which stays the live fallback and the oracle.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from ..aliasing import AliasingPipeline, MatchKind
from ..datamodel import Ingredient

#: Quantity spellings, mixed numbers and vulgar fractions included.
QUANTITIES: tuple[str, ...] = (
    "1", "2", "3", "4", "5", "6", "8", "12",
    "1/2", "1/3", "1/4", "2/3", "3/4",
    "1 1/2", "2 1/2", "½", "¼", "¾",
)

#: Units paired with quantities ("2 cups ...").
UNIT_WORDS: tuple[str, ...] = (
    "cup", "cups", "tablespoon", "tablespoons", "tbsp", "teaspoon",
    "teaspoons", "tsp", "ounce", "ounces", "oz", "pound", "pounds", "lb",
    "g", "kg", "ml",
)

#: Container words ("1 can ...", "2 bunches ..."); all in MEASURE_WORDS.
CONTAINER_WORDS: tuple[str, ...] = (
    "can", "jar", "package", "bunch", "sprig", "piece", "slice", "bag",
)

#: Trailing preparation descriptors; every token is a culinary stopword.
DESCRIPTORS: tuple[str, ...] = (
    "chopped", "diced", "minced", "thinly sliced", "finely chopped",
    "roughly chopped", "drained", "melted", "softened", "roasted and slit",
    "peeled and diced", "trimmed", "grated", "crushed", "seeded and minced",
    "to taste", "at room temperature", "cut into cubes", "well washed",
)

#: Leading descriptors ("fresh basil leaves" style, minus the plural).
LEADING_DESCRIPTORS: tuple[str, ...] = ("fresh", "freshly grated", "cold", "")

#: ``render``'s probabilities, ascending: a style below BARE_STYLE is a
#: bare mention, below CANNED_STYLE a canned one; a bare mention adds
#: "to taste", and a plain line has a descriptor and a unit, each when
#: ``random()`` falls below its rate.
BARE_STYLE = 0.10
CANNED_STYLE = 0.20
TO_TASTE_RATE = 0.5
DESCRIPTOR_RATE = 0.55
UNIT_RATE = 0.75

#: Recipes per block of :meth:`PhraseRenderer.render_lines`. A block
#: fetches ``LINE_DRAWS`` words per line and one per recipe; at about
#: nine lines a recipe that is ~0.6 MB of words.
BLOCK_RECIPES = 1024

#: Most draws a line makes: surface, style, quantity, coin, unit,
#: leading, coin, descriptor. Each reads at most one word.
LINE_DRAWS = 8

_LOW32 = 0xFFFFFFFF

#: ``random() < x`` for each probability, as a bound on ``word >> 11``:
#: ``random()`` is ``(word >> 11) * 2**-53`` and both sides are exact.
#: A word's rank is how many of these it reaches.
_CUTS = np.array(
    [
        math.ceil(x * 2.0**53)
        for x in (
            BARE_STYLE, CANNED_STYLE, TO_TASTE_RATE, DESCRIPTOR_RATE,
            UNIT_RATE,
        )
    ],
    dtype=np.uint64,
)

# A line's shape: which of ``render``'s branches and coins it took.
_BARE, _TO_TASTE, _CANNED = 0, 1, 2
_PLAIN = 3  # + 1 with a unit, + 2 with a descriptor

# Per shape, the bound of each draw after the surface form, in draw
# order: 0 for random(), n for integers(n), -1 for no draw. The slots
# are style, quantity, coin, container or unit, inner quantity or
# leading descriptor, descriptor coin, descriptor.
_Q, _C, _U, _L, _D = (
    len(QUANTITIES), len(CONTAINER_WORDS), len(UNIT_WORDS),
    len(LEADING_DESCRIPTORS), len(DESCRIPTORS),
)
_SLOT_BOUNDS = np.array(
    [
        [0, -1, 0, -1, -1, -1, -1],  # bare
        [0, -1, 0, -1, -1, -1, -1],  # bare, to taste
        [0, _Q, -1, _C, _Q, -1, -1],  # canned
        [0, _Q, 0, -1, _L, 0, -1],  # plain
        [0, _Q, 0, _U, _L, 0, -1],  # plain, unit
        [0, _Q, 0, -1, _L, 0, _D],  # plain, descriptor
        [0, _Q, 0, _U, _L, 0, _D],  # plain, unit and descriptor
    ],
    dtype=np.int64,
)

#: Prefix codes: 0 is empty, then every canned prefix, then every plain.
_PLAIN_PREFIXES = 1 + _Q * _Q * _C


class RenderedLines(NamedTuple):
    """A region's lines from :meth:`PhraseRenderer.render_lines`."""

    utf8: bytes  # every line, UTF-8, in recipe order
    lengths: np.ndarray  # int64 byte length of each line
    title_draws: np.ndarray  # int64, each recipe's title draw


class PhraseRenderer:
    """Renders validated noisy ingredient phrases."""

    def __init__(self, pipeline: AliasingPipeline) -> None:
        self._pipeline = pipeline
        self._surface_cache: dict[int, tuple[str, ...]] = {}

    def surface_forms(self, ingredient: Ingredient) -> tuple[str, ...]:
        """All validated surface forms for an ingredient.

        Candidates are the canonical name, each synonym, and the naive
        plural of each; a candidate survives only if the aliasing pipeline
        resolves it exactly back to this ingredient.
        """
        cached = self._surface_cache.get(ingredient.ingredient_id)
        if cached is not None:
            return cached
        candidates = [ingredient.name]
        candidates.extend(ingredient.synonyms)
        candidates.extend(
            pluralize(candidate) for candidate in list(candidates)
        )
        validated = []
        seen: set[str] = set()
        for candidate in candidates:
            if candidate in seen:
                continue
            seen.add(candidate)
            resolution = self._pipeline.resolve_phrase(candidate)
            if (
                resolution.kind is MatchKind.EXACT
                and len(resolution.ingredients) == 1
                and resolution.ingredients[0].ingredient_id
                == ingredient.ingredient_id
            ):
                validated.append(candidate)
        forms = tuple(validated) if validated else (ingredient.name,)
        self._surface_cache[ingredient.ingredient_id] = forms
        return forms

    def render(self, ingredient: Ingredient, rng: np.random.Generator) -> str:
        """Render one noisy ingredient line."""
        forms = self.surface_forms(ingredient)
        surface = forms[int(rng.integers(len(forms)))]
        style = rng.random()
        if style < BARE_STYLE:  # bare mention: "salt to taste"
            if rng.random() < TO_TASTE_RATE:
                return f"{surface} to taste"
            return surface
        quantity = QUANTITIES[int(rng.integers(len(QUANTITIES)))]
        if style < CANNED_STYLE:  # canned/packaged form
            container = CONTAINER_WORDS[int(rng.integers(len(CONTAINER_WORDS)))]
            inner = QUANTITIES[int(rng.integers(len(QUANTITIES)))]
            return f"{quantity} ({inner} ounce) {container} {surface}"
        parts = [quantity]
        if rng.random() < UNIT_RATE:
            parts.append(UNIT_WORDS[int(rng.integers(len(UNIT_WORDS)))])
        leading = LEADING_DESCRIPTORS[
            int(rng.integers(len(LEADING_DESCRIPTORS)))
        ]
        if leading:
            parts.append(leading)
        parts.append(surface)
        phrase = " ".join(parts)
        if rng.random() < DESCRIPTOR_RATE:
            descriptor = DESCRIPTORS[int(rng.integers(len(DESCRIPTORS)))]
            phrase = f"{phrase}, {descriptor}"
        return phrase

    def render_lines(
        self,
        ingredients: tuple[Ingredient, ...],
        recipes: list[np.ndarray],
        seed: int,
        title_choices: int,
    ) -> RenderedLines | None:
        """Every line of a region, as :meth:`render` draws them.

        ``recipes`` hold indices into ``ingredients``. The draws are
        those of ``Generator(PCG64(seed))``: each recipe's lines in
        order, then the title's ``integers(title_choices)``. Returns
        ``None`` if numpy would reject one of the bounded draws; the
        caller then renders the region through :meth:`render`.
        """
        forms = [self.surface_forms(ingredient) for ingredient in ingredients]
        form_counts = np.array([len(group) for group in forms], np.int64)
        first_form = np.cumsum(form_counts) - form_counts
        surfaces, surface_lengths = _byte_table(
            [form for group in forms for form in group]
        )
        prefixes, prefix_lengths, suffixes, suffix_lengths = _affixes()

        bit_generator = np.random.PCG64(seed)
        words = np.empty(0, dtype=np.uint64)
        position, buffered = 0, -1
        chunks, lengths, title_draws = [], [], []
        for start in range(0, len(recipes), BLOCK_RECIPES):
            block = recipes[start : start + BLOCK_RECIPES]
            lines = np.concatenate(block)
            last = np.cumsum([len(indices) for indices in block]) - 1
            words, position, buffered = refill(
                bit_generator, words, position, buffered,
                LINE_DRAWS * len(lines) + len(block),
            )
            ranks = np.searchsorted(_CUTS, words >> 11, side="right")
            codes = (form_counts[lines] > 1).astype(np.int64)
            codes[last] += 2
            shapes = np.array(
                _walk(ranks.tolist(), codes.tolist(), position, buffered),
                dtype=np.intp,
            )

            grid = np.full((len(lines), 9), -1, dtype=np.int64)
            grid[:, 0] = form_counts[lines]
            grid[:, 1:8] = _SLOT_BOUNDS[shapes]
            grid[last, 8] = title_choices
            active = grid >= 0
            values, rejected, position, buffered = decode_draws(
                words, grid[active], position, buffered
            )
            if rejected.any():
                return None
            drawn = np.zeros(grid.shape, dtype=np.intp)
            drawn[active] = values

            prefix, suffix = _affix_codes(shapes, drawn)
            surface = first_form[lines] + drawn[:, 0]
            pieces = np.empty((len(lines), 3), dtype=object)
            pieces[:, 0] = prefixes[prefix]
            pieces[:, 1] = surfaces[surface]
            pieces[:, 2] = suffixes[suffix]
            chunks.append(b"".join(pieces.ravel().tolist()))
            lengths.append(
                prefix_lengths[prefix]
                + surface_lengths[surface]
                + suffix_lengths[suffix]
            )
            title_draws.append(drawn[last, 8].astype(np.int64))
        return RenderedLines(
            b"".join(chunks),
            np.concatenate(lengths),
            np.concatenate(title_draws),
        )


def _walk(
    ranks: list[int], codes: list[int], position: int, buffered: int
) -> list[int]:
    """Each line's shape, following ``render``'s draws from ``position``.

    ``ranks[w]`` is word ``w``'s rank against ``_CUTS``: its
    ``random()`` falls below the k-th probability (0.10, 0.20, 0.5,
    0.55, 0.75) when the rank is at most k. Bit 0 of a line's code
    says it draws a surface form, bit 1 that its recipe's title draw
    follows it. A 32-bit draw reads a new word only when no half is
    buffered (``half`` is 0), and then buffers that word's high half;
    ``random()`` reads a word and leaves a buffered half alone.
    """
    word, half = position, int(buffered >= 0)
    shapes = []
    for code in codes:
        if code & 1:  # surface form
            word += 1 - half
            half ^= 1
        rank = ranks[word]
        if rank == 0:  # bare: style, then the "to taste" coin
            shapes.append(_TO_TASTE if ranks[word + 1] <= 2 else _BARE)
            word += 2
        elif rank == 1:  # canned: style, quantity, container, inner
            shapes.append(_CANNED)
            word += 3 - half
            half ^= 1
        else:  # plain: style, quantity, then the unit coin
            word += 2 - half
            half ^= 1
            unit = ranks[word] <= 4
            word += 1
            if unit:
                word += 1 - half
                half ^= 1
            word += 1 - half  # leading descriptor
            half ^= 1
            descriptor = ranks[word] <= 3
            word += 1
            if descriptor:
                word += 1 - half
                half ^= 1
            shapes.append(_PLAIN + unit + 2 * descriptor)
        if code & 2:  # title
            word += 1 - half
            half ^= 1
    return shapes


def _affix_codes(
    shapes: np.ndarray, drawn: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each line's prefix and suffix code (see ``_affixes``) from its
    shape and its decoded draws, one column per draw slot."""
    quantity, fourth, fifth = drawn[:, 2], drawn[:, 4], drawn[:, 5]
    prefix = np.zeros(len(shapes), dtype=np.intp)
    canned = shapes == _CANNED
    prefix[canned] = 1 + (
        (quantity * _Q + fifth) * _C + fourth  # inner, container
    )[canned]
    plain = shapes >= _PLAIN
    unit = np.where((shapes - _PLAIN) % 2 == 1, fourth + 1, 0)
    prefix[plain] = _PLAIN_PREFIXES + (
        (quantity * (_U + 1) + unit) * _L + fifth  # leading
    )[plain]
    suffix = np.where(shapes >= _PLAIN + 2, 2 + drawn[:, 7], 0)
    suffix[shapes == _TO_TASTE] = 1
    return prefix, suffix


def refill(
    bit_generator: np.random.BitGenerator,
    words: np.ndarray,
    position: int,
    buffered: int,
    draws: int,
) -> tuple[np.ndarray, int, int]:
    """Words for the next ``draws`` draws, carrying the unread ones.

    ``position`` is the next unread word of ``words`` and ``buffered``
    the word whose high half is buffered, or -1. The words before both
    are dropped, the rest kept, and the bit generator read up to
    ``draws`` words past ``position``, each draw reading at most one.
    Returns the new words and the two indices into them.
    """
    keep = buffered if buffered >= 0 else position
    words = words[keep:]
    position -= keep
    if buffered >= 0:
        buffered -= keep
    missing = position + draws - len(words)
    if missing > 0:
        words = np.concatenate((words, bit_generator.random_raw(missing)))
    return words, position, buffered


def decode_draws(
    words: np.ndarray, bounds: np.ndarray, position: int, buffered: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """A run of ``Generator`` draws, decoded from its raw PCG64 words.

    ``bounds`` lists the draws in order: 0 for ``random()``, ``n`` for
    ``integers(n)``. ``random()`` reads a whole word and leaves a
    buffered half alone, as PCG64's ``next_double`` does. For ``n == 1``
    ``integers`` reads nothing; otherwise it takes the buffered half if
    there is one, or else reads a new word's low half and buffers its
    high half. ``position`` is the next unread word and ``buffered`` the
    word whose high half is buffered, or -1.

    Returns per draw the value (``word >> 11`` for ``random()``, which
    is that times ``2**-53``; the bounded value for ``integers``) and
    whether numpy would reject it and draw again, which puts every later
    draw elsewhere; then the ``position`` and ``buffered`` after the run.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    doubles = bounds == 0
    halves = bounds > 1
    before = np.cumsum(halves) - halves
    high = halves & ((before + (buffered >= 0)) % 2 == 1)
    reads = doubles | (halves & ~high)
    word = position + np.cumsum(reads) - reads
    # A high half is the one the 32-bit draw before it buffered.
    half_words = word[halves]
    high_halves = high[halves]
    previous = np.concatenate(([buffered], half_words))[: len(half_words)]
    half_words[high_halves] = previous[high_halves]
    picked = words[half_words]
    picked = np.where(high_halves, picked >> 32, picked & _LOW32)

    values = np.zeros(len(bounds), dtype=np.uint64)
    rejected = np.zeros(len(bounds), dtype=bool)
    values[doubles] = words[word[doubles]] >> 11
    values[halves], rejected[halves] = bounded(picked, bounds[halves])
    taken = int(halves.sum())
    if (taken + (buffered >= 0)) % 2 == 0:
        buffered = -1
    elif taken:
        buffered = int(half_words[-1])
    return values, rejected, position + int(reads.sum()), buffered


def bounded(halves: np.ndarray, n) -> tuple[np.ndarray, np.ndarray]:
    """``integers(n)`` from 32-bit draws, as numpy's ``Generator`` makes
    it: Lemire's method, the high 32 bits of ``half * n``.

    Also returns which draws numpy rejects and replaces with a new one:
    those whose low 32 bits fall below ``2**32 % n``, at most 6 in 2**32
    for the renderer's bounds.

    Raises:
        ValueError: unless ``1 <= n < 2**32`` (numpy uses a 64-bit
            method above).
    """
    n = np.asarray(n)
    if n.size and (n.min() < 1 or n.max() > _LOW32):
        raise ValueError(f"n must be in [1, 2**32), got {n}")
    n = n.astype(np.uint64)
    scaled = np.asarray(halves, dtype=np.uint64) * n
    return scaled >> 32, (scaled & _LOW32) < (1 << 32) % n


def _byte_table(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``strings`` UTF-8 encoded, as an object array, and their lengths."""
    table = np.empty(len(strings), dtype=object)
    table[:] = [string.encode("utf-8") for string in strings]
    lengths = np.fromiter(map(len, table), dtype=np.int64, count=len(table))
    return table, lengths


@functools.cache
def _affixes() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every prefix and suffix of a line around its surface form, as
    byte tables in code order (see ``render_lines``)."""
    prefixes = [""]
    for quantity in QUANTITIES:
        for inner in QUANTITIES:
            prefixes.extend(
                f"{quantity} ({inner} ounce) {container} "
                for container in CONTAINER_WORDS
            )
    for quantity in QUANTITIES:
        for unit in ("",) + UNIT_WORDS:
            for leading in LEADING_DESCRIPTORS:
                words = [word for word in (quantity, unit, leading) if word]
                prefixes.append(" ".join(words) + " ")
    suffixes = ["", " to taste"]
    suffixes.extend(f", {descriptor}" for descriptor in DESCRIPTORS)
    return (*_byte_table(prefixes), *_byte_table(suffixes))


def pluralize(name: str) -> str:
    """Naive plural of an ingredient name (last word only).

    Invalid plurals are filtered out by surface-form validation, so the
    rule only needs to be right for the common cases.
    """
    words = name.split(" ")
    last = words[-1]
    if last.endswith(("s", "x", "z", "ch", "sh")):
        plural = last + "es"
    elif last.endswith("y") and len(last) > 1 and last[-2] not in "aeiou":
        plural = last[:-1] + "ies"
    elif last.endswith("o") and len(last) > 2 and last[-2] not in "aeiou":
        plural = last + "es"
    else:
        plural = last + "s"
    return " ".join(words[:-1] + [plural])
