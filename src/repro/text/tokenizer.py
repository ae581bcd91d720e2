"""Tokenization and word normalization.

Section 5.3 of the paper requires words to be "converted into a uniform
format, such as lower-case and singular form" before unique-word matching.
The tokenizer lower-cases, strips punctuation, drops stop words and applies a
light rule-based singularization (an English-ish stemmer is enough: the
synthetic corpora use a controlled vocabulary).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = ["DEFAULT_STOP_WORDS", "normalize_word", "Tokenizer"]

#: Small stop-word list covering the function words the synthetic corpus uses.
DEFAULT_STOP_WORDS: frozenset[str] = frozenset(
    """
    a an and are as at be but by for from has have i in is it its of on or
    that the this to was we were will with you your not so if then than
    """.split()
)

_TOKEN_RE = re.compile(r"[a-z0-9_一-鿿]+")


@lru_cache(maxsize=1 << 16)
def normalize_word(word: str) -> str:
    """Lower-case and singularize ``word`` with simple suffix rules.

    The rules cover regular English plurals (``-ies`` -> ``-y``, ``-ses`` ->
    ``-s``, trailing ``-s``); they intentionally avoid heavier stemming which
    would merge distinct style words.  Memoized (bounded): a corpus repeats
    a few hundred distinct words tens of thousands of times, and every post
    is tokenized by both the blocking signatures and the feature pipeline.
    """
    w = word.lower()
    if len(w) > 4 and w.endswith("sses"):
        return w[:-2]
    if len(w) > 3 and w.endswith("ies"):
        return w[:-3] + "y"
    if len(w) > 3 and w.endswith("s") and not w.endswith("ss"):
        return w[:-1]
    return w


@dataclass
class Tokenizer:
    """Configurable tokenizer producing normalized word lists.

    Parameters
    ----------
    stop_words:
        Words removed after normalization.  Defaults to
        :data:`DEFAULT_STOP_WORDS`.
    min_length:
        Tokens shorter than this (after normalization) are dropped.
    """

    stop_words: frozenset[str] = field(default_factory=lambda: DEFAULT_STOP_WORDS)
    min_length: int = 2

    def tokenize(self, text: str) -> list[str]:
        """Split ``text`` into normalized, stop-word-filtered tokens."""
        if not text:
            return []
        tokens = []
        for raw in _TOKEN_RE.findall(text.lower()):
            word = normalize_word(raw)
            if len(word) < self.min_length:
                continue
            if word in self.stop_words:
                continue
            tokens.append(word)
        return tokens

    def tokenize_many(self, texts: list[str]) -> list[list[str]]:
        """Tokenize a list of documents."""
        return [self.tokenize(t) for t in texts]
