"""Corpus engineering for emoji-anchored offensive-language data.

The package covers the full loop: collect docs by seed emoji, clean and
deduplicate, aggregate crowd judgments with QC, mine a high-valence term
lexicon, match violence verb patterns, train a sparse linear classifier,
and explain its scores token by token.
"""

__version__ = "0.1.0"
