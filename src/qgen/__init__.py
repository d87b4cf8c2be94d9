"""Desk-scale question generation toolkit.

Pipeline: invert QA data into (answer * passage) -> question examples,
preprocess with indexed entity tags and WordPiece sub-words, train a small
encoder-decoder transformer, decode with beam search, and evaluate with
word-level edit distance.
"""
