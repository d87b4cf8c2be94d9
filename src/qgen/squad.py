"""SQuAD v1.1 ingestion: load records, pick the consensus answer, invert each
question into an (answer * passage) -> question training example, and group
examples into padded length buckets."""

from __future__ import annotations

import contextlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .preprocess import EntityTagger, PreprocessError, tagged_wordpieces, preprocess_pair
from .wordpiece import Vocabulary, read_lines

MAX_INPUT_IDS = 512
MAX_TARGET_IDS = 48
DEFAULT_BUCKET_BOUNDS = ((64, 16), (128, 24), (256, 32), (512, 48))

CACHE_FORMAT = "qgen-examples"
CACHE_VERSION = 1


class SchemaError(ValueError):
    """The JSON does not match the SQuAD v1.1 schema; message names the path."""


@dataclass
class SquadRecord:
    title: str
    passage: str
    question_id: str
    question: str
    answers: list[tuple[str, int]]


@dataclass
class InvertedExample:
    question_id: str
    input_ids: list[int]
    target_ids: list[int]


@dataclass
class Bucket:
    """Examples whose padded lengths fit (max_input, max_target)."""

    max_input: int
    max_target: int
    examples: list[InvertedExample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.examples)

    @property
    def label(self) -> str:
        return f"{self.max_input}x{self.max_target}"

    def _padded(self, rows: list[list[int]], pad_id: int) -> np.ndarray:
        out = np.full((len(rows), max(map(len, rows), default=0)), pad_id, np.int64)
        for i, row in enumerate(rows):
            out[i, : len(row)] = row
        return out

    def input_matrix(self, indices, pad_id: int) -> np.ndarray:
        return self._padded([self.examples[i].input_ids for i in indices], pad_id)

    def target_matrix(self, indices, pad_id: int) -> np.ndarray:
        return self._padded([self.examples[i].target_ids for i in indices], pad_id)

    def batch(self, indices, pad_id: int) -> Batch:
        """(inputs, targets, self) of the examples at indices, each matrix
        padded with pad_id to its longest row, with the examples' lengths."""
        lengths = (np.array([len(self.examples[i].input_ids) for i in indices]),
                   np.array([len(self.examples[i].target_ids) for i in indices]))
        return Batch(self.input_matrix(indices, pad_id), self.target_matrix(indices, pad_id),
                     self, lengths)


class Batch(tuple):
    """(inputs, targets, bucket) as Bucket.batch makes them. lengths holds
    each row's real input and target lengths, two integer arrays: past them
    a row holds only padding, while a [PAD] id within them is a real token."""

    def __new__(cls, inputs, targets, bucket, lengths):
        batch = super().__new__(cls, (inputs, targets, bucket))
        batch.lengths = lengths
        return batch


# Field kinds of outside records: the phrase an error message uses -> the
# test a value must pass. A Python bool is an int, so JSON true and false are
# turned away where an integer is expected.
TEXT = "a string"
ID = "a string or an integer"
INT = "an integer"
LIST = "a list"
IDS = "a list of integers"
_KINDS = {
    TEXT: lambda v: isinstance(v, str),
    ID: lambda v: isinstance(v, (str, int)) and not isinstance(v, bool),
    INT: lambda v: isinstance(v, int) and not isinstance(v, bool),
    LIST: lambda v: isinstance(v, list),
    IDS: lambda v: isinstance(v, list) and set(map(type, v)) <= {int},
}


def _check_kind(value, kind: str, where: str, *args):
    """value, if it is of kind; else a SchemaError naming where.format(*args)."""
    if not _KINDS[kind](value):
        raise SchemaError(f"{where.format(*args)} must be {kind}, got {type(value).__name__}")
    return value


def _require(obj, key, path, kind: str):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"missing {key!r} at {path}")
    return _check_kind(obj[key], kind, "{!r} at {}", key, path)


def read_jsonl(path, fields: dict[str, str], optional: tuple[str, ...] = (),
               skip: int = 0, min_lengths: dict[str, int] | None = None) -> list[dict]:
    """Read one JSON object per non-blank line, after the first skip lines.

    Each row must be UTF-8 and hold every field not named in optional, and
    each field it holds must be of its kind (TEXT, ID, ...) and at least as
    long as min_lengths names. Errors are SchemaErrors that name path:line.
    """
    rows = []
    for lineno, line in read_lines(path, SchemaError):
        if lineno <= skip or not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{lineno}: bad JSON: {exc.msg} "
                              f"at character {exc.pos}") from exc
        if not isinstance(row, dict):
            raise SchemaError(f"{path}:{lineno}: expected a JSON object, got {type(row).__name__}")
        for key, kind in fields.items():
            if key in row:
                _check_kind(row[key], kind, "{}:{}: field {!r}", path, lineno, key)
            elif key not in optional:
                raise SchemaError(f"{path}:{lineno}: missing field {key!r}")
        for key, least in (min_lengths or {}).items():
            if len(row[key]) < least:
                raise SchemaError(f"{path}:{lineno}: field {key!r} must have length "
                                  f">= {least}, got {len(row[key])}")
        rows.append(row)
    return rows


def read_json(path):
    """The JSON document of a UTF-8 file; errors are SchemaErrors naming path:line."""
    try:
        return json.loads("\n".join(line for _, line in read_lines(path, SchemaError)))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}: bad JSON: {exc.msg} "
                          f"at column {exc.colno}") from None


def _json_text(value, indent: str) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it, its
    lines after the first at indent. json runs its pure-Python encoder
    whenever it indents; this writes the same bytes faster."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"\n{inner}{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{" + ",".join(items) + f"\n{indent}}}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [f"\n{inner}{_json_text(v, inner)}" for v in value]
        return "[" + ",".join(items) + f"\n{indent}]" if items else "[]"
    if value is None:
        return "null"
    if isinstance(value, float):
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@contextlib.contextmanager
def replacing(path, mode: str = "w", newline: str | None = None):
    """A file opened as path.tmp (UTF-8 in text mode, with open's newline)
    and moved onto path when the block ends without an exception: path holds
    the old contents or the new, and path.tmp does not outlive the block.
    An OSError opening path.tmp is raised naming path."""
    tmp = f"{path}.tmp"
    try:
        try:
            fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8", newline=newline)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path, doc) -> None:
    """doc as JSON (sorted keys, indent 2, a trailing newline), written
    through replacing. The bytes are those of json.dumps(doc, sort_keys=True,
    indent=2), and a key that is not a string raises TypeError."""
    text = _json_text(doc, "") + "\n"
    with replacing(path) as fh:
        fh.write(text)


def load_squad(path) -> list[SquadRecord]:
    """Parse a SQuAD v1.1 JSON file into one record per question."""
    doc = read_json(path)
    records: list[SquadRecord] = []
    articles = _require(doc, "data", "$", LIST)
    for ai, article in enumerate(articles):
        apath = f"data[{ai}]"
        title = _require(article, "title", apath, TEXT)
        for pi, para in enumerate(_require(article, "paragraphs", apath, LIST)):
            ppath = f"{apath}.paragraphs[{pi}]"
            context = _require(para, "context", ppath, TEXT)
            for qi, qa in enumerate(_require(para, "qas", ppath, LIST)):
                qpath = f"{ppath}.qas[{qi}]"
                qid = str(_require(qa, "id", qpath, ID))
                question = _require(qa, "question", qpath, TEXT)
                raw_answers = _require(qa, "answers", qpath, LIST)
                if not raw_answers:
                    raise SchemaError(f"empty answers at {qpath}")
                answers = []
                for ci, ans in enumerate(raw_answers):
                    cpath = f"{qpath}.answers[{ci}]"
                    text = _require(ans, "text", cpath, TEXT)
                    start = _require(ans, "answer_start", cpath, INT)
                    if context[start : start + len(text)] != text:
                        raise SchemaError(f"answer offset mismatch at {cpath}")
                    answers.append((text, start))
                records.append(SquadRecord(title, context, qid, question, answers))
    return records


def select_answer(answers: list[tuple[str, int]]) -> tuple[str, int]:
    """Pick the most agreed-upon answer text (case-insensitive multiplicity);
    break ties by smallest offset, then lexicographically."""
    if not answers:
        raise ValueError("select_answer: no answers")
    counts = Counter(text.lower() for text, _ in answers)
    return min(
        answers,
        key=lambda a: (-counts[a[0].lower()], a[1], a[0].lower()),
    )


def clip_input(input_ids: list[int], max_ids: int, separator_id: int) -> list[int]:
    """Keep the first max_ids pieces, dropping passage tail pieces only; the
    answer and its separator must survive."""
    clipped = input_ids[:max_ids]
    if separator_id not in clipped:
        raise PreprocessError(f"answer and separator do not fit in {max_ids} input ids")
    return clipped


def invert(
    records: list[SquadRecord],
    tagger: EntityTagger,
    stoplist: frozenset[str],
    vocab: Vocabulary,
    max_input_ids: int = MAX_INPUT_IDS,
    max_target_ids: int = MAX_TARGET_IDS,
) -> list[InvertedExample]:
    """Turn records into (input ids, target ids) pairs, sorted by question id.

    Each distinct passage is encoded once. The question is lowercased,
    entity-tagged with the passage's index map, and keeps its stop words.
    Over-long inputs are clipped by clip_input; over-long questions are
    truncated before the closing marker.
    """
    examples = []
    passages: dict = {}
    for rec in sorted(records, key=lambda r: r.question_id):
        try:
            answer_text, _ = select_answer(rec.answers)
            input_seq, tagged = preprocess_pair(
                answer_text, rec.passage, tagger, stoplist, vocab, passages
            )
            input_ids = clip_input(input_seq.ids, max_input_ids, vocab.separator_id)
            question_seq, _ = tagged_wordpieces(
                rec.question, tagger, vocab, stoplist=None,
                entity_map=tagged.entity_map, source="question",
            )
        except ValueError as exc:
            raise PreprocessError(f"question {rec.question_id}: {exc}") from exc
        target_ids = (
            [vocab.bos_id] + question_seq.ids[: max_target_ids - 2] + [vocab.eos_id]
        )
        examples.append(InvertedExample(rec.question_id, input_ids, target_ids))
    return examples


def bucket_by_length(
    examples: list[InvertedExample],
    bounds=DEFAULT_BUCKET_BOUNDS,
) -> list[Bucket]:
    """Place each example in the smallest bucket whose bounds fit it."""
    bounds = list(bounds)
    for (a0, b0), (a1, b1) in zip(bounds, bounds[1:]):
        if a1 <= a0 or b1 <= b0:
            raise ValueError(f"bucket bounds must ascend, got {bounds}")
    buckets = [Bucket(a, b) for a, b in bounds]
    for ex in examples:
        for bucket in buckets:
            if len(ex.input_ids) <= bucket.max_input and len(ex.target_ids) <= bucket.max_target:
                bucket.examples.append(ex)
                break
        else:
            raise ValueError(
                f"example {ex.question_id} exceeds the last bucket bound "
                f"({len(ex.input_ids)}, {len(ex.target_ids)}) > {bounds[-1]}"
            )
    return buckets


def save_examples(examples: list[InvertedExample], path) -> None:
    """Write the example cache as versioned JSON lines, through replacing."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    with replacing(path) as fh:
        fh.write(json.dumps({"format": CACHE_FORMAT, "version": CACHE_VERSION}) + "\n")
        for ex in examples:
            row = {"id": ex.question_id, "input_ids": ex.input_ids, "target_ids": ex.target_ids}
            fh.write(encode(row) + "\n")


def load_examples(path) -> list[InvertedExample]:
    with open(path, "rb") as fh:
        first = fh.readline()
    try:
        header = json.loads(first.decode("utf-8"))
    except ValueError:  # not UTF-8, or not JSON
        header = None
    if header != {"format": CACHE_FORMAT, "version": CACHE_VERSION}:
        raise SchemaError(f"{path}:1: unrecognized example cache header")
    # A row trains only with an input and a target of at least [BOS] [EOS].
    rows = read_jsonl(path, {"id": TEXT, "input_ids": IDS, "target_ids": IDS}, skip=1,
                      min_lengths={"input_ids": 1, "target_ids": 2})
    return [InvertedExample(r["id"], r["input_ids"], r["target_ids"]) for r in rows]
