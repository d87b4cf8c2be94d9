import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgen.squad import (
    ID,
    IDS,
    TEXT,
    Bucket,
    InvertedExample,
    SchemaError,
    SquadRecord,
    bucket_by_length,
    invert,
    load_examples,
    load_squad,
    read_json,
    read_jsonl,
    save_examples,
    select_answer,
    write_json,
)
from qgen.wordpiece import TokenSequence
from qgen.preprocess import PreprocessError, postprocess_question, preprocess_pair


def minimal_doc(qas):
    return {"data": [{"title": "T", "paragraphs": [{"context": "gold title here",
                                                    "qas": qas}]}]}


def write_doc(tmp_path, doc):
    path = tmp_path / "squad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestLoadSquad:
    def test_fixture_corpus(self, records):
        assert len(records) == 36
        assert all(r.answers for r in records)

    def test_minimal_file(self, tmp_path):
        doc = minimal_doc([{"id": "q1", "question": "what is gold?",
                            "answers": [{"text": "gold", "answer_start": 0}]}])
        recs = load_squad(write_doc(tmp_path, doc))
        assert len(recs) == 1
        assert recs[0].question_id == "q1"
        assert recs[0].passage == "gold title here"

    def test_missing_answers_names_json_path(self, tmp_path):
        doc = minimal_doc([{"id": "q1", "question": "what?"}])
        with pytest.raises(SchemaError, match=r"data\[0\].paragraphs\[0\].qas\[0\]"):
            load_squad(write_doc(tmp_path, doc))

    def test_offset_mismatch_rejected(self, tmp_path):
        doc = minimal_doc([{"id": "q1", "question": "what?",
                            "answers": [{"text": "gold", "answer_start": 3}]}])
        with pytest.raises(SchemaError, match="offset"):
            load_squad(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("qa,message", [
        ({"id": "q1", "question": "what?", "answers": [{"text": "gold", "answer_start": "0"}]},
         "'answer_start' at data[0].paragraphs[0].qas[0].answers[0] must be an integer, got str"),
        ({"id": "q1", "question": "what?", "answers": {"text": "gold"}},
         "'answers' at data[0].paragraphs[0].qas[0] must be a list, got dict"),
        ({"id": None, "question": "what?", "answers": []},
         "'id' at data[0].paragraphs[0].qas[0] must be a string or an integer"),
    ])
    def test_field_of_the_wrong_kind_names_json_path(self, tmp_path, qa, message):
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_squad(write_doc(tmp_path, minimal_doc([qa])))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:1: bad JSON")):
            load_squad(path)

    def test_passages_shared_by_reference(self, records):
        by_passage = {}
        for r in records:
            by_passage.setdefault(r.title, r.passage)
            assert by_passage[r.title] is r.passage


class TestSelectAnswer:
    def test_strict_majority(self):
        answers = [("Denver Broncos", 177), ("Denver Broncos", 177), ("Broncos", 184)]
        assert select_answer(answers) == ("Denver Broncos", 177)

    def test_single_answer(self):
        assert select_answer([("gold", 5)]) == ("gold", 5)

    def test_all_distinct_smallest_offset_wins(self):
        answers = [("carbon", 40), ("oxygen", 12), ("helium", 29)]
        assert select_answer(answers) == ("oxygen", 12)

    def test_case_insensitive_grouping(self):
        answers = [("Gold", 10), ("gold", 20), ("silver", 0)]
        assert select_answer(answers) == ("Gold", 10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_answer([])

    @settings(max_examples=100, deadline=None)
    @given(st.permutations([("a", 3), ("b", 1), ("a", 7), ("c", 2), ("b", 1)]))
    def test_permutation_invariant(self, shuffled):
        assert select_answer(list(shuffled)) == select_answer(
            [("a", 3), ("b", 1), ("a", 7), ("c", 2), ("b", 1)]
        )


class TestInvert:
    def test_deterministic(self, records, tagger, stoplist, vocab):
        a = invert(records, tagger, stoplist, vocab)
        b = invert(records, tagger, stoplist, vocab)
        assert [(e.question_id, e.input_ids, e.target_ids) for e in a] == \
               [(e.question_id, e.input_ids, e.target_ids) for e in b]

    def test_sorted_by_question_id(self, examples):
        ids = [e.question_id for e in examples]
        assert ids == sorted(ids)

    def test_structure_invariants(self, examples, vocab):
        for ex in examples:
            assert ex.input_ids.count(vocab.separator_id) == 1
            assert ex.target_ids[0] == vocab.bos_id
            assert ex.target_ids[-1] == vocab.eos_id
            assert len(ex.target_ids) >= 2

    def test_same_passage_shares_passage_ids(self, examples, vocab):
        by_article = {}
        for ex in examples:
            by_article.setdefault(ex.question_id.split("-")[0], []).append(ex)
        for group in by_article.values():
            tails = {
                tuple(ex.input_ids[ex.input_ids.index(vocab.separator_id):])
                for ex in group
            }
            assert len(tails) == 1

    def test_question_tagged_with_passage_map(self, examples, vocab):
        ex = next(e for e in examples if e.question_id == "sb-01")
        text = postprocess_question(TokenSequence.from_ids(ex.target_ids, vocab))
        assert text == "which ORG 1 team represented the ORG 2 at EVENT 0 DATE 0?"

    def test_each_passage_is_encoded_once(self, records, tagger, stoplist, vocab):
        calls = []

        def counting(text):
            calls.append(text)
            return tagger(text)

        examples = invert(records, counting, stoplist, vocab)
        # one call per distinct passage, then one per answer and per question
        assert len(calls) == len({r.passage for r in records}) + 2 * len(records)
        alone = [invert([rec], tagger, stoplist, vocab)[0]
                 for rec in sorted(records, key=lambda r: r.question_id)]
        assert [(e.question_id, e.input_ids, e.target_ids) for e in examples] == \
               [(e.question_id, e.input_ids, e.target_ids) for e in alone]

    def test_shared_passage_keeps_answer_entities_apart(self, tagger, stoplist, vocab):
        # word boundaries keep "Brazil" and "Peru" untagged in the passage, so
        # each answer adds its own entity to a copy of the passage's map
        passage = "Brazilians and Peruvians met."
        records = [
            SquadRecord("T", passage, "q1", "who met Brazil?", [("Brazil", 0)]),
            SquadRecord("T", passage, "q2", "who met Peru?", [("Peru", 15)]),
        ]
        memo = {}
        for rec, expected in zip(records, ([["Brazil"]], [["Peru"]])):
            _, tagged = preprocess_pair(rec.answers[0][0], passage, tagger,
                                        stoplist, vocab, memo)
            assert list(tagged.entity_map.values()) == expected
        assert list(memo) == [passage]
        assert memo[passage][1].entity_map == {}
        both = invert(records, tagger, stoplist, vocab)
        second = both[1]
        assert second.input_ids[:3] == \
            [vocab.id_of("GPE"), vocab.id_of("0"), vocab.separator_id]
        assert postprocess_question(TokenSequence.from_ids(second.target_ids, vocab)) \
            == "who met GPE 0?"
        alone, = invert(records[1:], tagger, stoplist, vocab)
        assert (second.input_ids, second.target_ids) == (alone.input_ids, alone.target_ids)

    def test_truncation_keeps_answer_and_separator(self, records, tagger, stoplist, vocab):
        examples = invert(records, tagger, stoplist, vocab,
                          max_input_ids=16, max_target_ids=8)
        for ex in examples:
            assert len(ex.input_ids) <= 16
            assert len(ex.target_ids) <= 8
            assert vocab.separator_id in ex.input_ids
            assert ex.target_ids[-1] == vocab.eos_id

    def test_unfit_answer_is_a_preprocess_error_naming_the_question(
            self, records, tagger, stoplist, vocab):
        first = min(r.question_id for r in records)
        with pytest.raises(PreprocessError, match=f"question {first}: .*2 input ids"):
            invert(records, tagger, stoplist, vocab, max_input_ids=2)


class TestBucketByLength:
    def test_all_fit_first_bucket(self):
        examples = [InvertedExample(str(i), [5] * 10, [5] * 4) for i in range(7)]
        buckets = bucket_by_length(examples, [(64, 16), (128, 24)])
        assert [len(b) for b in buckets] == [7, 0]

    def test_smallest_fit_rule(self):
        bounds = [(64, 16), (256, 32), (512, 48)]
        ex = InvertedExample("q", [1] * 300, [1] * 20)
        buckets = bucket_by_length([ex], bounds)
        assert [len(b) for b in buckets] == [0, 0, 1]

    def test_empty_dataset(self):
        buckets = bucket_by_length([], [(8, 4), (16, 8)])
        assert all(len(b) == 0 for b in buckets)

    def test_partition_property(self, examples, buckets):
        assert sum(len(b) for b in buckets) == len(examples)
        seen = [e.question_id for b in buckets for e in b.examples]
        assert len(seen) == len(set(seen))

    def test_oversized_example_rejected(self):
        ex = InvertedExample("q", [1] * 100, [1] * 4)
        with pytest.raises(ValueError, match="exceeds"):
            bucket_by_length([ex], [(8, 4)])

    def test_non_ascending_bounds_rejected(self):
        with pytest.raises(ValueError, match="ascend"):
            bucket_by_length([], [(64, 16), (32, 24)])

    def test_padded_matrices(self):
        bucket = Bucket(8, 6, [InvertedExample("q", [7, 8, 9], [2, 5, 3]),
                               InvertedExample("r", [4, 6], [2, 5, 6, 3])])
        inputs, targets, got = bucket.batch([1, 0], pad_id=1)
        np.testing.assert_array_equal(inputs, [[4, 6, 1], [7, 8, 9]])
        np.testing.assert_array_equal(targets, [[2, 5, 6, 3], [2, 5, 3, 1]])
        assert got is bucket and got.label == "8x6"


class TestExampleCache:
    def test_round_trip_is_byte_identical(self, examples, tmp_path):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        save_examples(examples, first)
        save_examples(load_examples(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"format": "other", "version": 9}\n', encoding="utf-8")
        with pytest.raises(SchemaError):
            load_examples(path)

    def test_header_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_bytes('{"format": "café"}\n'.encode("latin-1"))
        with pytest.raises(SchemaError, match=re.escape(f"{path}:1: unrecognized")):
            load_examples(path)

    @pytest.mark.parametrize("input_ids,target_ids,message", [
        ([], [2, 5, 3], "field 'input_ids' must have length >= 1, got 0"),
        ([7], [], "field 'target_ids' must have length >= 2, got 0"),
        ([7], [2], "field 'target_ids' must have length >= 2, got 1"),
    ], ids=["empty_input", "empty_target", "bos_only_target"])
    def test_row_that_cannot_train_names_the_line(self, examples, tmp_path,
                                                   input_ids, target_ids, message):
        path = tmp_path / "cache.jsonl"
        save_examples(examples[:2] + [InvertedExample("bad", input_ids, target_ids)], path)
        with pytest.raises(SchemaError, match=re.escape(f"{path}:4: {message}")):
            load_examples(path)

    def test_shortest_trainable_row_loads(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        save_examples([InvertedExample("q", [7], [2, 3])], path)
        assert load_examples(path) == [InvertedExample("q", [7], [2, 3])]


class TestReadJsonl:
    def test_rows_in_order_skipping_blank_and_leading_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"head": 1}\n{"id": 7, "q": "a"}\n\n{"id": "x"}\n',
                        encoding="utf-8")
        rows = read_jsonl(path, {"id": ID, "q": TEXT}, optional=("q",), skip=1)
        assert rows == [{"id": 7, "q": "a"}, {"id": "x"}]

    def test_crlf_line_ends_read_and_counted(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b'{"id": 1}\r\n\r\n{"id": 2}\r\n{"id": "caf\xe9"}\r\n')
        with pytest.raises(SchemaError, match=re.escape(f"{path}:4: not UTF-8 (byte 0xe9)")):
            read_jsonl(path, {"id": ID})
        path.write_bytes(b'{"id": 1}\r\n\r\n{"id": 2}\r\n')
        assert read_jsonl(path, {"id": ID}) == [{"id": 1}, {"id": 2}]

    def test_bad_json_on_line_2_wins_over_bad_utf8_on_line_5(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b'{"id": 1}\n{"id": \n{"id": 3}\n{"id": 4}\n{"id": "caf\xe9"}\n')
        with pytest.raises(SchemaError, match=re.escape(f"{path}:2: bad JSON: ")):
            read_jsonl(path, {"id": ID})
        path.write_bytes(b'{"id": 1}\n{"id": 2}\n{"id": 3}\n{"id": 4}\n{"id": "caf\xe9"}\n')
        with pytest.raises(SchemaError, match=re.escape(f"{path}:5: not UTF-8 (byte 0xe9)")):
            read_jsonl(path, {"id": ID})

    @pytest.mark.parametrize("line,message", [
        ('[1, 2]', "expected a JSON object, got list"),
        ('{"id": true, "ids": []}', "field 'id' must be a string or an integer, got bool"),
        ('{"id": "a", "ids": [1, 2.0]}', "field 'ids' must be a list of integers"),
        ('{"id": "a", "ids": [], "q": null}', "field 'q' must be a string, got NoneType"),
        ('{"ids": []}', "missing field 'id'"),
    ])
    def test_bad_row_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"id": "ok", "ids": [1]}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:2: {message}")):
            read_jsonl(path, {"id": ID, "ids": IDS, "q": TEXT}, optional=("q",))


class TestJsonDocuments:
    DOC = {"b": [1, 2.5, None], "a": {"z": "café", "y": True}, "c": []}

    def test_write_json_bytes_equal_an_indented_sorted_dump(self, tmp_path):
        want = tmp_path / "want.json"
        with open(want, "w", encoding="utf-8") as fh:
            json.dump(self.DOC, fh, sort_keys=True, indent=2)
            fh.write("\n")
        write_json(tmp_path / "got.json", self.DOC)
        assert (tmp_path / "got.json").read_bytes() == want.read_bytes()
        assert sorted(f.name for f in tmp_path.iterdir()) == ["got.json", "want.json"]

    def test_read_json_reads_what_write_json_wrote(self, tmp_path):
        write_json(tmp_path / "doc.json", self.DOC)
        assert read_json(tmp_path / "doc.json") == self.DOC


# JSON values of every kind write_json takes: strings with control and
# non-ASCII characters, big ints, and the floats whose text is easy to get
# wrong (-0.0, 1e-07, 1e+16, NaN, Infinity) among any others.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200),
    st.floats(), st.sampled_from([-0.0, 1e-7, 1e16, math.nan, math.inf, -math.inf]),
    st.text(), st.text(st.characters(max_codepoint=0x9f)),
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=24,
)
# What json refuses to write: values of no JSON type, at any depth.
NOT_JSON = st.sampled_from([b"bytes", {1, 2}, 1j, object(), np.int64(3)])


def dumped(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


class TestWriteJsonBytes:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(JSON_DOCS)
    def test_bytes_equal_json_dumps(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            write_json(path, doc)
            with open(path, "rb") as fh:
                assert fh.read() == dumped(doc)
            assert os.listdir(tmp) == ["doc.json"]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(JSON_DOCS, min_size=1, max_size=3), NOT_JSON, st.data())
    def test_a_value_json_refuses_raises_type_error(self, docs, bad, data):
        at = data.draw(st.integers(0, len(docs)))
        doc = {"values": docs[:at] + [{"deep": [bad]}] + docs[at:]}
        with pytest.raises(TypeError):
            json.dumps(doc, sort_keys=True, indent=2)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with pytest.raises(TypeError):
                write_json(path, doc)
            assert os.listdir(tmp) == []

    def test_a_key_that_is_not_a_string_raises_type_error(self, tmp_path):
        with pytest.raises(TypeError):
            write_json(tmp_path / "doc.json", {"hist": {3: 1}})
        assert list(tmp_path.iterdir()) == []

    def test_the_documents_qgen_writes_equal_json_dumps(self, tmp_path, squad_path):
        from qgen import cli
        from qgen.training import TrainConfig, TrainState, save_checkpoint
        from qgen.model import ModelConfig, TransformerModel

        out = tmp_path / "out"
        refs, hyps = tmp_path / "refs.jsonl", tmp_path / "hyps.jsonl"
        rows = [("q1", "Who won in 1999?", "who won in 1999 ?"),
                ("q2", "Wie heißt «das»?", "what is it called"), ("q3", "", "why")]
        refs.write_text("".join(json.dumps({"id": i, "question": r}) + "\n"
                                for i, r, _ in rows), encoding="utf-8")
        hyps.write_text("".join(json.dumps({"id": i, "question": h}) + "\n"
                                for i, _, h in rows), encoding="utf-8")
        args = ["--paths.out_dir", str(out)]
        with redirect_stdout(io.StringIO()):
            assert cli.main(["preprocess", "--paths.squad_json", str(squad_path),
                             "--paths.examples_cache", str(tmp_path / "cache.jsonl")]
                            + args) == 0
            assert cli.main(["evaluate", str(refs), str(hyps)] + args) == 0
        model = TransformerModel(ModelConfig(vocab_size=12, d_model=8, num_heads=2,
                                             enc_layers=1, dec_layers=1, d_ff=16,
                                             max_positions=16), seed=0)
        save_checkpoint(tmp_path / "ckpt", model, TrainState(model, seed=0),
                        TrainConfig(total_steps=3, warmup_steps=2))
        for path in (out / "preprocess_summary.json", out / "report.json",
                     tmp_path / "ckpt" / "config.json"):
            written = path.read_bytes()
            assert written == dumped(json.loads(written)), path
