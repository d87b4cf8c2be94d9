"""Overfit a small transformer on the bundled mini corpus, then generate.

Trains a 2+2-layer model (d_model=64) for a few hundred steps on 36 inverted
question examples, reports teacher-forced accuracy, and decodes questions with
beam search, showing both the tagged output and the entity-substituted text.

Takes a couple of minutes on CPU.  Run:  python demos/02_train_and_generate.py
"""

import pathlib
import time

import numpy as np

from qgen.generation import GenerationConfig, beam_search, substitute_entities
from qgen.model import ModelConfig, TransformerModel
from qgen.preprocess import (
    GazetteerTagger,
    default_data_path,
    load_stopwords,
    postprocess_question,
    preprocess_pair,
)
from qgen.squad import bucket_by_length, invert, load_squad, select_answer
from qgen.training import TrainConfig, TrainState, teacher_forced_accuracy, train_step
from qgen.wordpiece import TokenSequence, load_vocabulary

CORPUS = pathlib.Path(__file__).parent.parent / "tests" / "data" / "squad_tiny.json"
STEPS = 220


def main():
    vocab = load_vocabulary(default_data_path("vocab.txt"))
    tagger = GazetteerTagger.from_tsv(default_data_path("gazetteer.tsv"))
    stoplist = load_stopwords(default_data_path("stopwords.txt"))

    records = load_squad(CORPUS)
    examples = invert(records, tagger, stoplist, vocab)
    buckets = bucket_by_length(examples)
    print(f"{len(examples)} examples, bucket sizes "
          f"{[len(b) for b in buckets if len(b)]}")

    cfg = ModelConfig(vocab_size=len(vocab), d_model=64, num_heads=4, enc_layers=2,
                      dec_layers=2, d_ff=256, max_positions=256, dropout=0.0,
                      pad_id=vocab.pad_id, bos_id=vocab.bos_id, eos_id=vocab.eos_id)
    model = TransformerModel(cfg, seed=0)
    tcfg = TrainConfig(total_steps=STEPS, base_lr=3e-3, warmup_steps=80,
                       batch_size=32, checkpoint_interval=1000, seed=0)
    state = TrainState(model, seed=0)
    occupied = [b for b in buckets if len(b)]
    weights = np.array([len(b) for b in occupied], float)
    weights /= weights.sum()

    started = time.perf_counter()
    while state.step < tcfg.total_steps:
        bucket = occupied[int(state.rng.choice(len(occupied), p=weights))]
        idx = state.rng.choice(len(bucket), size=tcfg.batch_size,
                               replace=len(bucket) < tcfg.batch_size)
        value, _ = train_step(model, bucket.batch(idx, cfg.pad_id), state, tcfg)
        if state.step % 40 == 0:
            print(f"  step {state.step:4d}  loss {value:.4f}")
    print(f"trained {STEPS} steps in {time.perf_counter() - started:.0f}s; "
          f"teacher-forced accuracy {teacher_forced_accuracy(model, buckets):.3f}\n")

    gen = GenerationConfig(beam_width=4, max_length=24)
    by_id = {r.question_id: r for r in records}
    show = ["sb-01", "tesla-01", "war-02", "chi-03"]
    for qid in show:
        record = by_id[qid]
        ex = next(e for e in examples if e.question_id == qid)
        hyps = beam_search(model, np.array(ex.input_ids), gen)
        question = postprocess_question(TokenSequence.from_ids(hyps[0].tokens, vocab))
        # recover the entity map by re-tagging the passage the same way
        answer, _ = select_answer(record.answers)
        _, tagged = preprocess_pair(answer, record.passage, tagger, stoplist, vocab)
        print(f"[{qid}] answer: {answer!r}")
        print(f"  target   : {record.question}")
        print(f"  generated: {question}")
        print(f"  readable : {substitute_entities(question, tagged.entity_map)}\n")


if __name__ == "__main__":
    main()
