"""Mutation gate: single-field mutants of the serialized corpus kernels.

Each mutant either goes through the whole public pipeline (parse, sample
inputs, forward run, op count, gradient, unbudgeted plan) or raises a named
``GradflowError`` subclass: never a bare exception from deep inside. A
share of the same mutants goes through the command line's ``run``, which
exits 0 or 2 and prints no traceback.
"""

from __future__ import annotations

import collections
import copy
import json
import random

import numpy as np

import gradflow.examples as examples
from gradflow import (
    GradflowError,
    cli,
    count_flops,
    gradient,
    parse_program,
    plan,
    program_to_dict,
    run_forward,
    sample_inputs,
)

MUTANTS_PER_KERNEL = 150


def _spots(node):
    """``(container, key, value)`` for every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key, value
        if isinstance(value, (dict, list)):
            yield from _spots(value)


def _changed(value, rng: random.Random):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return rng.choice([-1, 0, 10**6, 2.5])
    return rng.choice(["", "zz", "(add i"])


def mutants(doc: dict, rng: random.Random, count: int):
    """``count`` copies of ``doc``, each with one key or list element
    deleted (probability 0.2) or one bool, number or string changed."""
    for _ in range(count):
        m = copy.deepcopy(doc)
        spots = list(_spots(m))
        if rng.random() < 0.2:
            container, key, _ = rng.choice(spots)
            del container[key]
        else:
            container, key, value = rng.choice([s for s in spots if isinstance(s[2], (bool, int, float, str))])
            container[key] = _changed(value, rng)
        yield m


def _pipeline(text: str, params: dict):
    program = parse_program(text)
    inputs = sample_inputs(program, params, np.random.default_rng(0))
    run_forward(program, inputs, params)
    count_flops(program, params)
    gradient(program, inputs, params)
    plan(program, None, params)


def _gate(rng: random.Random):
    ran, named, bare = 0, 0, []
    for name in sorted(examples.EXAMPLES):
        doc = program_to_dict(examples.build(name))
        params = examples.DEFAULT_PARAMS[name]
        for k, m in enumerate(mutants(doc, rng, MUTANTS_PER_KERNEL)):
            try:
                _pipeline(json.dumps(m), params)
                ran += 1
            except Exception as exc:  # what the gate sorts
                if isinstance(exc, GradflowError) and type(exc) is not GradflowError:
                    named += 1
                else:
                    bare.append((name, k, repr(exc)))
    assert ran + named + len(bare) == len(examples.EXAMPLES) * MUTANTS_PER_KERNEL
    assert ran and named  # the set holds both kinds of mutant
    assert not bare, f"{len(bare)} bare exceptions, first: {bare[:5]}"


def test_every_mutant_runs_through_or_raises_a_named_error():
    _gate(random.Random(3))


def test_a_second_draw_of_mutants_runs_through_or_raises_a_named_error():
    # this draw sets branchy_scale's branch label to "", which validation
    # must refuse: the path walk keys a branch by its label
    _gate(random.Random(5))


def test_every_tenth_mutant_runs_through_the_cli_or_exits_2(tmp_path, capsys):
    # the first draw of the gate above, in the same order
    rng = random.Random(3)
    path = tmp_path / "mutant.json"
    codes = collections.Counter()
    for name in sorted(examples.EXAMPLES):
        doc = program_to_dict(examples.build(name))
        params = ",".join(f"{p}={v}" for p, v in examples.DEFAULT_PARAMS[name].items())
        for k, m in enumerate(mutants(doc, rng, MUTANTS_PER_KERNEL)):
            if k % 10 == 0:
                path.write_text(json.dumps(m))
                codes[cli.main(["run", str(path), "--params", params])] += 1
    assert sum(codes.values()) == len(examples.EXAMPLES) * MUTANTS_PER_KERNEL // 10
    assert set(codes) == {0, 2}, codes
    assert "Traceback" not in capsys.readouterr().err
