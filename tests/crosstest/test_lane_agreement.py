"""Generated lanes agree with the isolated reference.

Property: a same-type lane of any make-up — valid corpus inputs,
corpus-``invalid`` literals, generated in- and out-of-range integers,
and rows whose ``valid`` label is wrong (a mislabeled invalid row
poisons the multi-row write, a mislabeled valid one is written alone)
— run through the executor's lane ladder (:func:`_run_lane`) on pooled
deployments yields, for every plan × format, exactly the outcomes the
longhand isolated reference observes on a fresh :class:`Deployment`
per input. Read-poisoned types (``tinyint`` on Avro) and create-time
rejections (maps on Avro) come from the corpus types themselves.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crosstest.executor import DeploymentPool, _new_counts, _run_lane
from repro.crosstest.plans import ALL_PLANS, FORMATS
from repro.crosstest.values import TestInput, generate_inputs

from .isolated_reference import reference_outcomes

TestInput.__test__ = False

CORPUS_BY_TYPE: dict[str, list[TestInput]] = {}
for _corpus_input in generate_inputs():
    CORPUS_BY_TYPE.setdefault(_corpus_input.type_text, []).append(
        _corpus_input
    )

#: integral types and their exclusive magnitude bound, for generated
#: rows on both sides of the overflow edge
INTEGRAL_BOUNDS = {
    "tinyint": 2**7,
    "smallint": 2**15,
    "int": 2**31,
    "bigint": 2**63,
}


@st.composite
def same_type_lanes(draw) -> tuple[TestInput, ...]:
    type_text = draw(st.sampled_from(sorted(CORPUS_BY_TYPE)))
    bound = INTEGRAL_BOUNDS.get(type_text)
    lane = []
    for position in range(draw(st.integers(1, 5))):
        if bound is not None and draw(st.booleans()):
            value = draw(st.integers(-2 * bound, 2 * bound))
            test_input = TestInput(
                position, type_text, str(value), value,
                -bound <= value < bound, "generated",
            )
        else:
            test_input = draw(st.sampled_from(CORPUS_BY_TYPE[type_text]))
        mislabeled = draw(st.booleans())
        lane.append(
            dataclasses.replace(
                test_input,
                input_id=position,
                valid=test_input.valid != mislabeled,
            )
        )
    return tuple(lane)


@settings(max_examples=60, deadline=None)
@given(inputs=same_type_lanes())
def test_generated_lanes_match_isolated_reference(inputs):
    pool = DeploymentPool()
    for plan in ALL_PLANS:
        for fmt in FORMATS:
            laned = _run_lane(pool, plan, fmt, inputs, _new_counts(), None)
            reference = reference_outcomes(plan, fmt, inputs)
            # repr, not ==: NaN rows must compare equal to themselves
            assert repr(laned) == repr(reference), (plan.name, fmt)
