"""The model-file loaders check what they parse: whatever JSON value they are
given, they return a model or raise ModelError, and nothing else."""

import copy
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublin import (
    ModelError,
    NumericMode,
    ambiguity_set_from_dict,
    joint_model_from_dict,
    load_ambiguity_set,
    load_joint_model,
)
from sublin.measures import MAX_NUMBER_DIGITS, parse_number

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(10**400),
    st.floats(),
    st.sampled_from(["1/2", "1/4", "0", "1", "-1/3", "0.5", "1/0", "x", ""]),
    st.text(max_size=3),
)
_KEYS = st.sampled_from(
    ["measures", "atoms", "probs", "label", "variables", "supports", "table"]
) | st.text(max_size=3)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=20,
)

_NUMBERS = st.sampled_from([0, 1, 2, -1, "1/2", "1/4", "-1/3", 0.5, 0.25, 1e-13])
_PROBS = st.sampled_from(
    [[1], ["1"], ["1/2", "1/2"], [0.5, 0.5], ["1/4", 0.75], [1 + 1e-13, -1e-13], [0.5, 0, 0.5]]
)
_MEASURE = _PROBS.flatmap(lambda probs: st.fixed_dictionaries({
    "atoms": st.lists(_NUMBERS, min_size=len(probs), max_size=len(probs)),
    "probs": st.just(probs),
}))
_MEASURE_DOCS = st.fixed_dictionaries(
    {"measures": st.lists(_MEASURE, min_size=1, max_size=3)},
    optional={"label": st.text(max_size=2)},
)
# (variables, supports, tables that fit them)
_JOINT_BASES = [
    (["X"], [[0, 1]], [[0.5, 0.5], ["1/2", "1/2"], [1, 0]]),
    (["X", "Y"], [[0, 1], [0, 1]], [[[0.25, 0.25], ["1/4", "1/4"]], [["1/2", 0], [0, 0.5]]]),
    (["X", "Y"], [["1/2", 1], [0.5]], [[[1], [0]], [["1/2"], [0.5]]]),
]
_JOINT_DOCS = st.sampled_from(_JOINT_BASES).flatmap(lambda base: st.fixed_dictionaries({
    "variables": st.just(base[0]),
    "supports": st.just(base[1]),
    "measures": st.lists(st.fixed_dictionaries({"table": st.sampled_from(base[2])}),
                         min_size=1, max_size=3),
}))


def _places(value):
    """Every (container, key) pair inside a JSON value, at any depth."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, sub in items:
        yield value, key
        yield from _places(sub)


@st.composite
def _damaged(draw, documents):
    """A well-formed document, or one with a value at any depth replaced by
    any JSON value (most often a scalar), so that generation reaches the
    number parser, the weight rule, the table shape check and the model
    constructors, not only the first type check."""
    doc = copy.deepcopy(draw(documents))
    if draw(st.booleans()):
        container, key = draw(st.sampled_from(list(_places(doc))))
        container[key] = draw(_SCALARS | _JSON)
    return doc


@pytest.mark.parametrize("mode", list(NumericMode), ids=lambda m: m.name)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=_JSON | _damaged(_MEASURE_DOCS))
def test_measures_loader_is_total(mode, doc):
    try:
        ambiguity_set_from_dict(doc, mode)
    except ModelError:
        pass


@pytest.mark.parametrize("mode", list(NumericMode), ids=lambda m: m.name)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=_JSON | _damaged(_JOINT_DOCS))
def test_joint_loader_is_total(mode, doc):
    try:
        joint_model_from_dict(doc, mode)
    except ModelError:
        pass


@pytest.mark.parametrize("text, ok", [
    ("1e%d" % MAX_NUMBER_DIGITS, True),
    ("1e-%d" % MAX_NUMBER_DIGITS, True),
    ("9" * MAX_NUMBER_DIGITS, True),
    ("1e%d" % (MAX_NUMBER_DIGITS + 1), False),
    ("1E-%d" % (MAX_NUMBER_DIGITS + 1), False),
    ("1e5000", False),
    ("9" * (MAX_NUMBER_DIGITS + 1), False),
    ("1/" + "9" * MAX_NUMBER_DIGITS, False),
])
def test_number_strings_are_bounded(text, ok):
    if ok:
        assert parse_number(text) == Fraction(text)
    else:
        with pytest.raises(ModelError):
            parse_number(text)


@pytest.mark.parametrize("load", [load_ambiguity_set, load_joint_model])
def test_unreadable_model_file_is_a_model_error(load, tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(ModelError):
            load(str(path))


def test_loading_models_does_not_import_jsonschema():
    band = os.path.join(ROOT, "configs", "bernoulli-band.json")
    ex36 = os.path.join(ROOT, "configs", "example36.json")
    code = (
        "import sys\n"
        "from sublin import NumericMode, load_ambiguity_set, load_joint_model\n"
        "for mode in NumericMode:\n"
        f"    load_ambiguity_set({band!r}, mode)\n"
        f"    load_joint_model({ex36!r}, mode)\n"
        "sys.exit('jsonschema' in sys.modules)\n"
    )
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr or "jsonschema was imported"
