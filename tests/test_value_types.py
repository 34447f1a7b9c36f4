"""The construction contract of the four frozen value types a release builds:
``PrivacyParams``, ``PostProcessor`` and ``MechanismSpec`` (mechanisms) and
``LaplaceDist`` (distributions).

Each is a frozen dataclass whose ``__init__`` checks its arguments and
stores them.  Its fields, signature, equality, hash, repr, immutability,
``dataclasses.replace``, ``copy.copy`` and pickling are those of a frozen
dataclass, and arguments with several faults fail on the first check.
"""

import copy
import dataclasses
import inspect
import math
import pickle
import warnings

import pytest

from nonneg_dp.distributions import LaplaceDist
from nonneg_dp.mechanisms import (
    MechanismSpec,
    PostProcessor,
    PrivacyParams,
    Variant,
    make_laplace_mechanism,
    make_multiplicative_mechanism,
    make_postprocessed_mechanism,
    make_restricted_mechanism,
)

_PRIVACY = PrivacyParams(0.8, 1.5)
_RAMP = PostProcessor.ramp()

# Each type's fields with their defaults, in order.
FIELDS = {
    PrivacyParams: [("epsilon", dataclasses.MISSING), ("sensitivity", dataclasses.MISSING)],
    PostProcessor: [("kind", dataclasses.MISSING), ("alpha", 0.0), ("func", None), ("kinks", ())],
    MechanismSpec: [("variant", dataclasses.MISSING), ("privacy", dataclasses.MISSING),
                    ("scale", dataclasses.MISSING), ("postprocessor", None)],
    LaplaceDist: [("location", dataclasses.MISSING), ("scale", dataclasses.MISSING)],
}

# Instances and their reprs.
INSTANCES = {
    "privacy": (_PRIVACY, "PrivacyParams(epsilon=0.8, sensitivity=1.5)"),
    "translated-ramp": (
        PostProcessor.translated_ramp(0.3),
        "PostProcessor(kind='translated-ramp', alpha=0.3, func=None, kinks=(0.3,))"),
    "custom": (
        PostProcessor(kind="custom", func=abs, kinks=(1.0,)),
        "PostProcessor(kind='custom', alpha=0.0, func=<built-in function abs>, kinks=(1.0,))"),
    "plain-spec": (
        make_laplace_mechanism(_PRIVACY),
        "MechanismSpec(variant=<Variant.PLAIN: 'plain'>, privacy=PrivacyParams(epsilon=0.8, "
        "sensitivity=1.5), scale=1.875, postprocessor=None)"),
    "ramp-spec": (
        make_postprocessed_mechanism(_PRIVACY, _RAMP),
        "MechanismSpec(variant=<Variant.POST_PROCESSED: 'post-processed'>, privacy=PrivacyParams("
        "epsilon=0.8, sensitivity=1.5), scale=1.875, postprocessor=PostProcessor("
        "kind='translated-ramp', alpha=0.0, func=None, kinks=(0.0,)))"),
    "restricted-spec": (
        make_restricted_mechanism(_PRIVACY, fair_comparison=True),
        "MechanismSpec(variant=<Variant.RESTRICTED: 'restricted'>, privacy=PrivacyParams("
        "epsilon=0.8, sensitivity=1.5), scale=3.75, postprocessor=None)"),
    "multiplicative-spec": (
        make_multiplicative_mechanism(1.0, 0.3),
        "MechanismSpec(variant=<Variant.MULTIPLICATIVE: 'multiplicative'>, privacy=PrivacyParams("
        "epsilon=1.0, sensitivity=0.3), scale=0.3, postprocessor=None)"),
    "laplace": (LaplaceDist(0.5, 2.0), "LaplaceDist(location=0.5, scale=2.0)"),
}
OBJECTS = [obj for obj, _ in INSTANCES.values()]


def _values(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def _warnings_of(make):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        made = make()
    return made, [str(w.message) for w in caught]


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_fields_signature_and_match_args(cls):
    expected = FIELDS[cls]
    assert [(f.name, f.default) for f in dataclasses.fields(cls)] == expected
    assert all(f.init for f in dataclasses.fields(cls))
    parameters = inspect.signature(cls).parameters
    assert [(name, p.default) for name, p in parameters.items()] == [
        (name, inspect.Parameter.empty if default is dataclasses.MISSING else default)
        for name, default in expected]
    assert cls.__match_args__ == tuple(name for name, _ in expected)
    assert cls.__dataclass_params__.frozen and cls.__dataclass_params__.eq


@pytest.mark.parametrize("name", list(INSTANCES))
def test_equality_hash_and_repr(name):
    obj, text = INSTANCES[name]
    assert repr(obj) == text
    rebuilt = type(obj)(*_values(obj))
    assert rebuilt == obj and rebuilt is not obj
    assert hash(rebuilt) == hash(obj) == hash(_values(obj))
    assert obj != _values(obj)
    for other in OBJECTS:
        assert (other == obj) == (other is obj)


def test_keywords_build_the_same_objects():
    assert PrivacyParams(sensitivity=1.5, epsilon=0.8) == _PRIVACY
    assert LaplaceDist(scale=2.0, location=0.5) == LaplaceDist(0.5, 2.0)
    assert PostProcessor("translated-ramp", 0.0, None, (0.0,)) == _RAMP
    assert MechanismSpec(scale=1.875, privacy=_PRIVACY, variant=Variant.PLAIN) == (
        make_laplace_mechanism(_PRIVACY))
    with pytest.raises(TypeError):
        PrivacyParams(0.8)
    with pytest.raises(TypeError):
        LaplaceDist(0.5, 2.0, 1.0)


@pytest.mark.parametrize("obj", OBJECTS, ids=list(INSTANCES))
def test_fields_cannot_be_assigned_or_deleted(obj):
    for f in dataclasses.fields(obj):
        before = getattr(obj, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, before)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
        assert getattr(obj, f.name) is before
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 1.0


@pytest.mark.parametrize("obj", OBJECTS, ids=list(INSTANCES))
def test_copy_and_pickle_round_trip(obj):
    for clone in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj) and clone == obj and hash(clone) == hash(obj)


def test_a_spec_warns_when_made_not_when_copied_or_unpickled():
    noisy, caught = _warnings_of(lambda: make_multiplicative_mechanism(1.0, 0.6))
    assert caught == ["scale >= 1/2: mechanism variance is infinite"]
    clones, caught = _warnings_of(lambda: (copy.copy(noisy), pickle.loads(pickle.dumps(noisy))))
    assert clones == (noisy, noisy) and caught == []


# (object, field, replacement, message of the check it must fail)
_BAD_REPLACEMENTS = [
    (_PRIVACY, "epsilon", 0.0, "^epsilon must be finite and > 0, got 0.0$"),
    (_PRIVACY, "epsilon", math.inf, "^epsilon must be finite and > 0, got inf$"),
    (_PRIVACY, "sensitivity", -1.0, "^sensitivity must be finite and >= 0, got -1.0$"),
    (_PRIVACY, "sensitivity", math.nan, "^sensitivity must be finite and >= 0, got nan$"),
    (LaplaceDist(0.5, 2.0), "location", math.inf, "^location must be finite$"),
    (LaplaceDist(0.5, 2.0), "scale", 0.0, "^scale must be finite and > 0, got 0.0$"),
    (make_laplace_mechanism(_PRIVACY), "scale", -1.0, "^scale must be finite and >= 0, got -1.0$"),
    (make_laplace_mechanism(_PRIVACY), "scale", 1e-310,
     "^scale must be 0 or at least 2.2250738585072014e-308, got 1e-310$"),
    (make_laplace_mechanism(_PRIVACY), "privacy", PrivacyParams(1.0, 1e-310),
     "^sensitivity/epsilon must be 0 or at least 2.2250738585072014e-308, got 1e-310$"),
    (make_laplace_mechanism(_PRIVACY), "postprocessor", _RAMP,
     "^a spec has a post-processor exactly when it is post-processed$"),
    (make_postprocessed_mechanism(_PRIVACY, _RAMP), "postprocessor", None,
     "^a spec has a post-processor exactly when it is post-processed$"),
    (make_postprocessed_mechanism(_PRIVACY, _RAMP), "variant", Variant.RESTRICTED,
     "^a spec has a post-processor exactly when it is post-processed$"),
]


@pytest.mark.parametrize("obj, name, value, message", _BAD_REPLACEMENTS,
                         ids=[f"{type(o).__name__}-{n}-{v!r}" for o, n, v, _ in _BAD_REPLACEMENTS])
def test_replace_reruns_every_check(obj, name, value, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(obj, **{name: value})


def test_replace_builds_a_new_object_and_a_replaced_spec_warns_once():
    assert dataclasses.replace(_PRIVACY, epsilon=2.0) == PrivacyParams(2.0, 1.5)
    assert dataclasses.replace(LaplaceDist(0.5, 2.0), scale=3.0) == LaplaceDist(0.5, 3.0)
    assert dataclasses.replace(_RAMP, alpha=0.3, kinks=(0.3,)) == PostProcessor.translated_ramp(0.3)
    mult = make_multiplicative_mechanism(1.0, 0.3)
    for scale, expected in [(0.6, ["scale >= 1/2: mechanism variance is infinite"]),
                            (1.5, ["scale >= 1: mechanism mean is infinite"]),
                            (0.0, ["degenerate mechanism: zero sensitivity adds no noise"]),
                            (0.4, [])]:
        spec, caught = _warnings_of(lambda: dataclasses.replace(mult, scale=scale))
        assert _values(spec) == (Variant.MULTIPLICATIVE, mult.privacy, scale, None)
        assert caught == expected


_SEVERAL_FAULTS = {
    "privacy-nan-epsilon-negative-sensitivity": (
        lambda: PrivacyParams(math.nan, -1.0), ValueError, "^epsilon must be finite and > 0, got nan$"),
    "privacy-zero-epsilon-nan-sensitivity": (
        lambda: PrivacyParams(0.0, math.nan), ValueError, "^epsilon must be finite and > 0, got 0.0$"),
    "laplace-inf-location-zero-scale": (
        lambda: LaplaceDist(math.inf, 0.0), ValueError, "^location must be finite$"),
    "laplace-nan-location-negative-scale": (
        lambda: LaplaceDist(math.nan, -1.0), ValueError, "^location must be finite$"),
    # A subnormal scale fails before the mismatched post-processor.
    "spec-subnormal-scale-mismatched-postprocessor": (
        lambda: MechanismSpec(Variant.PLAIN, _PRIVACY, 1e-310, _RAMP), ValueError,
        "^scale must be 0 or at least 2.2250738585072014e-308, got 1e-310$"),
    # A negative scale fails before a subnormal sensitivity/epsilon.
    "spec-negative-scale-subnormal-privacy-scale": (
        lambda: MechanismSpec(Variant.PLAIN, PrivacyParams(1.0, 1e-310), -1.0), ValueError,
        "^scale must be finite and >= 0, got -1.0$"),
    # A subnormal sensitivity/epsilon fails before the missing post-processor.
    "spec-subnormal-privacy-scale-missing-postprocessor": (
        lambda: MechanismSpec(Variant.POST_PROCESSED, PrivacyParams(1.0, 1e-310), 1.0), ValueError,
        "^sensitivity/epsilon must be 0 or at least 2.2250738585072014e-308, got 1e-310$"),
    # The privacy's scale is read before any check.
    "spec-no-privacy-negative-scale": (
        lambda: MechanismSpec(Variant.PLAIN, None, -1.0), AttributeError, "scale"),
}


@pytest.mark.parametrize("case", list(_SEVERAL_FAULTS))
def test_several_faults_raise_the_first_check(case):
    make, error, message = _SEVERAL_FAULTS[case]
    with pytest.raises(error, match=message):
        make()
