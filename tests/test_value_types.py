"""The construction contract of the package's nine frozen value types:
``PrivacyParams``, ``PostProcessor`` and ``MechanismSpec`` (mechanisms),
``LaplaceDist`` (distributions), ``QueryDescriptor`` and ``Dataset``
(queries), and ``DpCertificate``, ``McEstimate`` and ``DivergenceReport``
(verify).

Each derives from ``distributions._Value``, and its ``__init__`` checks its
arguments and stores them.  Its fields are the names in ``__match_args__``,
its ``__init__`` takes them in that order with their defaults, and they are
all it stores.  Equality, hash and repr work over the fields as a frozen
dataclass's do, no attribute can be assigned or deleted, and ``copy.copy``
and pickling restore an object without calling ``__init__``.  The
constructor with one field changed re-runs every check, and arguments with
several faults fail on the first check.
"""

import copy
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
from nonneg_dp.queries import Dataset, QueryDescriptor, QueryKind
from nonneg_dp.verify import DivergenceReport, DpCertificate, McEstimate

_PRIVACY = PrivacyParams(0.8, 1.5)
_RAMP = PostProcessor.ramp()
_COUNT = QueryDescriptor(QueryKind.COUNT_ABOVE_THRESHOLD, 0.5, 3)
_DATASET = Dataset((0.25, 1.5), 0.0, 2.0)
_REQUIRED = inspect.Parameter.empty

# Each type's fields with their defaults, in order.
FIELDS = {
    PrivacyParams: [("epsilon", _REQUIRED), ("sensitivity", _REQUIRED)],
    PostProcessor: [("kind", _REQUIRED), ("alpha", 0.0), ("func", None), ("kinks", ())],
    MechanismSpec: [("variant", _REQUIRED), ("privacy", _REQUIRED), ("scale", _REQUIRED),
                    ("postprocessor", None)],
    LaplaceDist: [("location", _REQUIRED), ("scale", _REQUIRED)],
    QueryDescriptor: [("kind", _REQUIRED), ("threshold", 0.0), ("count_floor", None)],
    Dataset: [("records", _REQUIRED), ("lower", _REQUIRED), ("upper", _REQUIRED), ("lower_open", False)],
    DpCertificate: [("epsilon_claimed", _REQUIRED), ("max_log_ratio_observed", _REQUIRED),
                    ("grid_description", _REQUIRED), ("passed", _REQUIRED)],
    McEstimate: [("mean", _REQUIRED), ("stderr", _REQUIRED), ("n", _REQUIRED), ("seed", _REQUIRED),
                 ("warning", None)],
    DivergenceReport: [(name, _REQUIRED) for name in (
        "scale", "radii", "values", "strictly_increasing", "growth_factor", "diverges", "limit",
        "converged")],
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
    "count-query": (
        _COUNT,
        "QueryDescriptor(kind=<QueryKind.COUNT_ABOVE_THRESHOLD: 'count'>, threshold=0.5, count_floor=3)"),
    "mean-query": (
        QueryDescriptor(QueryKind.BOUNDED_MEAN),
        "QueryDescriptor(kind=<QueryKind.BOUNDED_MEAN: 'mean'>, threshold=0.0, count_floor=None)"),
    "dataset": (_DATASET, "Dataset(records=(0.25, 1.5), lower=0.0, upper=2.0, lower_open=False)"),
    "open-dataset": (
        Dataset((), 0.0, 1.0, True), "Dataset(records=(), lower=0.0, upper=1.0, lower_open=True)"),
    "certificate": (
        DpCertificate(0.8, 0.75, "2 points in [0, 1.5]", True),
        "DpCertificate(epsilon_claimed=0.8, max_log_ratio_observed=0.75, "
        "grid_description='2 points in [0, 1.5]', passed=True)"),
    "estimate": (
        McEstimate(0.5, 0.25, 1000, 7), "McEstimate(mean=0.5, stderr=0.25, n=1000, seed=7, warning=None)"),
    "warned-estimate": (
        McEstimate(0.5, 0.25, 1000, 7, "scale >= 1: mechanism mean is infinite"),
        "McEstimate(mean=0.5, stderr=0.25, n=1000, seed=7, "
        "warning='scale >= 1: mechanism mean is infinite')"),
    "divergence": (
        DivergenceReport(1.0, (10.0, 20.0), (5.25, 10.25), True, 2.0, False, math.inf, False),
        "DivergenceReport(scale=1.0, radii=(10.0, 20.0), values=(5.25, 10.25), strictly_increasing=True, "
        "growth_factor=2.0, diverges=False, limit=inf, converged=False)"),
}
OBJECTS = [obj for obj, _ in INSTANCES.values()]


def _values(obj):
    return tuple(getattr(obj, name) for name in type(obj).__match_args__)


def _with(obj, **changes):
    """``obj`` built again by its constructor, with ``changes`` to its fields."""
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in type(obj).__match_args__})


def _warnings_of(make):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        made = make()
    return made, [str(w.message) for w in caught]


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_fields_signature_and_match_args(cls):
    expected = FIELDS[cls]
    assert cls.__match_args__ == tuple(name for name, _ in expected)
    parameters = inspect.signature(cls).parameters
    assert [(name, p.default) for name, p in parameters.items()] == expected
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in parameters.values())


@pytest.mark.parametrize("name", list(INSTANCES))
def test_equality_hash_and_repr(name):
    obj, text = INSTANCES[name]
    assert repr(obj) == text
    assert list(vars(obj)) == list(type(obj).__match_args__)
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
    assert QueryDescriptor(count_floor=3, threshold=0.5, kind=QueryKind.COUNT_ABOVE_THRESHOLD) == _COUNT
    assert Dataset(upper=2.0, lower=0.0, records=[0.25, 1.5]) == _DATASET
    assert McEstimate(seed=7, n=1000, stderr=0.25, mean=0.5) == McEstimate(0.5, 0.25, 1000, 7, None)
    with pytest.raises(TypeError):
        PrivacyParams(0.8)
    with pytest.raises(TypeError):
        LaplaceDist(0.5, 2.0, 1.0)


@pytest.mark.parametrize("obj", OBJECTS, ids=list(INSTANCES))
def test_fields_cannot_be_assigned_or_deleted(obj):
    for name in type(obj).__match_args__:
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, before)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError, match="cannot"):
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
    (_RAMP, "kind", "ramp", "^post-processor kind must be 'translated-ramp' or 'custom', got 'ramp'$"),
    (_RAMP, "kind", "custom", "^a custom post-processor needs a callable func, got None$"),
    (_COUNT, "threshold", math.nan, "^threshold must be finite, got nan$"),
    (_COUNT, "count_floor", 0, "^count_floor must be at least 1$"),
    (_COUNT, "count_floor", 1.5, "^count_floor must be an integer, got 1.5$"),
    (_DATASET, "lower", 3.0, "^bounds must satisfy lower <= upper$"),
    (_DATASET, "upper", 1.0, "^record 1.5 outside declared bounds$"),
    (Dataset((0.0,), 0.0, 1.0), "lower_open", True, "^record 0.0 outside declared bounds$"),
    (_DATASET, "records", (0.25, math.inf), "^non-finite record$"),
]


@pytest.mark.parametrize("obj, name, value, message", _BAD_REPLACEMENTS,
                         ids=[f"{type(o).__name__}-{n}-{v!r}" for o, n, v, _ in _BAD_REPLACEMENTS])
def test_replace_reruns_every_check(obj, name, value, message):
    with pytest.raises(ValueError, match=message):
        _with(obj, **{name: value})


def test_replace_builds_a_new_object_and_a_replaced_spec_warns_once():
    assert _with(_PRIVACY, epsilon=2.0) == PrivacyParams(2.0, 1.5)
    assert _with(LaplaceDist(0.5, 2.0), scale=3.0) == LaplaceDist(0.5, 3.0)
    assert _with(_RAMP, alpha=0.3, kinks=(0.3,)) == PostProcessor.translated_ramp(0.3)
    assert _with(_COUNT, count_floor=5) == QueryDescriptor(QueryKind.COUNT_ABOVE_THRESHOLD, 0.5, 5)
    assert _with(_DATASET, records=[1.0]) == Dataset((1.0,), 0.0, 2.0)
    mult = make_multiplicative_mechanism(1.0, 0.3)
    for scale, expected in [(0.6, ["scale >= 1/2: mechanism variance is infinite"]),
                            (1.5, ["scale >= 1: mechanism mean is infinite"]),
                            (0.0, ["degenerate mechanism: zero sensitivity adds no noise"]),
                            (0.4, [])]:
        spec, caught = _warnings_of(lambda: _with(mult, scale=scale))
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
    "query-nan-threshold-zero-floor": (
        lambda: QueryDescriptor(QueryKind.COUNT_ABOVE_THRESHOLD, math.nan, 0), ValueError,
        "^threshold must be finite, got nan$"),
    "dataset-inverted-bounds-nan-record": (
        lambda: Dataset((math.nan,), 1.0, 0.0), ValueError, "^bounds must satisfy lower <= upper$"),
    # Records are checked in order.
    "dataset-outside-record-then-nan-record": (
        lambda: Dataset((5.0, math.nan), 0.0, 1.0), ValueError, "^record 5.0 outside declared bounds$"),
}


@pytest.mark.parametrize("case", list(_SEVERAL_FAULTS))
def test_several_faults_raise_the_first_check(case):
    make, error, message = _SEVERAL_FAULTS[case]
    with pytest.raises(error, match=message):
        make()
