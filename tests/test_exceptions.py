"""Every exception slice_arena defines survives a pickle round trip, as it
must to reach the caller from a forked worker process."""
import inspect
import pickle
import pkgutil
from importlib import import_module

import pytest

import slice_arena

EXAMPLES = {
    "CheckpointFormatError": ("not a checkpoint",),
    "CliUsageError": ("bad flag",),
    "ConfigParseError": ("paper.cfg", 7, "expected key = value"),
    "ConfigValidationError": ("kappa", "must be positive, got -1.0"),
    "DimensionMismatchError": ("observation has 3 entries, expected 5",),
    "EnsembleManifestError": ("no members",),
    "InfeasibleBudgetError": ("delay budget below one service time",),
    "InvalidDecisionError": ("action 9 out of range",),
    "MemberQualityError": (2, 0.25, 0.36),
    "MissingCheckpointError": ("no checkpoint at model.ckpt; train first",),
    "NoPendingRequestError": ("no request pending",),
    "NonFiniteLossError": ("loss is nan",),
    "UnstableQueueError": ("arrival rate 3 >= service rate 2",),
    "_WorkerTraceback": ("Traceback (most recent call last): ...",),
}


def defined_exceptions():
    found = {}
    for info in pkgutil.iter_modules(slice_arena.__path__):
        module = import_module(f"slice_arena.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                found[name] = cls
    return found


def test_every_exception_has_an_example():
    assert sorted(defined_exceptions()) == sorted(EXAMPLES)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_round_trips_through_pickle(name):
    error = defined_exceptions()[name](*EXAMPLES[name])
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back) == vars(error)
