"""The package's exception types."""

import inspect
import pickle

import pytest

from metriflow import errors

EXCEPTIONS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
              if issubclass(cls, BaseException) and cls.__module__ == errors.__name__]
# constructor arguments of the types that take more than a message
ARGS = {errors.ParameterError: ("eta", "eta must be finite, got eta = nan"),
        errors.IntegrationError: ("non-finite state", 7)}


@pytest.mark.parametrize("cls", EXCEPTIONS, ids=lambda cls: cls.__name__)
def test_every_error_survives_pickle(cls):
    # the CLI's forked processes send their errors back by pickle
    exc = cls(*ARGS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert getattr(back, "name", None) == getattr(exc, "name", None)
    assert getattr(back, "step", None) == getattr(exc, "step", None)


def test_the_pickle_check_covers_the_errors_with_attributes():
    assert {errors.ParameterError, errors.IntegrationError} <= set(EXCEPTIONS)
