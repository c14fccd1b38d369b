"""errors.located: the one rule that names an input in an error."""

import pytest

from invomega.errors import InputError, ReturnUndefinedError, located


def test_engine_error_keeps_its_class_and_gains_the_name():
    with pytest.raises(ReturnUndefinedError) as exc:
        with located("p"):
            raise ReturnUndefinedError("return undefined")
    assert str(exc.value) == "p: return undefined"


def test_undecodable_text_is_an_input_error_naming_the_input():
    with pytest.raises(InputError) as exc:
        with located("x"):
            b"\xff".decode()
    assert str(exc.value) == "x: not valid utf-8 text: invalid start byte"
