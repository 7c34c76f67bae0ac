import pytest
from hypothesis import settings

from ellipkint.closedform import _next_form, closed_form

settings.register_profile("ci", derandomize=True, max_examples=200, deadline=None)
settings.load_profile("ci")

# the highest closed form any test compares against
CLOSED_FORMS_N_MAX = 200


@pytest.fixture(scope="session")
def closed_forms():
    """closed_form(n) for every n <= CLOSED_FORMS_N_MAX, each folded once from the one below.

    closed_form keeps nothing, so each call of it builds every lower order again.
    """
    forms = [closed_form(0)]
    while len(forms) <= CLOSED_FORMS_N_MAX:
        forms.append(_next_form(forms[-1]))
    return forms
