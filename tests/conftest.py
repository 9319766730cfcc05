import pytest

from ibrownian import sampling


@pytest.fixture(autouse=True)
def empty_field_basis_memo():
    # the field sampler keeps each window's basis for the life of the
    # process; a test that patches the build must see a real build
    sampling._field_basis.cache_clear()
    yield
    sampling._field_basis.cache_clear()
