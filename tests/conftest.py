import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
    )
    yield
    ray.shutdown()


@pytest.fixture
def decoded_pages(monkeypatch):
    """Every value-page body that ``rayenc.codecs.decode_pages`` decodes
    during the test, as bytes in call order — compare against a chunk's
    stored page bodies to count the pages a read touched."""
    import rayenc.codecs

    seen = []
    real = rayenc.codecs.decode_pages

    def recording(encoding, ptype, bodies, *args, **kwargs):
        seen.extend(bytes(body) for body, _n in bodies)
        return real(encoding, ptype, bodies, *args, **kwargs)

    monkeypatch.setattr(rayenc.codecs, "decode_pages", recording)
    return seen
