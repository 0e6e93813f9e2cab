from hypothesis import HealthCheck, settings

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")
