"""handguard: wearable-marker motion capture, vibrotactile guidance, and
distance-zone robot safety simulation."""


def data_path(name: str):
    """Path to a bundled data file (confusion matrices)."""
    from importlib import resources

    return resources.files("handguard") / "data" / name


def scenario_path(name: str = "default.json"):
    """Path to a bundled scenario config."""
    from importlib import resources

    return resources.files("handguard") / "scenarios" / name


__all__ = ["data_path", "scenario_path"]
__version__ = "0.1.0"
