"""Persistent result storage for sweeps (see :mod:`repro.store.result_store`)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".result_store": (
        "ResultStore", "profile_content", "result_from_dict", "result_to_dict",
    ),
})

__all__ = ["ResultStore", "profile_content", "result_from_dict", "result_to_dict"]
