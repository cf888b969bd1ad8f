"""Public-API surface tests: imports, __all__ consistency, registries."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.formats",
    "repro.gpu",
    "repro.core",
    "repro.kernels",
    "repro.perf",
    "repro.matrices",
    "repro.apps",
    "repro.bench",
    "repro.analysis",
    "repro.engine",
    "repro.exec",
    "repro.persist",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports(package):
    importlib.import_module(package)


def _iter_modules():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                yield f"{pkg_name}.{info.name}"


@pytest.mark.parametrize("module", sorted(set(_iter_modules())))
def test_every_module_imports_and_all_resolves(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.__all__ lists missing {name!r}"


def test_version():
    assert repro.__version__


def test_format_registry_complete():
    from repro.formats import available_formats

    # the audited set (docs/paper_mapping.md): every format a figure,
    # ablation or fallback tier uses, and nothing else
    expected = {"coo", "csr", "bsr", "bitbsr", "bitcoo"}
    assert set(available_formats()) == expected


def test_kernel_registry_complete():
    from repro.kernels import available_kernels

    # the audited set (docs/paper_mapping.md): every kernel a figure,
    # ablation or fallback tier uses, and nothing else
    expected = {
        "spaden", "spaden-no-tc", "spaden-wmma",
        "cusparse-csr", "cusparse-bsr", "lightspmv", "gunrock", "dasp",
        "csr-scalar", "csr-warp16",
    }
    assert set(available_kernels()) == expected


def test_every_kernel_has_label_and_docstring():
    from repro.kernels import available_kernels, get_kernel

    for name in available_kernels():
        kernel = get_kernel(name)
        assert kernel.label, name
        assert type(kernel).__doc__ or type(kernel).__module__, name


def test_every_public_class_documented():
    """Doc-comment coverage: every public class/function in __all__ of
    the core packages carries a docstring."""
    undocumented = []
    for module in sorted(set(_iter_modules())):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if callable(obj) and not isinstance(obj, (int, float, str, tuple, dict)):
                if not getattr(obj, "__doc__", None):
                    undocumented.append(f"{module}.{name}")
    assert not undocumented, undocumented
